package store

import (
	"fmt"
	"os"
	"sync"

	"gesturecep/internal/stream"
)

// Writer appends tuples to one recorded stream. Append encodes each tuple
// at once into a record of Options.BatchTuples, written CRC-framed with a
// single Write when full; segments roll at Options.SegmentBytes, and
// sealing a segment writes its sparse index sidecar. Safe for concurrent
// use (appends serialize on an internal lock), though the usual producer
// is a single Recorder drain goroutine, handing over whole records.
type Writer struct {
	dir  string
	man  Manifest
	opts Options

	mu        sync.Mutex
	f         *os.File
	segIndex  int
	segBytes  int64
	records   uint64     // stream-wide records written (== next record ordinal)
	tuples    uint64     // tuples appended this writer (excludes history)
	bytes     uint64     // record bytes written this writer (headers + payloads)
	rec       *recordBuf // Append's partial record; nil until the first Append
	closed    bool
	failed    error // sticky: a failed roll or record write poisons the writer
	recovered RecoveryInfo

	// Sparse-index state of the segment currently being appended, written
	// out as the sidecar when the segment seals.
	streamTuples uint64 // stream-wide tuples written (== next tuple ordinal)
	seg          struct {
		baseRecord uint64
		baseTuple  uint64
		entries    []idxEntry
		firstTsNs  int64
		lastTsNs   int64
	}
}

func newWriter(dir string, man Manifest, opts Options) *Writer {
	return &Writer{dir: dir, man: man, opts: opts.withDefaults(len(man.Fields))}
}

// Manifest returns the stream's immutable metadata.
func (w *Writer) Manifest() Manifest { return w.man }

// Dir returns the stream directory.
func (w *Writer) Dir() string { return w.dir }

// Recovered reports what Open had to repair; zero after Create.
func (w *Writer) Recovered() RecoveryInfo { return w.recovered }

// Records returns the stream-wide record count (history plus this run).
func (w *Writer) Records() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.records
}

// Tuples returns the number of tuples appended through this writer,
// including those still buffered.
func (w *Writer) Tuples() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.rec != nil {
		return w.tuples + uint64(w.rec.n)
	}
	return w.tuples
}

// Bytes returns the record bytes (headers plus payloads) written through
// this writer — the admin plane's append-throughput gauge source. Excludes
// history and tuples still buffered.
func (w *Writer) Bytes() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.bytes
}

// resetSegState points the sparse-index accumulator at a fresh segment.
func (w *Writer) resetSegState(baseRecord uint64) {
	w.seg.baseRecord = baseRecord
	w.seg.baseTuple = w.streamTuples
	w.seg.entries = w.seg.entries[:0]
	w.seg.firstTsNs, w.seg.lastTsNs = 0, 0
}

// openSegment creates segment index with the given base record ordinal and
// makes it the append target.
func (w *Writer) openSegment(index int, baseRecord uint64) error {
	f, err := os.OpenFile(segmentPath(w.dir, index), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	hdr := encodeSegHeader(segHeader{fields: len(w.man.Fields), baseRecord: baseRecord})
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return err
	}
	w.f = f
	w.segIndex = index
	w.segBytes = segHeaderBytes
	w.records = baseRecord
	w.resetSegState(baseRecord)
	return nil
}

// recover positions the writer at the end of the last valid record,
// repairing a torn tail: the last segment is scanned record by record and
// truncated back to the last CRC-valid boundary; a tail segment whose very
// header is torn is removed and the scan falls back to the previous one.
// The reopened segment's sidecar (if any) is discarded — it described a
// sealed segment this writer is about to extend — and its sparse-index
// state is rebuilt from the scan so the next seal writes a correct one.
func (w *Writer) recover() error {
	segs, err := listSegments(w.dir)
	if err != nil {
		return err
	}
	for len(segs) > 0 {
		index := segs[len(segs)-1]
		path := segmentPath(w.dir, index)
		scan, headerOK, err := scanSegment(path, w.opts.IndexEvery)
		if err != nil {
			return fmt.Errorf("store: segment %d of stream %q: %w", index, w.man.Stream, err)
		}
		if !headerOK {
			if err := os.Remove(path); err != nil {
				return err
			}
			os.Remove(sidecarPath(w.dir, index))
			w.recovered.RemovedSegments++
			segs = segs[:len(segs)-1]
			continue
		}
		if scan.hdr.fields != len(w.man.Fields) {
			return fmt.Errorf("store: segment %d is %d fields wide, manifest declares %d",
				index, scan.hdr.fields, len(w.man.Fields))
		}
		baseTuple, err := tupleBaseOf(w.dir, segs, len(segs)-1)
		if err != nil {
			return fmt.Errorf("store: stream %q: %w", w.man.Stream, err)
		}
		f, err := os.OpenFile(path, os.O_WRONLY, 0)
		if err != nil {
			return err
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return err
		}
		if st.Size() > scan.validBytes {
			if err := f.Truncate(scan.validBytes); err != nil {
				f.Close()
				return err
			}
			w.recovered.TruncatedBytes += st.Size() - scan.validBytes
		}
		if _, err := f.Seek(scan.validBytes, 0); err != nil {
			f.Close()
			return err
		}
		// The sidecar, if one exists, described the sealed segment before
		// this writer reopened it for append; the seal path rewrites it.
		if err := os.Remove(sidecarPath(w.dir, index)); err != nil && !os.IsNotExist(err) {
			f.Close()
			return err
		}
		w.f = f
		w.segIndex = index
		w.segBytes = scan.validBytes
		w.records = scan.hdr.baseRecord + scan.records
		w.streamTuples = baseTuple + scan.tuples
		w.seg.baseRecord = scan.hdr.baseRecord
		w.seg.baseTuple = baseTuple
		w.seg.entries = w.seg.entries[:0]
		for _, e := range scan.idx {
			e.tupleOrd += baseTuple // scan ordinals are segment-relative
			w.seg.entries = append(w.seg.entries, e)
		}
		w.seg.firstTsNs, w.seg.lastTsNs = scan.firstTsNs, scan.lastTsNs
		return nil
	}
	// Every segment was torn away (or the stream never got one): start over.
	w.streamTuples = 0
	return w.openSegment(1, 0)
}

// usableLocked reports why the writer can take no more records, if so.
func (w *Writer) usableLocked() error {
	if w.failed != nil {
		return w.failed
	}
	if w.closed {
		return fmt.Errorf("store: writer for %q is closed", w.man.Stream)
	}
	return nil
}

// checkWidth rejects a tuple that does not match the stream schema.
func (w *Writer) checkWidth(t *stream.Tuple) error {
	if len(t.Fields) != len(w.man.Fields) {
		return fmt.Errorf("store: tuple has %d fields, stream %q records %d",
			len(t.Fields), w.man.Stream, len(w.man.Fields))
	}
	return nil
}

// Append encodes one tuple into the pending record; a full record is
// written out. The tuple's field slice is not retained.
func (w *Writer) Append(t stream.Tuple) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.usableLocked(); err != nil {
		return err
	}
	if err := w.checkWidth(&t); err != nil {
		return err
	}
	if w.rec == nil {
		w.rec = getRecord(len(w.man.Fields), w.opts.BatchTuples)
	}
	w.rec.add(&t)
	if w.rec.n >= w.opts.BatchTuples {
		return w.flushRecordLocked()
	}
	return nil
}

// flushRecordLocked writes Append's partial record, if any.
func (w *Writer) flushRecordLocked() error {
	if w.rec == nil {
		return nil
	}
	err := w.writeRecordLocked(w.rec)
	w.rec.reset()
	return err
}

// writeRecord writes one record a Recorder tap encoded.
func (w *Writer) writeRecord(rb *recordBuf) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.usableLocked(); err != nil {
		return err
	}
	return w.writeRecordLocked(rb)
}

// writeRecordLocked writes one encoded record, stamped with the next
// record ordinal, and rolls the segment if it crossed the size threshold.
func (w *Writer) writeRecordLocked(rb *recordBuf) error {
	if rb.n == 0 {
		return nil
	}
	rec := rb.seal(w.records)
	if rel := w.records - w.seg.baseRecord; rel%uint64(w.opts.IndexEvery) == 0 {
		w.seg.entries = append(w.seg.entries, idxEntry{
			tupleOrd: w.streamTuples,
			tsNs:     rb.firstTs,
			offset:   w.segBytes,
		})
	}
	if w.seg.firstTsNs == 0 {
		w.seg.firstTsNs = rb.firstTs
	}
	if rb.maxTs > w.seg.lastTsNs {
		w.seg.lastTsNs = rb.maxTs
	}
	if _, err := w.f.Write(rec); err != nil {
		// A short write leaves a torn record at the segment tail; a later
		// record landing behind it would be unreadable history.
		w.f.Close()
		w.failed = fmt.Errorf("store: stream %q: record write failed: %w", w.man.Stream, err)
		return w.failed
	}
	w.records++
	w.tuples += uint64(rb.n)
	w.streamTuples += uint64(rb.n)
	w.bytes += uint64(len(rec))
	w.segBytes += int64(len(rec))
	if w.segBytes >= w.opts.SegmentBytes {
		if err := w.rollLocked(); err != nil {
			// A failed roll leaves no segment safe to append to — the old
			// file is sealed (or half-sealed), the new one never opened.
			// Poison the writer so every later call surfaces the fault
			// instead of quietly buffering into a closed file.
			w.failed = fmt.Errorf("store: stream %q: segment roll failed: %w", w.man.Stream, err)
			return w.failed
		}
	}
	return nil
}

// rollLocked seals the current segment and opens the next one.
func (w *Writer) rollLocked() error {
	if err := w.sealLocked(); err != nil {
		return err
	}
	return w.openSegment(w.segIndex+1, w.records)
}

// sealLocked closes the current segment file, then writes its sparse
// index sidecar. The sidecar lands only after the data it describes
// is safely closed; a crash between the two just leaves a sealed segment
// without an index, which readers scan.
func (w *Writer) sealLocked() error {
	if w.opts.Sync {
		if err := w.f.Sync(); err != nil {
			return err
		}
	}
	if err := w.f.Close(); err != nil {
		return err
	}
	return writeSidecar(sidecarPath(w.dir, w.segIndex), &segIndex{
		every:      w.opts.IndexEvery,
		baseRecord: w.seg.baseRecord,
		baseTuple:  w.seg.baseTuple,
		records:    w.records - w.seg.baseRecord,
		tuples:     w.streamTuples - w.seg.baseTuple,
		firstTsNs:  w.seg.firstTsNs,
		lastTsNs:   w.seg.lastTsNs,
		entries:    w.seg.entries,
	})
}

// Flush writes any appended tuples out as a (possibly short) record; with
// Options.Sync it also fsyncs.
func (w *Writer) Flush() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.usableLocked(); err != nil {
		return err
	}
	if err := w.flushRecordLocked(); err != nil {
		return err
	}
	if w.opts.Sync {
		return w.f.Sync()
	}
	return nil
}

// Close writes any appended tuples and closes the segment file. The
// stream can be resumed later with Open.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	if w.failed != nil {
		// The failed roll or write already closed (or lost) the segment
		// file; there is nothing consistent left to flush into.
		return w.failed
	}
	err := w.flushRecordLocked()
	if w.rec != nil {
		recordPool.Put(w.rec)
		w.rec = nil
	}
	if err != nil {
		return err
	}
	return w.sealLocked()
}
