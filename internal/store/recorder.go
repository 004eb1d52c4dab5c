package store

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"

	"gesturecep/internal/stream"
)

// DefaultRecorderBuffer is the default bound, in tuples, on a Recorder's
// queue of encoded records.
const DefaultRecorderBuffer = 4096

// Recorder decouples a live serving session from disk. The Tap function is
// installed on the session's feed path and encodes each tuple into the
// session's pending record; a full record goes to a bounded queue with a
// non-blocking send, so recording can never stall ingestion — if the disk
// falls behind, whole records are dropped from the recording (never from
// detection) and counted. A single drain goroutine owns the Writer and
// writes one record per wakeup.
type Recorder struct {
	w      *Writer
	ch     chan *recordBuf // full records, in tap order
	syncCh chan chan error
	quit   chan struct{}
	done   chan struct{}

	// tapMu serializes the taps' encoding into pending and makes Close a
	// barrier for in-flight taps: Close flips closed under it, so once
	// Close holds the lock no tap can still sneak a record into the queue
	// uncounted — Recorded()+Dropped() equals the number of tap calls
	// exactly.
	tapMu    sync.Mutex
	pending  *recordBuf // partial record the taps encode into; nil when empty
	closed   bool
	recorded atomic.Uint64
	dropped  atomic.Uint64
	err      atomic.Value // first error, as errBox

	closeOnce sync.Once
	closeErr  error
}

type errBox struct{ err error }

// NewRecorder starts recording into w, taking ownership of it (Close
// closes the writer). buffer bounds the queue of full records, in tuples,
// rounded up to whole records; buffer <= 0 selects DefaultRecorderBuffer.
func NewRecorder(w *Writer, buffer int) *Recorder {
	if buffer <= 0 {
		buffer = DefaultRecorderBuffer
	}
	// The queue holds ⌈buffer / BatchTuples⌉ records, so buffer keeps its
	// meaning as a bound in tuples.
	batch := w.opts.BatchTuples
	r := &Recorder{
		w:      w,
		ch:     make(chan *recordBuf, (buffer+batch-1)/batch),
		syncCh: make(chan chan error),
		quit:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	go r.drain()
	return r
}

// Tap returns the function to install on the live feed path (e.g. as
// serve.SessionOptions.Tap). It never blocks on the disk: a full queue
// drops the record just completed, and a recorder that has stopped counts
// the tuple as dropped and moves on. (The lock contends only with other
// taps of the session, Close and the drain's cut, each for an instant.)
func (r *Recorder) Tap() func(stream.Tuple) {
	fields, batch := len(r.w.man.Fields), r.w.opts.BatchTuples
	return func(t stream.Tuple) {
		r.tapMu.Lock()
		defer r.tapMu.Unlock()
		if r.closed || r.err.Load() != nil {
			r.dropped.Add(1)
			return
		}
		if err := r.w.checkWidth(&t); err != nil {
			r.fail(err)
			r.dropped.Add(1)
			return
		}
		if r.pending == nil {
			r.pending = getRecord(fields, batch)
		}
		r.pending.add(&t)
		if r.pending.n < batch {
			return
		}
		select {
		case r.ch <- r.pending:
			r.pending = nil
		default:
			r.dropped.Add(uint64(r.pending.n))
			r.pending.reset()
		}
	}
}

// drain writes records from the queue until Close.
func (r *Recorder) drain() {
	defer close(r.done)
	for {
		select {
		case rb := <-r.ch:
			r.write(rb)
		case reply := <-r.syncCh:
			// Serviced on this goroutine so the cut and the writer flush
			// never race a record write.
			r.cut()
			if err := r.Err(); err != nil {
				reply <- err
			} else {
				reply <- r.w.Flush()
			}
		case <-r.quit:
			r.cut()
			return
		}
	}
}

// cut writes every record queued so far and then the partial record, in
// tap order. Taps keep running: records they complete after the cut queue
// behind it.
func (r *Recorder) cut() {
	r.tapMu.Lock()
	queued, pending := len(r.ch), r.pending
	r.pending = nil
	r.tapMu.Unlock()
	for ; queued > 0; queued-- {
		r.write(<-r.ch)
	}
	if pending != nil {
		r.write(pending)
	}
}

// write hands one record to the writer and recycles its buffer.
func (r *Recorder) write(rb *recordBuf) {
	if err := r.w.writeRecord(rb); err != nil {
		r.fail(err)
		r.dropped.Add(uint64(rb.n))
	} else {
		r.recorded.Add(uint64(rb.n))
	}
	recordPool.Put(rb)
}

// fail keeps the first error; from then on taps count every tuple as
// dropped.
func (r *Recorder) fail(err error) { r.err.CompareAndSwap(nil, errBox{err}) }

// Sync writes every tuple tapped so far, the partial record included, and
// flushes the writer, so that all of them become visible to a
// store.Reader. Call it only once the session feeding the tap is quiescent
// (sealed and flushed, as during a migration) — with a producer still
// running there is no meaningful "all tuples" to sync. Returns the first
// error, if any.
func (r *Recorder) Sync() error {
	reply := make(chan error, 1)
	select {
	case r.syncCh <- reply:
		return <-reply
	case <-r.done:
		return fmt.Errorf("store: recorder for %q is closed", r.Stream())
	}
}

// Recorded returns the number of tuples written to the stream. Tuples of
// the partial record land at Sync or Close.
func (r *Recorder) Recorded() uint64 { return r.recorded.Load() }

// Dropped returns the number of tuples lost to a full queue (whole
// records), a stopped recorder or a failed writer.
func (r *Recorder) Dropped() uint64 { return r.dropped.Load() }

// Err returns the first error, if any — a failed write or a tuple of the
// wrong width; once set, taps count everything as dropped.
func (r *Recorder) Err() error {
	if b, ok := r.err.Load().(errBox); ok {
		return b.err
	}
	return nil
}

// Stream returns the name of the recorded stream.
func (r *Recorder) Stream() string { return r.w.Manifest().Stream }

// Writer exposes the underlying stream writer — its Records/Tuples/Bytes
// counters feed the admin plane's append-throughput gauges.
func (r *Recorder) Writer() *Writer { return r.w }

// Close stops the taps, writes the queued and partial records and closes
// the writer. Idempotent; taps installed on still-live sessions keep
// working (counting drops) after Close.
func (r *Recorder) Close() error {
	r.closeOnce.Do(func() {
		// The lock waits out in-flight taps, so every tuple that passed a
		// closed-check is queued or pending before quit is signalled and
		// the drain's final cut writes it.
		r.tapMu.Lock()
		r.closed = true
		r.tapMu.Unlock()
		close(r.quit)
		<-r.done
		r.closeErr = r.w.Close()
		if r.closeErr == nil {
			r.closeErr = r.Err()
		}
	})
	return r.closeErr
}

// Archive manages the recordings of a whole server under one root
// directory: one recorded stream per session, with name collisions (e.g.
// a remote client reusing a session ID) resolved by a numeric suffix.
// Safe for concurrent use.
type Archive struct {
	root   string
	opts   Options
	buffer int
	gate   *streamGate // compaction vs. reader serialization, per stream

	mu     sync.Mutex
	open   map[string]*Recorder // by stream name (suffix included)
	byName map[string]*Recorder // by originally requested session name
	origOf map[string]string    // stream name -> originally requested name
	closed bool
}

// NewArchive creates an archive rooted at dir; streams are created lazily
// by Record. buffer <= 0 selects DefaultRecorderBuffer per recorder.
func NewArchive(root string, opts Options, buffer int) *Archive {
	return &Archive{
		root: root, opts: opts, buffer: buffer,
		gate:   newStreamGate(),
		open:   make(map[string]*Recorder),
		byName: make(map[string]*Recorder),
		origOf: make(map[string]string),
	}
}

// Root returns the archive directory.
func (a *Archive) Root() string { return a.root }

// OpenReader opens a recorded stream for reading under the archive's
// compaction gate: the reader holds the stream's read lock until Close, so
// a concurrent compaction pass (Archive.NewCompactor) can never rewrite or
// delete the stream's files while it is being read. Prefer this over the
// package-level OpenReader whenever the archive has a compactor attached.
func (a *Archive) OpenReader(name string) (*Reader, error) {
	lock := a.gate.of(name)
	lock.RLock()
	r, err := OpenReader(a.root, name)
	if err != nil {
		lock.RUnlock()
		return nil, err
	}
	r.unlock = lock.RUnlock
	return r, nil
}

// Record creates a fresh recorded stream for the given session and returns
// its recorder. If a stream of that name already exists (an earlier run,
// or a reused session ID), ".2", ".3", … suffixes are tried.
func (a *Archive) Record(name string, schema *stream.Schema) (*Recorder, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return nil, fmt.Errorf("store: archive %s is closed", a.root)
	}
	candidate := name
	for n := 2; ; n++ {
		_, inUse := a.open[candidate]
		if !inUse && !Exists(a.root, candidate) {
			break
		}
		candidate = fmt.Sprintf("%s.%d", name, n)
	}
	w, err := Create(a.root, candidate, schema, a.opts)
	if err != nil {
		return nil, err
	}
	rec := NewRecorder(w, a.buffer)
	a.open[candidate] = rec
	a.byName[name] = rec
	a.origOf[candidate] = name
	return rec, nil
}

// LiveRecorder returns the open recorder serving the given session name,
// resolving any collision suffix the archive chose for the stream — the
// lookup a migration uses to find a live session's recorded history. ok is
// false when no recording is open for that session.
func (a *Archive) LiveRecorder(name string) (*Recorder, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	rec, ok := a.byName[name]
	return rec, ok
}

// forget drops one recorder from every index. Callers hold a.mu.
func (a *Archive) forget(rec *Recorder) {
	name := rec.Stream()
	delete(a.open, name)
	if orig, ok := a.origOf[name]; ok {
		delete(a.origOf, name)
		if a.byName[orig] == rec {
			delete(a.byName, orig)
		}
	}
}

// Release closes one recorder and forgets it. Called when its session
// ends; Close handles any recorder not released by then.
func (a *Archive) Release(rec *Recorder) error {
	a.mu.Lock()
	a.forget(rec)
	a.mu.Unlock()
	return rec.Close()
}

// Abort closes one recorder and deletes its recording entirely — for
// streams whose session never came to life (e.g. a failed attach), so
// retries do not litter the archive with empty streams and burn ID
// suffixes.
func (a *Archive) Abort(rec *Recorder) error {
	a.mu.Lock()
	a.forget(rec)
	a.mu.Unlock()
	closeErr := rec.Close()
	if err := os.RemoveAll(rec.w.Dir()); err != nil {
		return err
	}
	return closeErr
}

// Streams returns the names of recordings currently open.
func (a *Archive) Streams() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]string, 0, len(a.open))
	for name := range a.open {
		out = append(out, name)
	}
	return out
}

// Close closes every recorder still open. The archive directory remains
// readable with OpenReader/ListStreams.
func (a *Archive) Close() error {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return nil
	}
	a.closed = true
	recs := make([]*Recorder, 0, len(a.open))
	for name, rec := range a.open {
		recs = append(recs, rec)
		delete(a.open, name)
	}
	a.byName = make(map[string]*Recorder)
	a.origOf = make(map[string]string)
	a.mu.Unlock()
	var first error
	for _, rec := range recs {
		if err := rec.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
