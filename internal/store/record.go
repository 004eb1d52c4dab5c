package store

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"sync"

	"gesturecep/internal/stream"
)

// recordHeadBytes is the framing in front of a record's tuples: the record
// header (length, CRC) and the wire batch header (handle, count, fields).
const recordHeadBytes = recHeaderBytes + batchHeadBytes

// recordBuf is one segment record encoded in place, in exactly the bytes
// it occupies on disk:
//
//	record header (8 B) | wire batch header (8 B) | tuples
//
// Tuples are encoded as they arrive, so no caller data is retained. The
// record ordinal, tuple count, payload length and CRC are patched in by
// seal when the record is written. Both write paths share it:
// Writer.Append encodes into the writer's own record, each Recorder tap
// into its session's pending one.
type recordBuf struct {
	b       []byte
	n       int   // tuples encoded
	firstTs int64 // event time of the first tuple, unix ns
	maxTs   int64 // latest event time of any tuple, unix ns
}

// recordPool recycles record buffers across writers and recorders.
var recordPool sync.Pool // of *recordBuf

// getRecord returns an empty record with room for batch tuples of the
// given width.
func getRecord(fields, batch int) *recordBuf {
	size := recordHeadBytes + batch*tupleBytes(fields)
	rb, _ := recordPool.Get().(*recordBuf)
	if rb == nil || cap(rb.b) < size {
		rb = &recordBuf{b: make([]byte, recordHeadBytes, size)}
	}
	rb.reset()
	binary.BigEndian.PutUint16(rb.b[recHeaderBytes+6:], uint16(fields))
	return rb
}

// add encodes one tuple; the caller has checked its width.
func (rb *recordBuf) add(t *stream.Tuple) {
	ts := t.Ts.UnixNano()
	if rb.n == 0 || ts > rb.maxTs {
		rb.maxTs = ts
	}
	if rb.n == 0 {
		rb.firstTs = ts
	}
	b := binary.BigEndian.AppendUint64(rb.b, uint64(ts))
	b = binary.BigEndian.AppendUint64(b, t.Seq)
	for _, f := range t.Fields {
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(f))
	}
	rb.b = b
	rb.n++
}

// seal patches the framing of the record with the given stream-wide
// ordinal and returns its bytes.
func (rb *recordBuf) seal(ordinal uint64) []byte {
	payload := rb.b[recHeaderBytes:]
	binary.BigEndian.PutUint32(payload[0:4], uint32(ordinal))
	binary.BigEndian.PutUint16(payload[4:6], uint16(rb.n))
	binary.BigEndian.PutUint32(rb.b[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(rb.b[4:8], crc32.ChecksumIEEE(payload))
	return rb.b
}

// reset empties the record, keeping its buffer and width.
func (rb *recordBuf) reset() {
	rb.b = rb.b[:recordHeadBytes]
	rb.n = 0
}
