package store

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"gesturecep/internal/stream"
)

// Format pins: the sha256 of every segment and sidecar file of two fixed
// recordings, one per write path. The on-disk format is a compatibility
// contract with every archive already written, so an encoder change that
// moves a single byte fails here even if the reader still accepts it.
const (
	pinTapSHA256    = "93f8a7441be8949559911ff6c20f1289d148efd39a42fd069093f2255ca808b7"
	pinAppendSHA256 = "8c3ba7366ef95eba073636c288892d5f837b51c0cb782e2308f1be3a8607ef02"
)

// pinTuples is synthTuples with event time jittered out of order, so a
// record's max event time differs from its last one and the sidecars'
// time spans pin the max, not the last.
func pinTuples(n int) []stream.Tuple {
	tuples := synthTuples(n)
	for i := range tuples {
		switch {
		case i%7 == 3:
			tuples[i].Ts = tuples[i].Ts.Add(-time.Second)
		case i%11 == 5:
			tuples[i].Ts = tuples[i].Ts.Add(2 * time.Second)
		}
	}
	return tuples
}

// hashStreamFiles hashes the names and contents of a stream's segment and
// sidecar files in name order. The manifest is left out: it carries the
// creation wall-clock time.
func hashStreamFiles(t *testing.T, dir string) string {
	t.Helper()
	var names []string
	for _, pat := range []string{"*.seg", "*.idx"} {
		m, err := filepath.Glob(filepath.Join(dir, pat))
		if err != nil {
			t.Fatal(err)
		}
		names = append(names, m...)
	}
	sort.Strings(names)
	h := sha256.New()
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		h.Write([]byte(filepath.Base(name)))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestFormatPinTap records 3,100 tuples through a Recorder tap with a Sync
// mid-stream (a short record at the cut), across segment rolls.
func TestFormatPinTap(t *testing.T) {
	root := t.TempDir()
	w, err := Create(root, "tap", synthSchema, Options{SegmentBytes: 16 << 10, IndexEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	// 3,100 tuples fit the default tap buffer, so nothing can drop.
	rec := NewRecorder(w, 0)
	tap := rec.Tap()
	tuples := pinTuples(3100)
	for i, tu := range tuples {
		if i == 1000 {
			if err := rec.Sync(); err != nil {
				t.Fatal(err)
			}
		}
		tap(tu)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if rec.Recorded() != uint64(len(tuples)) || rec.Dropped() != 0 {
		t.Fatalf("recorded %d, dropped %d of %d", rec.Recorded(), rec.Dropped(), len(tuples))
	}
	if got := hashStreamFiles(t, w.Dir()); got != pinTapSHA256 {
		t.Fatalf("tap recording sha256 %s, pinned %s", got, pinTapSHA256)
	}
}

// TestFormatPinAppend writes through Writer.Append with small records,
// segments and index stride, so rolls, sidecar entries, a mid-stream
// Flush and a short final record all land on disk.
func TestFormatPinAppend(t *testing.T) {
	root := t.TempDir()
	w, err := Create(root, "append", synthSchema, Options{SegmentBytes: 8 << 10, IndexEvery: 3, BatchTuples: 32})
	if err != nil {
		t.Fatal(err)
	}
	tuples := pinTuples(1000)
	for i, tu := range tuples {
		if i == 500 {
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Append(tu); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := hashStreamFiles(t, w.Dir()); got != pinAppendSHA256 {
		t.Fatalf("append recording sha256 %s, pinned %s", got, pinAppendSHA256)
	}
}
