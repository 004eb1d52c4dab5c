package store

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"gesturecep/internal/stream"
)

// TestRecorderStalledDrain pins the drop accounting of a stalled disk.
// With the writer's lock held, the drain blocks on its first record, the
// record queue fills, and every record completed after that is dropped
// whole. Once the lock is released, Close writes the queue and the partial
// record: the stream holds exactly the recorded tuples, in tap order, and
// recovery finds no torn record.
func TestRecorderStalledDrain(t *testing.T) {
	root := t.TempDir()
	const batch = 4
	w, err := Create(root, "stall", synthSchema, Options{BatchTuples: batch})
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder(w, 2*batch) // a queue of two records
	tap := rec.Tap()
	tuples := synthTuples(6*batch + 2)

	w.mu.Lock()
	for _, tu := range tuples[:batch] {
		tap(tu)
	}
	// The drain is the queue's only receiver: once the first record has
	// left the queue, the drain holds it and is blocked on the writer.
	deadline := time.Now().Add(10 * time.Second)
	for len(rec.ch) > 0 {
		if time.Now().After(deadline) {
			w.mu.Unlock()
			t.Fatal("drain never took the first record")
		}
		runtime.Gosched()
	}
	for _, tu := range tuples[batch:] {
		tap(tu) // two records fill the queue, three are dropped, two tuples pend
	}
	dropped := rec.Dropped()
	w.mu.Unlock()
	if dropped != 3*batch {
		t.Fatalf("dropped %d tuples while the drain stalled, want %d (three whole records)", dropped, 3*batch)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if rec.Recorded()+rec.Dropped() != uint64(len(tuples)) {
		t.Fatalf("accounting mismatch: recorded %d + dropped %d != tapped %d",
			rec.Recorded(), rec.Dropped(), len(tuples))
	}
	if rec.Dropped()%batch != 0 {
		t.Fatalf("dropped %d tuples, not a whole number of %d-tuple records", rec.Dropped(), batch)
	}
	got, err := ReadAll(root, "stall")
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(got)) != rec.Recorded() {
		t.Fatalf("stream holds %d tuples, recorder claims %d", len(got), rec.Recorded())
	}
	want := append(append([]stream.Tuple(nil), tuples[:3*batch]...), tuples[6*batch:]...)
	tuplesEqual(t, got, want)
	ow, err := Open(root, "stall", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ow.Close()
	if ri := ow.Recovered(); ri.Repaired() {
		t.Fatalf("recovery repaired %+v: a record was torn", ri)
	}
}

// TestNoRetentionOfCallerData reuses one field slice for every tuple, the
// way a decoder with a scratch buffer would, and scribbles over it right
// after each Append and each tap. The recording must hold the values as
// they were at the call.
func TestNoRetentionOfCallerData(t *testing.T) {
	root := t.TempDir()
	want := synthTuples(600) // two full default records and a partial one
	scratch := make([]float64, synthSchema.Len())
	reuse := func(tu stream.Tuple) stream.Tuple {
		copy(scratch, tu.Fields)
		return stream.Tuple{Ts: tu.Ts, Seq: tu.Seq, Fields: scratch}
	}
	scribble := func() {
		for j := range scratch {
			scratch[j] = -1e9
		}
	}

	w, err := Create(root, "append", synthSchema, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tu := range want {
		if err := w.Append(reuse(tu)); err != nil {
			t.Fatal(err)
		}
		scribble()
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	tw, err := Create(root, "tap", synthSchema, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder(tw, 0)
	tap := rec.Tap()
	for _, tu := range want {
		tap(reuse(tu))
		scribble()
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if rec.Dropped() != 0 {
		t.Fatalf("recorder dropped %d tuples", rec.Dropped())
	}

	for _, name := range []string{"append", "tap"} {
		got, err := ReadAll(root, name)
		if err != nil {
			t.Fatal(err)
		}
		tuplesEqual(t, got, want)
	}
}

// TestRecorderConcurrentTaps taps one recorder from several goroutines
// while another keeps cutting it with Sync. Every tuple is recorded or
// dropped exactly once, the stream holds exactly the recorded ones, and
// each producer's tuples keep their order.
func TestRecorderConcurrentTaps(t *testing.T) {
	root := t.TempDir()
	const producers, each, batch = 4, 2000, 16
	w, err := Create(root, "conc", synthSchema, Options{BatchTuples: batch, SegmentBytes: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder(w, 4*batch)
	tap := rec.Tap()
	var taps, syncs sync.WaitGroup
	stop := make(chan struct{})
	syncs.Add(1)
	go func() {
		defer syncs.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := rec.Sync(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for p := 0; p < producers; p++ {
		taps.Add(1)
		go func(p int) {
			defer taps.Done()
			for _, tu := range synthTuples(each) {
				tu.Seq = uint64(p)<<32 | tu.Seq
				tap(tu)
			}
		}(p)
	}
	taps.Wait()
	close(stop)
	syncs.Wait()
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if rec.Recorded()+rec.Dropped() != producers*each {
		t.Fatalf("accounting mismatch: recorded %d + dropped %d != tapped %d",
			rec.Recorded(), rec.Dropped(), producers*each)
	}
	got, err := ReadAll(root, "conc")
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(got)) != rec.Recorded() {
		t.Fatalf("stream holds %d tuples, recorder claims %d", len(got), rec.Recorded())
	}
	last := make([]uint64, producers)
	for _, tu := range got {
		p, seq := tu.Seq>>32, tu.Seq&(1<<32-1)
		if p >= producers || seq <= last[p] {
			t.Fatalf("tuple seq %d of producer %d after %d: duplicated or out of order", seq, p, last[p])
		}
		last[p] = seq
	}
}
