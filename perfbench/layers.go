package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"gesturecep/internal/anduin"
	"gesturecep/internal/cep"
	"gesturecep/internal/kinect"
	"gesturecep/internal/obs"
	"gesturecep/internal/serve"
	"gesturecep/internal/store"
	"gesturecep/internal/stream"
	"gesturecep/internal/transform"
)

// engineCounters sums the NFA counters of deployed queries (E7's measure).
type engineCounters struct{ preds, pruned uint64 }

func (c *engineCounters) add(e *anduin.Engine) {
	for _, q := range e.Queries() {
		if _, preds, _, pruned, err := e.QueryStats(q.ID); err == nil {
			c.preds += preds
			c.pruned += pruned
		}
	}
}

// put reports the counters per raw tuple fed, over every deployed query.
func (c engineCounters) put(L map[string]float64, tuples int) {
	L["cep.pred_calls_per_tuple"] = float64(c.preds) / float64(tuples)
	L["cep.pruned_per_tuple"] = float64(c.pruned) / float64(tuples)
}

// putServeInstruments reports the serve stage histograms and returns the
// mean detect time of a traced tuple in nanoseconds.
func putServeInstruments(L map[string]float64, qw, det, ing obs.HistSnapshot) float64 {
	for _, h := range []struct {
		name string
		s    obs.HistSnapshot
	}{{"queue_wait", qw}, {"detect", det}, {"ingest", ing}} {
		L["serve."+h.name+"_us_p50"] = histQuantile(h.s, 0.5, time.Microsecond)
		L["serve."+h.name+"_us_p99"] = histQuantile(h.s, 0.99, time.Microsecond)
	}
	return float64(det.Mean())
}

// sampleQueueDepth records the peak of depth, read every 20 ms, as
// serve.queue_depth_max while a traced run lasts; stop ends the sampling.
func sampleQueueDepth(on bool, depth func() int, L map[string]float64) (stop func()) {
	if !on {
		return func() {}
	}
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				L["serve.queue_depth_max"] = max(L["serve.queue_depth_max"], float64(depth()))
			}
		}
	}()
	return func() { close(quit); <-done }
}

// minLadder is how long each ladder rung repeats its pass over the tuples;
// the rung reports the median pass.
const minLadder = 150 * time.Millisecond

// ladder replays the workload's own tuples through single layers: the §3.2
// transform alone, then NFA stepping of the workload's plans over the
// transformed tuples. Both are per raw tuple; the NFA figure covers every
// plan.
func ladder(c *corpus) (transformNs, stepNs float64, st engineCounters, err error) {
	var raw int
	viewed := make([][]stream.Tuple, len(c.recs))
	for i, rec := range c.recs {
		raw += len(rec.tuples)
		tr, err := transform.New(transform.DefaultConfig())
		if err != nil {
			return 0, 0, st, err
		}
		for _, t := range rec.tuples {
			if v, ok := tr.Tuple(t); ok {
				viewed[i] = append(viewed[i], v)
			}
		}
	}
	transformNs = repeatMedian(func() {
		for _, rec := range c.recs {
			tr, _ := transform.New(transform.DefaultConfig())
			for _, t := range rec.tuples {
				tr.Tuple(t)
			}
		}
	}) / float64(raw)

	var nfas []*cep.NFA
	stepNs = repeatMedian(func() {
		nfas = nfas[:0]
		for _, v := range viewed {
			mine := make([]*cep.NFA, len(c.plans))
			for j, p := range c.plans {
				mine[j] = p.Program.Instantiate()
			}
			for _, t := range v {
				for _, n := range mine {
					n.Process(t)
				}
			}
			nfas = append(nfas, mine...)
		}
	}) / float64(raw)
	for _, n := range nfas {
		_, preds, _, pruned := n.Stats()
		st.preds += preds
		st.pruned += pruned
	}
	return transformNs, stepNs, st, nil
}

// repeatMedian runs pass until minLadder has elapsed (three times at the
// least) and returns the median pass time in nanoseconds.
func repeatMedian(pass func()) float64 {
	var times []float64
	for start := time.Now(); len(times) < 3 || time.Since(start) < minLadder; {
		t := time.Now()
		pass()
		times = append(times, float64(time.Since(t)))
	}
	return median(times)
}

// writeStreams records each recording as one stream under root, timing
// Writer.Append. name maps a recording index to its stream name and root.
func writeStreams(c *corpus, count int, place func(i int) (name, root string)) (appendNs float64, err error) {
	var spent time.Duration
	var n int
	for i := 0; i < count; i++ {
		name, root := place(i)
		w, err := store.Create(root, name, kinect.Schema(), store.Options{})
		if err != nil {
			return 0, err
		}
		rec := c.recs[i%len(c.recs)]
		start := time.Now()
		for _, t := range rec.tuples {
			if err := w.Append(t); err != nil {
				w.Close()
				return 0, err
			}
		}
		spent += time.Since(start)
		n += len(rec.tuples)
		if err := w.Close(); err != nil {
			return 0, err
		}
	}
	return float64(spent) / float64(n), nil
}

// storeLadder times the read side of the store on recorded streams: a
// time seek into the middle of each stream, a full scan with no plans,
// and a single-node backfill of one stream under the workload's plans.
func storeLadder(c *corpus, rootOf func(stream string) string, streams []string, L map[string]float64) error {
	var seeks, backfills []float64
	var scanBytes float64
	var scanTime time.Duration
	for i, name := range streams {
		rec := c.recs[i%len(c.recs)]
		mid := rec.tuples[len(rec.tuples)/2].Ts
		root := rootOf(name)
		r, err := store.OpenReader(root, name)
		if err != nil {
			return err
		}
		start := time.Now()
		err = r.SeekTime(mid)
		seeks = append(seeks, float64(time.Since(start))/1e6)
		r.Close()
		if err != nil {
			return err
		}

		if r, err = store.OpenReader(root, name); err != nil {
			return err
		}
		start = time.Now()
		for {
			tuples, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				r.Close()
				return err
			}
			scanBytes += float64(len(tuples) * (16 + 8*len(tuples[0].Fields)))
		}
		scanTime += time.Since(start)
		r.Close()

		if i < len(c.recs) {
			if r, err = store.OpenReader(root, name); err != nil {
				return err
			}
			start = time.Now()
			dets, err := store.Backfill(r, c.plans, store.BackfillOptions{})
			backfills = append(backfills, float64(time.Since(start))/1e6)
			r.Close()
			if err != nil {
				return err
			}
			if ok, err := sameDetections(dets, rec.refWire); err != nil || !ok {
				return fmt.Errorf("store backfill of %s differs from the reference", name)
			}
		}
	}
	L["store.seek_ms"] = median(seeks)
	L["store.scan_mb_per_s"] = scanBytes / (1 << 20) / scanTime.Seconds()
	L["store.backfill_ms"] = median(backfills)
	return nil
}

// storeProbe measures the store layer for a workload that bypasses it:
// the workload's recordings written to a scratch directory, then read back.
func storeProbe(c *corpus, dir string, L map[string]float64) error {
	root := filepath.Join(dir, "store-probe")
	defer os.RemoveAll(root)
	var names []string
	appendNs, err := writeStreams(c, len(c.recs), func(i int) (string, string) {
		names = append(names, fmt.Sprintf("probe-%02d", i))
		return names[i], root
	})
	if err != nil {
		return err
	}
	L["store.append_ns"] = appendNs
	return storeLadder(c, func(string) string { return root }, names, L)
}

// serveProbe measures Session.FeedTuple for a workload that does not call
// it: one manager, one session per recording, each recording fed once from
// one goroutine and checked against the reference.
func serveProbe(c *corpus, L map[string]float64) error {
	mgr, err := serve.NewManager(serve.Config{Shards: runtime.NumCPU(), Policy: serve.Block}, c.reg)
	if err != nil {
		return err
	}
	defer mgr.Close()
	sessions := make([]*serve.Session, len(c.recs))
	for i := range sessions {
		if sessions[i], err = mgr.CreateSession(fmt.Sprintf("probe-%02d", i)); err != nil {
			return err
		}
	}
	var feeds []float64
	for f := 0; f < len(c.recs[0].tuples); f++ {
		for i, s := range sessions {
			start := time.Now()
			if err := s.FeedTuple(c.recs[i].tuples[f]); err != nil {
				return err
			}
			feeds = append(feeds, float64(time.Since(start))/1e3)
		}
	}
	for i, s := range sessions {
		s.Flush()
		if ok, err := sameDetections(s.Detections(), c.recs[i].refWire); err != nil || !ok {
			return fmt.Errorf("serve probe session %d differs from the reference", i)
		}
	}
	d := summarize(feeds)
	L["serve.feed_us_p50"], L["serve.feed_us_p99"] = d.P50, d.P99
	return nil
}
