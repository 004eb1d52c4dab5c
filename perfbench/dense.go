package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gesturecep/internal/serve"
)

// denseRig is E6's 64-query row on the serving runtime: one manager with a
// shard per CPU and the Block policy, sessions deploying every plan, fed in
// process by nproc feeders as fast as the manager admits tuples.
type denseRig struct {
	c   *corpus
	mgr *serve.Manager
	ins *serve.Instruments
	ids [][]string // per feeder: its session ids, spread evenly over shards
}

func setupDense(c *corpus, sessions int, traced bool) (*denseRig, error) {
	nc := runtime.NumCPU()
	mgr, err := serve.NewManager(serve.Config{Shards: nc, Policy: serve.Block}, c.reg)
	if err != nil {
		return nil, err
	}
	rig := &denseRig{c: c, mgr: mgr, ids: make([][]string, nc)}
	if traced {
		rig.ins = serve.NewInstruments()
		mgr.SetInstruments(rig.ins)
	}
	// Sessions are pinned to shards by id. Pick ids that fill every shard
	// equally, and give each feeder an equal share of every shard, so no
	// shard or feeder idles while another is busy.
	perShard := make([][]string, nc)
	for k, found := 0, 0; found < sessions; k++ {
		id := fmt.Sprintf("dense-%03d", k)
		s, err := mgr.CreateSession(id)
		if err != nil {
			mgr.Close()
			return nil, err
		}
		sh := s.Shard()
		if err := mgr.CloseSession(id); err != nil {
			mgr.Close()
			return nil, err
		}
		if len(perShard[sh]) < sessions/nc {
			perShard[sh] = append(perShard[sh], id)
			found++
		}
	}
	for _, ids := range perShard {
		for j, id := range ids {
			rig.ids[j%nc] = append(rig.ids[j%nc], id)
		}
	}
	return rig, nil
}

func (rig *denseRig) close() { rig.mgr.Close() }

// denseFeeder is one feeder goroutine's state and tallies.
type denseFeeder struct {
	fed     atomic.Int64 // tuples fed so far, read by the window sampler
	refused int
	// Session passes are checked as they end, so the heap the run
	// measures holds no results.
	checked, mismatched, detections int
	feedUs                          []float64
	st                              engineCounters
}

// denseResult is one measured dense-queries run.
type denseResult struct {
	tuples, window int
	failed         int
	passes         int // session passes checked
	mismatched     int
	detections     int
	win            *window
	tps, cpuUs     float64 // medians over the window's slices
	heapMB         float64
	detectMeanNs   float64
	st             engineCounters
	layer          map[string]float64
}

// traceEvery samples one fed tuple in N into the serve stage histograms.
const traceEvery = 16

// run feeds passes until the deadline: each pass creates the feeder's
// sessions afresh, replays each one's recording once (interleaving the
// sessions frame by frame), flushes, and checks each session's detections:
// a fresh session must reproduce its recording's reference exactly.
func (rig *denseRig) run(warm, measure time.Duration, tr *tracer) (*denseResult, error) {
	res := &denseResult{layer: make(map[string]float64)}
	nc := len(rig.ids)
	feeders := make([]*denseFeeder, nc)
	start := time.Now()
	warmEnd := start.Add(warm)
	deadline := warmEnd.Add(measure)
	errs := make([]error, nc)
	var wg sync.WaitGroup
	for k := 0; k < nc; k++ {
		feeders[k] = &denseFeeder{}
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			errs[k] = rig.feed(k, feeders[k], deadline, tr.log())
		}(k)
	}
	stopSampling := sampleQueueDepth(rig.ins != nil, func() int { return rig.mgr.Metrics().QueueDepth }, res.layer)
	fed := func() int64 {
		n := int64(0)
		for _, f := range feeders {
			n += f.fed.Load()
		}
		return n
	}
	time.Sleep(time.Until(warmEnd))
	fed0 := int(fed())
	win := startWindow()
	res.tps, res.cpuUs = sliceRates(sampleSlices(warmEnd, measure, fed))
	wg.Wait()
	win.stop()
	stopSampling()
	res.win = win
	res.heapMB = heapLiveMB()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	var feeds []float64
	for _, f := range feeders {
		res.tuples += int(f.fed.Load())
		res.failed += f.refused
		feeds = append(feeds, f.feedUs...)
		res.st.preds += f.st.preds
		res.st.pruned += f.st.pruned
		res.passes += f.checked
		res.mismatched += f.mismatched
		res.detections += f.detections
	}
	res.window = res.tuples - fed0
	if rig.ins != nil {
		L := res.layer
		fd := summarize(feeds)
		L["serve.feed_us_p50"], L["serve.feed_us_p99"] = fd.P50, fd.P99
		res.detectMeanNs = putServeInstruments(L, rig.ins.QueueWait.Snapshot(), rig.ins.Detect.Snapshot(), rig.ins.Ingest.Snapshot())
		res.st.put(L, res.tuples)
	}
	return res, nil
}

// feed is one feeder's pass loop. A pass's sessions stay open until the
// next pass replaces them, so the heap measured after the run holds one
// full set of deployed queries.
func (rig *denseRig) feed(k int, f *denseFeeder, deadline time.Time, log *spanLog) error {
	ids := rig.ids[k]
	frames := len(rig.c.recs[0].tuples)
	recs := make([]*recording, len(ids))
	for j := range ids {
		recs[j] = rig.c.recs[(k+j*len(rig.ids))%len(rig.c.recs)]
	}
	traced := rig.ins != nil
	sessions := make([]*serve.Session, len(ids))
	for pass := 0; time.Now().Before(deadline); pass++ {
		passStart := time.Now().UnixNano()
		for j, id := range ids {
			if sessions[j] != nil {
				if err := rig.mgr.CloseSession(id); err != nil {
					return err
				}
			}
			s, err := rig.mgr.CreateSession(id)
			if err != nil {
				return err
			}
			sessions[j] = s
		}
		if log != nil {
			log.add(0, "serve.create", 0, uint64(pass), passStart, time.Now().UnixNano())
		}
		for i := 0; i < frames; i++ {
			for j, s := range sessions {
				t := recs[j].tuples[i]
				var err error
				if log == nil {
					err = s.FeedTuple(t)
				} else {
					start := time.Now().UnixNano()
					if i%traceEvery == 0 {
						err = s.FeedTupleTraced(t, start)
					} else {
						err = s.FeedTuple(t)
					}
					end := time.Now().UnixNano()
					f.feedUs = append(f.feedUs, float64(end-start)/1e3)
					log.add(0, "serve.feed", 0, reqID(k*len(ids)+j, i), start, end)
				}
				if err != nil {
					f.refused++
				}
			}
			f.fed.Add(int64(len(sessions)))
		}
		flushStart := time.Now().UnixNano()
		for j, s := range sessions {
			s.Flush()
			dets := s.Detections()
			ok, err := sameDetections(dets, recs[j].refWire)
			if err != nil {
				return err
			}
			f.checked++
			f.detections += len(dets)
			if !ok {
				f.mismatched++
			}
			if traced {
				f.st.add(s.Engine())
			}
		}
		if log != nil {
			log.add(0, "serve.flush", 0, uint64(pass), flushStart, time.Now().UnixNano())
		}
	}
	return nil
}
