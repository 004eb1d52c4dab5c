package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"gesturecep/internal/kinect"
)

// Workload shapes. Why each was chosen is in DESIGN.md.
const (
	liveSessions = 768 // × 30 fps ≈ 23k tuples/s offered
	liveBackends = 2
	liveTrace    = 16 // wire trace sampling of the traced run
	// liveWarm outlasts the recorders' first record (256 tuples at 30 fps),
	// until which every recorded session's heap keeps growing.
	liveWarm = 10 * time.Second

	denseSessions = 16
	denseTrainers = 8 // × 8 gestures = 64 plans per session

	archiveStreams  = 32
	archiveFrames   = 3125 // × 32 streams = 100k tuples
	archiveBackends = 2
	// archiveProcs is GOMAXPROCS on archive-backfill. The job's partitions
	// and merge still run concurrently, on one P, which leaves the host a
	// spare vCPU: on two saturated Ps the job's wall time followed outside
	// load (see DESIGN.md).
	archiveProcs = 1
)

// framesFor is how many frames a live session sends in a measured phase
// of d after the warm-up.
func framesFor(d time.Duration) int { return int((liveWarm + d) / kinect.FramePeriod) }

// liveCorpus is eight recordings of users gesturing about every two seconds,
// learned from one trainer per gesture.
func liveCorpus(seed int64, frames int, tr *tracer) (*corpus, error) {
	return buildCorpus(seed, 1, recordingSpec{count: 8, frames: frames, idle: 500 * time.Millisecond}, tr)
}

func (r *run) live() (*result, error) {
	dir := filepath.Join(r.dir, "live")
	if r.trace {
		return r.liveTraced(dir)
	}
	frames := framesFor(r.seconds)
	opts := liveOpts{sessions: liveSessions, backends: liveBackends, frames: frames, warm: liveWarm}
	rig, setupS, err := timedSetups(func() (*liveRig, func(), error) {
		c, err := liveCorpus(r.seed, frames, nil)
		if err != nil {
			return nil, nil, err
		}
		rig, err := setupLive(c, opts, r.seed, dir, nil)
		if err != nil {
			return nil, nil, err
		}
		return rig, rig.close, nil
	})
	if err != nil {
		return nil, err
	}
	res, err := rig.run(nil)
	if err != nil {
		rig.close()
		return nil, err
	}
	heapMB := res.heapMB - closedHeapMB(rig.close, rig.c)
	tps, cpuUs := res.tps, res.cpuUs
	reportDist("detect_latency_ms (due time of the final frame to arrival)", "ms", res.latency)
	reportDist("gen.send_lag_ms", "ms", res.sendLag)
	report("tuples_per_s=%.1f achieved, %d offered (%d sessions × %d fps); cpu_us_per_tuple=%.3f over %d tuples; heap_live_mb=%.2f",
		tps, liveSessions*kinect.FrameRate, liveSessions, kinect.FrameRate, cpuUs, res.window, heapMB)
	reportChecks(res.detections, res.mismatched, liveSessions, "sessions", res.failed, res.tuples, "tuples")
	return &result{
		Correct:   res.mismatched == 0,
		Attempted: res.tuples,
		Failed:    res.failed,
		Metrics:   e2e(setupS, tps, cpuUs, heapMB),
	}, nil
}

// liveTraced measures an untraced half and a traced half on fresh rigs
// over one corpus, then fills the layers the live path does not call
// directly from probes.
func (r *run) liveTraced(dir string) (*result, error) {
	tr := newTracer()
	frames := framesFor(r.half())
	c, err := liveCorpus(r.seed, frames, tr)
	if err != nil {
		return nil, err
	}
	opts := liveOpts{sessions: liveSessions, backends: liveBackends, frames: frames, warm: liveWarm}
	res0, err := runLiveOnce(c, opts, r.seed, dir, nil)
	if err != nil {
		return nil, err
	}
	opts.traceEvery = liveTrace
	res1, err := runLiveOnce(c, opts, r.seed, dir, tr)
	if err != nil {
		return nil, err
	}
	L := res1.layer
	if err := serveProbe(c, L); err != nil {
		return nil, err
	}
	if err := storeProbe(c, r.dir, L); err != nil {
		return nil, err
	}
	cpu0 := float64(res0.win.cpu) / float64(res0.window)
	cpu1 := float64(res1.win.cpu) / float64(res1.window)
	if err := r.finishTrace(L, c, tr, traced{cpu0, cpu1, res1.detectMeanNs, true, res0.win, res0.window}); err != nil {
		return nil, err
	}
	return &result{
		Correct:   res0.mismatched+res1.mismatched == 0,
		Attempted: res0.tuples + res1.tuples,
		Failed:    res0.failed + res1.failed,
		Metrics:   perLayer(L),
	}, nil
}

// runLiveOnce sets a live rig up, runs it once and tears it down.
func runLiveOnce(c *corpus, opts liveOpts, seed int64, dir string, tr *tracer) (*liveResult, error) {
	rig, err := setupLive(c, opts, seed, dir, tr)
	if err != nil {
		return nil, err
	}
	defer rig.close()
	return rig.run(tr)
}

// liveProbe measures the generator, wire, cluster and recorder layers for
// a workload that bypasses them: a two-second live-gateway run of a few
// sessions replaying the workload's own recordings under its own plans. It
// fills only the figures L does not hold yet and returns the probe's mean
// serve detect time per traced tuple.
func liveProbe(c *corpus, seed int64, dir string, L map[string]float64) (float64, error) {
	const d = 2 * time.Second
	opts := liveOpts{sessions: 32, backends: liveBackends, frames: int((d + d/4) / kinect.FramePeriod), warm: d / 4, traceEvery: 4}
	res, err := runLiveOnce(c, opts, seed, filepath.Join(dir, "live-probe"), newTracer())
	if err != nil {
		return 0, err
	}
	if res.mismatched > 0 {
		return 0, fmt.Errorf("live probe: %d sessions differ from the reference", res.mismatched)
	}
	for k, v := range res.layer {
		// The NFA counters come from the workload's own tuples instead.
		if _, ok := L[k]; !ok && !strings.HasPrefix(k, "cep.") {
			L[k] = v
		}
	}
	return res.detectMeanNs, nil
}

// denseCorpus is 64 plans (eight gestures from eight trainers) and eight
// mostly idle 30-second recordings.
func denseCorpus(seed int64, tr *tracer) (*corpus, error) {
	return buildCorpus(seed, denseTrainers, recordingSpec{count: 8, frames: 900, idle: 5 * time.Second}, tr)
}

func (r *run) dense() (*result, error) {
	if r.trace {
		return r.denseTraced()
	}
	rig, setupS, err := timedSetups(func() (*denseRig, func(), error) {
		c, err := denseCorpus(r.seed, nil)
		if err != nil {
			return nil, nil, err
		}
		rig, err := setupDense(c, denseSessions, false)
		if err != nil {
			return nil, nil, err
		}
		return rig, rig.close, nil
	})
	if err != nil {
		return nil, err
	}
	res, err := rig.run(warm, r.seconds, nil)
	if err != nil {
		rig.close()
		return nil, err
	}
	plans, shards := len(rig.c.plans), rig.mgr.Shards()
	heapMB := res.heapMB - closedHeapMB(rig.close, rig.c)
	tps, cpuUs := res.tps, res.cpuUs
	report("tuples_per_s=%.1f capacity with %d plans × %d sessions on %d shards; cpu_us_per_tuple=%.3f over %d tuples; heap_live_mb=%.2f",
		tps, plans, denseSessions, shards, cpuUs, res.window, heapMB)
	reportChecks(res.detections, res.mismatched, res.passes, "session passes", res.failed, res.tuples, "tuples")
	return &result{
		Correct:   res.mismatched == 0,
		Attempted: res.tuples,
		Failed:    res.failed,
		Metrics:   e2e(setupS, tps, cpuUs, heapMB),
	}, nil
}

func (r *run) denseTraced() (*result, error) {
	tr := newTracer()
	c, err := denseCorpus(r.seed, tr)
	if err != nil {
		return nil, err
	}
	var res [2]*denseResult
	for i, on := range []bool{false, true} {
		rig, err := setupDense(c, denseSessions, on)
		if err != nil {
			return nil, err
		}
		var t *tracer
		if on {
			t = tr
		}
		res[i], err = rig.run(warm, r.half(), t)
		rig.close()
		if err != nil {
			return nil, err
		}
	}
	L := res[1].layer
	if _, err := liveProbe(c, r.seed, r.dir, L); err != nil {
		return nil, err
	}
	if err := storeProbe(c, r.dir, L); err != nil {
		return nil, err
	}
	cpu0 := float64(res[0].win.cpu) / float64(res[0].window)
	cpu1 := float64(res[1].win.cpu) / float64(res[1].window)
	if err := r.finishTrace(L, c, tr, traced{cpu0, cpu1, res[1].detectMeanNs, true, res[0].win, res[0].window}); err != nil {
		return nil, err
	}
	shards := runtime.NumCPU()
	budget := float64(shards) * 1e9 * res[0].win.wall.Seconds() / float64(res[0].window)
	report("dense layer sum %.1f ns/tuple against 1/tuples_per_s × %d shards = %.1f ns/tuple: residual %.1f ns/tuple outside transform, cep and serve publish",
		L["layers.sum_ns"], shards, budget, budget-L["layers.sum_ns"])
	return &result{
		Correct:   res[0].mismatched+res[1].mismatched == 0,
		Attempted: res[0].tuples + res[1].tuples,
		Failed:    res[0].failed + res[1].failed,
		Metrics:   perLayer(L),
	}, nil
}

// archiveCorpus is eight 104-second recordings, 32 streams replaying them.
func archiveCorpus(seed int64, tr *tracer) (*corpus, error) {
	return buildCorpus(seed, 1, recordingSpec{count: 8, frames: archiveFrames, idle: 500 * time.Millisecond}, tr)
}

func (r *run) archive() (*result, error) {
	dir := filepath.Join(r.dir, "archive")
	if r.trace {
		return r.archiveTraced(dir)
	}
	rig, setupS, err := timedSetups(func() (*archiveRig, func(), error) {
		c, err := archiveCorpus(r.seed, nil)
		if err != nil {
			return nil, nil, err
		}
		rig, err := setupArchive(c, archiveBackends, archiveStreams, dir)
		if err != nil {
			return nil, nil, err
		}
		return rig, rig.close, nil
	})
	if err != nil {
		return nil, err
	}
	res, err := rig.run(r.seed, warm, r.seconds, nil)
	if err != nil {
		rig.close()
		return nil, err
	}
	heapMB := res.heapMB - closedHeapMB(rig.close, rig.c)
	tps, cpuUs := res.tps, res.cpuUs
	reportDist("backfill_s (one full-archive job)", "s", res.jobSecs)
	reportDist("range_query_ms (one stream, 10 s window)", "ms", res.latency)
	report("tuples_per_s=%.1f archive tuples evaluated per second (median job cycle); cpu_us_per_tuple=%.3f over %d tuples; heap_live_mb=%.2f",
		tps, cpuUs, res.tuples, heapMB)
	reportChecks(res.detections, res.mismatched, res.jobs*archiveStreams+res.queries, "streams and windows", res.failed, res.jobs+res.queries, "jobs and queries")
	return &result{
		Correct:   res.mismatched == 0,
		Attempted: res.jobs + res.queries,
		Failed:    res.failed,
		Metrics:   e2e(setupS, tps, cpuUs, heapMB),
	}, nil
}

func (r *run) archiveTraced(dir string) (*result, error) {
	tr := newTracer()
	c, err := archiveCorpus(r.seed, tr)
	if err != nil {
		return nil, err
	}
	rig, err := setupArchive(c, archiveBackends, archiveStreams, dir)
	if err != nil {
		return nil, err
	}
	defer rig.close()
	res0, err := rig.run(r.seed, warm, r.half(), nil)
	if err != nil {
		return nil, err
	}
	res1, err := rig.run(r.seed, warm, r.half(), tr)
	if err != nil {
		return nil, err
	}
	L := map[string]float64{
		"store.append_ns":          rig.appendNs,
		"cluster.tuple_skew":       res1.skew,
		"cluster.backfill_retried": float64(res1.retried),
	}
	if err := storeLadder(c, rig.rootOf, rig.streams, L); err != nil {
		return nil, err
	}
	detectNs, err := liveProbe(c, r.seed, r.dir, L)
	if err != nil {
		return nil, err
	}
	if err := serveProbe(c, L); err != nil {
		return nil, err
	}
	cpu0 := float64(res0.win.cpu) / float64(res0.tuples)
	cpu1 := float64(res1.win.cpu) / float64(res1.tuples)
	if err := r.finishTrace(L, c, tr, traced{cpu0, cpu1, detectNs, false, res0.win, res0.tuples}); err != nil {
		return nil, err
	}
	return &result{
		Correct:   res0.mismatched+res1.mismatched == 0,
		Attempted: res0.jobs + res0.queries + res1.jobs + res1.queries,
		Failed:    res0.failed + res1.failed,
		Metrics:   perLayer(L),
	}, nil
}
