package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gesturecep/internal/anduin"
	"gesturecep/internal/cluster"
	"gesturecep/internal/kinect"
	"gesturecep/internal/obs"
	"gesturecep/internal/serve"
	"gesturecep/internal/store"
	"gesturecep/internal/stream"
	"gesturecep/internal/wire"
)

// liveOpts shapes one live-gateway rig.
type liveOpts struct {
	sessions   int
	backends   int
	frames     int           // frames each session sends
	warm       time.Duration // leading part of the run left out of the figures
	traceEvery int           // wire trace sampling (0: untraced)
}

// liveSession is one attached user: its remote session, the recording it
// replays and the detections pushed back to it.
type liveSession struct {
	rs   *wire.RemoteSession
	rec  *recording
	want []byte // reference detections for the frames it sends
	dets []anduin.Detection
}

// liveRig is the serving topology users reach: a gateway in front of
// in-process backends, every backend session recorded into the backend's
// archive, and nproc client connections carrying the sessions.
type liveRig struct {
	c        *corpus
	opts     liveOpts
	dir      string
	archives []*store.Archive
	sp       *cluster.Spawner
	gw       *cluster.Gateway
	served   chan error
	clients  []*wire.Client
	sessions []*liveSession
	plan     *loadPlan
	ins      []*serve.Instruments

	attachMs []float64
	t0       atomic.Int64 // run start, unix ns; set before the first send
	warmEnd  atomic.Int64
	lat      [][]float64 // per client: detection latency from due time, ms
	arrivals []*spanLog  // per client: detection arrival spans
}

// setupLive builds the rig and attaches every session. Phases and
// recordings per session come from seed.
func setupLive(c *corpus, opts liveOpts, seed int64, dir string, tr *tracer) (rig *liveRig, err error) {
	rig = &liveRig{c: c, opts: opts, dir: dir}
	defer func() {
		if err != nil {
			rig.close()
		}
	}()
	nc := runtime.NumCPU()
	rig.plan = planLoad(seed, opts.sessions, len(c.recs), opts.frames, nc)
	wants := make(map[*recording][]byte)
	for _, rec := range c.recs {
		if wants[rec], err = refPrefix(c, rec, opts.frames); err != nil {
			return rig, err
		}
	}

	rig.archives = make([]*store.Archive, opts.backends)
	for i := range rig.archives {
		root := filepath.Join(dir, cluster.BackendID(i))
		if err := os.MkdirAll(root, 0o755); err != nil {
			return rig, err
		}
		rig.archives[i] = store.NewArchive(root, store.Options{}, 0)
	}
	archiveOf := make(map[string]*store.Archive, opts.backends)
	for i, a := range rig.archives {
		archiveOf[cluster.BackendID(i)] = a
	}
	rig.sp, err = cluster.Spawn(opts.backends, c.reg, cluster.SpawnOptions{
		TapSessions: func(backendID string) func(string) (func(stream.Tuple), func(bool), error) {
			arch := archiveOf[backendID]
			return func(sessionID string) (func(stream.Tuple), func(bool), error) {
				rec, err := arch.Record(sessionID, kinect.Schema())
				if err != nil {
					return nil, nil, err
				}
				return rec.Tap(), func(aborted bool) {
					if aborted {
						arch.Abort(rec)
					} else {
						arch.Release(rec)
					}
				}, nil
			}
		},
	})
	if err != nil {
		return rig, err
	}
	if opts.traceEvery > 0 {
		for i := 0; i < opts.backends; i++ {
			ins := serve.NewInstruments()
			rig.sp.Manager(i).SetInstruments(ins)
			rig.ins = append(rig.ins, ins)
		}
	}
	rig.gw, err = cluster.NewGateway(cluster.Config{Backends: rig.sp.Backends(), Name: "perfbench"})
	if err != nil {
		return rig, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return rig, err
	}
	rig.served = make(chan error, 1)
	go func() { rig.served <- rig.gw.Serve(ln) }()

	rig.lat = make([][]float64, nc)
	for k := 0; k < nc; k++ {
		cl, err := wire.Dial(ln.Addr().String())
		if err != nil {
			return rig, err
		}
		if opts.traceEvery > 0 {
			cl.FlushRTT = obs.NewHistogram()
		}
		rig.clients = append(rig.clients, cl)
		rig.arrivals = append(rig.arrivals, tr.log())
	}

	rig.sessions = make([]*liveSession, opts.sessions)
	for s := range rig.sessions {
		rec := c.recs[rig.plan.recOf[s]]
		rig.sessions[s] = &liveSession{rec: rec, want: wants[rec]}
	}
	// Each client attaches its own sessions, the clients in parallel.
	var wg sync.WaitGroup
	errs := make([]error, nc)
	attach := make([][]float64, nc)
	for k := 0; k < nc; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for s := k; s < opts.sessions; s += nc {
				start := time.Now()
				rs, err := rig.clients[k].Attach(fmt.Sprintf("user-%04d", s), wire.AttachOptions{
					BatchSize:   1,
					Discard:     true,
					TraceEvery:  opts.traceEvery,
					OnDetection: rig.onDetection(k, s),
				})
				if err != nil {
					errs[k] = fmt.Errorf("attach session %d: %w", s, err)
					return
				}
				attach[k] = append(attach[k], float64(time.Since(start))/1e6)
				rig.sessions[s].rs = rs
			}
		}(k)
	}
	wg.Wait()
	for k := range errs {
		if errs[k] != nil {
			return rig, errs[k]
		}
		rig.attachMs = append(rig.attachMs, attach[k]...)
	}
	return rig, nil
}

// refPrefix is the reference detection encoding for the first n frames of
// a recording.
func refPrefix(c *corpus, rec *recording, n int) ([]byte, error) {
	if n == len(rec.tuples) {
		return rec.refWire, nil
	}
	dets, err := bareDetections(c.plans, rec.tuples[:n])
	if err != nil {
		return nil, err
	}
	return encodeDetections(dets)
}

// onDetection returns session s's detection hook. It runs on client k's
// read goroutine, the only writer of that client's latency samples.
func (rig *liveRig) onDetection(k, s int) func(anduin.Detection) {
	return func(d anduin.Detection) {
		arrival := time.Now().UnixNano()
		ls := rig.sessions[s]
		ls.dets = append(ls.dets, d)
		f, ok := ls.rec.frameOf[d.End.UnixNano()]
		if !ok {
			return // not a frame of the recording: the check reports it
		}
		due := rig.t0.Load() + int64(rig.plan.due(s, f))
		if due >= rig.warmEnd.Load() {
			rig.lat[k] = append(rig.lat[k], float64(arrival-due)/1e6)
		}
		rig.arrivals[k].add(0, "wire.detection", frameSpanID(s, f, rig.opts.frames), reqID(s, f), arrival, arrival)
	}
}

// liveResult is one measured live-gateway run.
type liveResult struct {
	tuples, window   int // tuples sent in the run and in the measured window
	failed           int // refused sends plus server-side drops and losses
	mismatched       int // sessions whose detections differ from the reference
	detections       int
	latency, sendLag dist
	win              *window
	tps, cpuUs       float64       // medians over the window's slices
	sendSpan         time.Duration // first to last send of the window
	heapMB           float64
	detectMeanNs     float64 // mean serve detect time of a traced tuple
	layer            map[string]float64
}

// run sends every session's frames on the open-loop schedule, flushes,
// and checks each session's detections against the reference.
func (rig *liveRig) run(tr *tracer) (*liveResult, error) {
	res := &liveResult{layer: make(map[string]float64)}
	t0 := time.Now().Add(20 * time.Millisecond)
	warmEnd := t0.Add(rig.opts.warm)
	rig.t0.Store(t0.UnixNano())
	rig.warmEnd.Store(warmEnd.UnixNano())

	nc := len(rig.clients)
	lags := make([][]float64, nc)
	refused := make([]int, nc)
	var sent atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < nc; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			log := tr.log()
			frames := rig.opts.frames
			sendLoop(rig.plan.senders[k], t0, func(e schedEntry) error {
				ls := rig.sessions[e.session]
				return ls.rs.FeedTuple(ls.rec.tuples[e.frame])
			}, func(e schedEntry, start, end time.Time, err error) {
				sent.Add(1)
				if err != nil {
					refused[k]++
				}
				due := t0.Add(e.due)
				if !due.Before(warmEnd) {
					lags[k] = append(lags[k], float64(start.Sub(due))/1e6)
				}
				if log != nil {
					s, f := int(e.session), int(e.frame)
					id := log.add(frameSpanID(s, f, frames), "gen.send", 0, reqID(s, f), due.UnixNano(), end.UnixNano())
					log.add(0, "wire.feed", id, reqID(s, f), start.UnixNano(), end.UnixNano())
				}
			})
		}(k)
	}

	stopSampling := sampleQueueDepth(rig.opts.traceEvery > 0, func() int {
		depth := 0
		for i := 0; i < rig.sp.Len(); i++ {
			depth += rig.sp.Manager(i).Metrics().QueueDepth
		}
		return depth
	}, res.layer)
	// Start the window from a collected heap, so the collector's cycles
	// fall at the same points of every run's window.
	time.Sleep(time.Until(warmEnd.Add(-time.Second)))
	runtime.GC()
	time.Sleep(time.Until(warmEnd))
	win := startWindow()
	span := time.Duration(rig.opts.frames)*kinect.FramePeriod - rig.opts.warm
	res.tps, res.cpuUs = sliceRates(sampleSlices(warmEnd, span, sent.Load))
	wg.Wait()

	// Flush every session; the flush reply follows every detection pushed
	// for the frames before it.
	dropped := make([]int, nc)
	flushErr := make([]error, nc)
	for k := 0; k < nc; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for s := k; s < len(rig.sessions); s += nc {
				counters, err := rig.sessions[s].rs.Flush()
				if err != nil {
					flushErr[k] = err
					return
				}
				dropped[k] += int(counters.Dropped)
			}
		}(k)
	}
	wg.Wait()
	win.stop()
	stopSampling()
	for k := 0; k < nc; k++ {
		if flushErr[k] != nil {
			return nil, fmt.Errorf("flush: %w", flushErr[k])
		}
	}
	res.heapMB = heapLiveMB()
	res.win = win

	var lat, lag []float64
	for k := 0; k < nc; k++ {
		lat = append(lat, rig.lat[k]...)
		lag = append(lag, lags[k]...)
		res.failed += refused[k] + dropped[k]
	}
	res.latency, res.sendLag = summarize(lat), summarize(lag)
	res.window = len(lag)
	res.tuples = len(rig.sessions) * rig.opts.frames
	m := rig.gw.Metrics()
	for _, b := range m.Backends {
		res.failed += int(b.Lost)
	}
	for _, ls := range rig.sessions {
		res.detections += len(ls.dets)
		ok, err := sameDetections(ls.dets, ls.want)
		if err != nil {
			return nil, err
		}
		if !ok {
			res.mismatched++
		}
	}
	if rig.opts.traceEvery > 0 {
		rig.layerMetrics(res, m, tr)
	}
	return res, nil
}

// layerMetrics reads the counters and samplers the program exports.
func (rig *liveRig) layerMetrics(res *liveResult, m serve.Metrics, tr *tracer) {
	L := res.layer
	if tr != nil {
		feeds := summarize(spanDurations(tr.all(), "wire.feed", time.Microsecond))
		L["wire.feed_us_p50"], L["wire.feed_us_p99"] = feeds.P50, feeds.P99
	}
	L["gen.send_lag_p50_ms"] = res.sendLag.P50
	L["gen.send_lag_p99_ms"] = res.sendLag.P99

	var rtt obs.HistSnapshot
	for _, cl := range rig.clients {
		rtt.Merge(cl.FlushRTT.Snapshot())
	}
	L["wire.flush_rtt_ms_p50"] = histQuantile(rtt, 0.5, time.Millisecond)
	L["wire.flush_rtt_ms_p99"] = histQuantile(rtt, 0.99, time.Millisecond)
	L["wire.attach_ms"] = median(append([]float64(nil), rig.attachMs...))

	// Per-backend forward histograms cannot be merged from their summaries;
	// the slowest backend's figure is the one a user waits on.
	for _, st := range rig.gw.ForwardStats() {
		L["cluster.forward_us_p50"] = max(L["cluster.forward_us_p50"], float64(st.P50)/1e3)
		L["cluster.forward_us_p99"] = max(L["cluster.forward_us_p99"], float64(st.P99)/1e3)
	}
	lo, hi := ^uint64(0), uint64(0)
	for _, b := range m.Backends {
		lo, hi = min(lo, b.Tuples), max(hi, b.Tuples)
		L["cluster.lost"] += float64(b.Lost)
	}
	if lo > 0 {
		L["cluster.tuple_skew"] = float64(hi) / float64(lo)
	}
	L["cluster.backfill_retried"] = 0 // this workload runs no backfill

	var qw, det, ing obs.HistSnapshot
	for _, ins := range rig.ins {
		qw.Merge(ins.QueueWait.Snapshot())
		det.Merge(ins.Detect.Snapshot())
		ing.Merge(ins.Ingest.Snapshot())
	}
	res.detectMeanNs = putServeInstruments(L, qw, det, ing)

	var st engineCounters
	var recorded, dropped uint64
	for s := range rig.sessions {
		id := fmt.Sprintf("user-%04d", s)
		for i := 0; i < rig.sp.Len(); i++ {
			if sess, ok := rig.sp.Manager(i).Session(id); ok {
				st.add(sess.Engine())
			}
			// Sync drains the tap's backlog, so the counts are final.
			if rec, ok := rig.archives[i].LiveRecorder(id); ok && rec.Sync() == nil {
				recorded += rec.Recorded()
				dropped += rec.Dropped()
			}
		}
	}
	st.put(L, res.tuples)
	L["store.tap_recorded"] = float64(recorded)
	L["store.tap_dropped"] = float64(dropped)
}

// close tears the rig down: clients, gateway, backends, archives.
func (rig *liveRig) close() {
	for _, cl := range rig.clients {
		cl.Close()
	}
	if rig.gw != nil {
		rig.gw.Close()
		if rig.served != nil {
			<-rig.served
		}
	}
	if rig.sp != nil {
		rig.sp.Close()
	}
	for _, a := range rig.archives {
		if a != nil {
			a.Close()
		}
	}
	os.RemoveAll(rig.dir)
}
