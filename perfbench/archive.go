package main

import (
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sort"
	"time"

	"gesturecep/internal/anduin"
	"gesturecep/internal/cluster"
	"gesturecep/internal/store"
	"gesturecep/internal/wire"
)

// archiveRig is a fleet whose backends serve offline backfills from their
// archives, behind a gateway that fans jobs out and merges the results.
type archiveRig struct {
	c        *corpus
	dir      string
	roots    []string
	sp       *cluster.Spawner
	gw       *cluster.Gateway
	served   chan error
	streams  []string // sorted, the order a fleet backfill returns them in
	recOf    map[string]*recording
	root     map[string]string // stream -> archive root holding it
	appendNs float64
}

func (rig *archiveRig) rootOf(stream string) string { return rig.root[stream] }

// setupArchive starts the fleet and writes `streams` recorded streams into
// the archive of the backend the ring names for each, so a job finds every
// stream where it looks first.
func setupArchive(c *corpus, backends, streams int, dir string) (rig *archiveRig, err error) {
	rig = &archiveRig{c: c, dir: dir, recOf: make(map[string]*recording), root: make(map[string]string)}
	defer func() {
		if err != nil {
			rig.close()
		}
	}()
	archives := make(map[string]*store.Archive, backends)
	for i := 0; i < backends; i++ {
		root := filepath.Join(dir, cluster.BackendID(i))
		if err := os.MkdirAll(root, 0o755); err != nil {
			return rig, err
		}
		rig.roots = append(rig.roots, root)
		archives[cluster.BackendID(i)] = store.NewArchive(root, store.Options{}, 0)
	}
	rig.sp, err = cluster.Spawn(backends, c.reg, cluster.SpawnOptions{
		Backfill: func(backendID string) wire.BackfillFunc {
			return store.NewWireBackfillSource(c.reg, archives[backendID].OpenReader)
		},
	})
	if err != nil {
		return rig, err
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

	rootOf := make(map[string]string, backends)
	for i := 0; i < backends; i++ {
		rootOf[cluster.BackendID(i)] = rig.roots[i]
	}
	rig.appendNs, err = writeStreams(c, streams, func(i int) (string, string) {
		name := fmt.Sprintf("stream-%02d", i)
		rig.streams = append(rig.streams, name)
		rig.recOf[name] = c.recs[i%len(c.recs)]
		id, _ := rig.gw.Ring().Lookup(name)
		rig.root[name] = rootOf[id]
		return name, rootOf[id]
	})
	sort.Strings(rig.streams)
	return rig, err
}

func (rig *archiveRig) close() {
	if rig.gw != nil {
		rig.gw.Close()
		if rig.served != nil {
			<-rig.served
		}
	}
	if rig.sp != nil {
		rig.sp.Close()
	}
	os.RemoveAll(rig.dir)
}

// rangeWindow is the span a range query asks for.
const rangeWindow = 10 * time.Second

// rangeQuery is one issued single-stream window query and its answer.
type rangeQuery struct {
	stream string
	since  time.Time
	dets   []anduin.Detection
}

// archiveResult is one measured archive-backfill run.
type archiveResult struct {
	tuples        int // archive tuples evaluated in the window
	jobs, queries int // issued in the whole run
	failed        int
	mismatched    int
	detections    int
	jobSecs       dist
	latency       dist // range query latency, ms
	win           *window
	tps, cpuUs    float64 // medians over job cycles
	heapMB        float64
	retried       int
	skew          float64
}

// queriesPerJob interleaves this many range queries after every full job.
const queriesPerJob = 16

// run issues full-archive jobs, each followed by queriesPerJob range
// queries at seeded streams and offsets, until the deadline, and checks
// every answer against the reference. A window's reference needs the bare
// engine, so range answers are checked after the window closes.
func (rig *archiveRig) run(seed int64, warm, measure time.Duration, tr *tracer) (*archiveResult, error) {
	res := &archiveResult{}
	rng := rand.New(rand.NewSource(seed))
	span := rig.c.recs[0].tuples[len(rig.c.recs[0].tuples)-1].Ts.Sub(rig.c.recs[0].tuples[0].Ts)
	maxOffset := int64((span - rangeWindow) / time.Second)

	var queries []rangeQuery
	var jobSecs, qms []float64
	start := time.Now()
	warmEnd, deadline := start.Add(warm), start.Add(warm+measure)
	var win *window
	// One reading per job cycle (a job and its range queries): the rates
	// reported are the median cycle's.
	var marks []progress
	done := func() int64 { return int64(res.tuples) }
	for job := 0; win == nil || time.Now().Before(deadline); job++ {
		in := !time.Now().Before(warmEnd)
		if in && win == nil {
			win = startWindow()
		}
		if in {
			marks = append(marks, readProgress(done))
		}
		sp := tr.begin("cluster.backfill", uint64(job))
		t := time.Now()
		r, err := rig.gw.Backfill(cluster.BackfillSpec{Streams: rig.streams})
		d := time.Since(t)
		tr.end(sp)
		if err != nil || len(r.Missing) > 0 {
			res.failed++
		} else {
			// Checked at once (the references are precomputed), so the
			// heap the run measures holds no job results.
			for i, name := range rig.streams {
				res.detections += len(r.Detections[i])
				if ok, err := sameDetections(r.Detections[i], rig.recOf[name].refWire); err != nil || !ok {
					res.mismatched++
				}
			}
			res.retried += r.Retried
			res.skew = partitionSkew(r.Partitions)
		}
		res.jobs++
		if in && r != nil {
			res.tuples += int(r.Tuples)
			jobSecs = append(jobSecs, d.Seconds())
		}
		for q := 0; q < queriesPerJob; q++ {
			name := rig.streams[rng.Intn(len(rig.streams))]
			since := rig.recOf[name].tuples[0].Ts.Add(time.Duration(rng.Int63n(maxOffset+1)) * time.Second)
			sp := tr.begin("cluster.range", uint64(job*queriesPerJob+q))
			t := time.Now()
			r, err := rig.gw.Backfill(cluster.BackfillSpec{Streams: []string{name}, Since: since, Until: since.Add(rangeWindow)})
			d := time.Since(t)
			tr.end(sp)
			res.queries++
			if err != nil || len(r.Missing) > 0 {
				res.failed++
				continue
			}
			queries = append(queries, rangeQuery{stream: name, since: since, dets: r.Detections[0]})
			if in {
				res.tuples += int(r.Tuples)
				qms = append(qms, float64(d)/1e6)
			}
		}
	}
	win.stop()
	res.win = win
	res.tps, res.cpuUs = sliceRates(append(marks, readProgress(done)))
	res.heapMB = heapLiveMB()
	res.jobSecs, res.latency = summarize(jobSecs), summarize(qms)

	// A window's reference is the bare engine over just the window's tuples.
	refs := make(map[string][]byte)
	for _, q := range queries {
		res.detections += len(q.dets)
		rec := rig.recOf[q.stream]
		key := fmt.Sprintf("%p/%d", rec, q.since.UnixNano())
		want, ok := refs[key]
		if !ok {
			lo := sort.Search(len(rec.tuples), func(i int) bool { return !rec.tuples[i].Ts.Before(q.since) })
			until := q.since.Add(rangeWindow)
			hi := sort.Search(len(rec.tuples), func(i int) bool { return !rec.tuples[i].Ts.Before(until) })
			dets, err := bareDetections(rig.c.plans, rec.tuples[lo:hi])
			if err != nil {
				return nil, err
			}
			if want, err = encodeDetections(dets); err != nil {
				return nil, err
			}
			refs[key] = want
		}
		if ok, err := sameDetections(q.dets, want); err != nil || !ok {
			res.mismatched++
		}
	}
	return res, nil
}

// partitionSkew is max ÷ min streams per backend in one job (every stream
// holds the same number of tuples).
func partitionSkew(parts map[string][]string) float64 {
	lo, hi := -1, 0
	for _, streams := range parts {
		n := len(streams)
		if lo < 0 || n < lo {
			lo = n
		}
		hi = max(hi, n)
	}
	if lo <= 0 {
		return 0
	}
	return float64(hi) / float64(lo)
}
