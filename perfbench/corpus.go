package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"gesturecep/internal/anduin"
	"gesturecep/internal/kinect"
	"gesturecep/internal/learn"
	"gesturecep/internal/serve"
	"gesturecep/internal/stream"
	"gesturecep/internal/transform"
	"gesturecep/internal/wire"
)

// epoch is the event-time origin of every synthesized stream.
var epoch = time.Date(2014, 3, 24, 10, 0, 0, 0, time.UTC)

// profiles are the three body shapes trainers and players rotate through:
// the §3.2 transform must make their gestures look alike.
var profiles = []kinect.Profile{kinect.DefaultProfile(), kinect.ChildProfile(), kinect.TallProfile()}

// recording is one synthesized user session and its reference detections:
// what the bare engine, deploying the corpus plans, finds in its tuples.
type recording struct {
	tuples  []stream.Tuple
	refWire []byte
	// frameOf maps a tuple's event time to its index, so a detection's End
	// names the frame whose arrival completed it.
	frameOf map[int64]int
}

// corpus is a workload's program input: learned plans in a registry, and
// the recordings sessions replay.
type corpus struct {
	reg   *serve.Registry
	plans []*anduin.Plan // registry order, the order sessions deploy them
	recs  []*recording

	learnDur   time.Duration // spent in learn.Learn
	compileDur time.Duration // spent in Registry.Register
}

// recordingSpec shapes a pool of synthesized recordings.
type recordingSpec struct {
	count  int           // recordings in the pool
	frames int           // frames per recording (30 per second)
	idle   time.Duration // mean idle time between two gestures
}

// buildCorpus learns gestures × trainers plans and synthesizes the
// recordings, with each recording's reference detections. All of it is
// derived from seed.
func buildCorpus(seed int64, trainers int, spec recordingSpec, tr *tracer) (*corpus, error) {
	c := &corpus{reg: serve.NewRegistry()}
	gestures := kinect.DemoGestureNames()
	for t := 0; t < trainers; t++ {
		for gi, g := range gestures {
			sim, err := kinect.NewSimulator(profiles[t%len(profiles)], kinect.DefaultNoise(), seed*7919+int64(t*101+gi))
			if err != nil {
				return nil, err
			}
			samples, err := sim.Samples(kinect.StandardGestures()[g], 3, epoch, kinect.PerformOpts{PathJitter: 25})
			if err != nil {
				return nil, err
			}
			sp := tr.begin("learn.learn", uint64(t*len(gestures)+gi))
			start := time.Now()
			res, err := learn.Learn(g, samples, learn.DefaultConfig())
			c.learnDur += time.Since(start)
			tr.end(sp)
			if err != nil {
				return nil, fmt.Errorf("learning %s from trainer %d: %w", g, t, err)
			}
			sp = tr.begin("anduin.compile", uint64(t*len(gestures)+gi))
			start = time.Now()
			_, err = c.reg.Register(fmt.Sprintf("%s.t%d", g, t), res.QueryText)
			c.compileDur += time.Since(start)
			tr.end(sp)
			if err != nil {
				return nil, err
			}
		}
	}
	plans, err := c.reg.Resolve()
	if err != nil {
		return nil, err
	}
	c.plans = plans

	rng := rand.New(rand.NewSource(seed))
	for r := 0; r < spec.count; r++ {
		tuples, err := synthesize(rng.Int63(), profiles[r%len(profiles)], gestures, spec)
		if err != nil {
			return nil, err
		}
		rec := &recording{tuples: tuples, frameOf: make(map[int64]int, len(tuples))}
		for i, t := range tuples {
			rec.frameOf[t.Ts.UnixNano()] = i
		}
		ref, err := bareDetections(c.plans, tuples)
		if err != nil {
			return nil, err
		}
		if rec.refWire, err = encodeDetections(ref); err != nil {
			return nil, err
		}
		c.recs = append(c.recs, rec)
	}
	return c, nil
}

// synthesize plays one user performing random gestures separated by idle
// spells, cut to exactly spec.frames frames.
func synthesize(seed int64, profile kinect.Profile, gestures []string, spec recordingSpec) ([]stream.Tuple, error) {
	rng := rand.New(rand.NewSource(seed))
	sim, err := kinect.NewSimulator(profile, kinect.DefaultNoise(), rng.Int63())
	if err != nil {
		return nil, err
	}
	var frames []kinect.Frame
	ts := epoch
	for len(frames) < spec.frames {
		// Idle spells vary between half and one and a half times the mean.
		idle := spec.idle/2 + time.Duration(rng.Int63n(int64(spec.idle)+1))
		sess, err := sim.RunScript([]kinect.ScriptItem{
			{Idle: idle},
			{Gesture: gestures[rng.Intn(len(gestures))], Opts: kinect.PerformOpts{PathJitter: 15}},
		}, ts, nil)
		if err != nil {
			return nil, err
		}
		frames = append(frames, sess.Frames...)
		ts = frames[len(frames)-1].Ts.Add(kinect.FramePeriod)
	}
	return kinect.ToTuples(frames[:spec.frames]), nil
}

// bareDetections is the reference semantics: one standalone engine, the
// plans deployed in registry order, the tuples replayed in order.
func bareDetections(plans []*anduin.Plan, tuples []stream.Tuple) ([]anduin.Detection, error) {
	engine := anduin.New()
	raw, _, err := engine.KinectPipeline(transform.DefaultConfig())
	if err != nil {
		return nil, err
	}
	var out []anduin.Detection
	engine.Subscribe(func(d anduin.Detection) { out = append(out, d) })
	for _, p := range plans {
		if _, err := engine.DeployPlan(p); err != nil {
			return nil, err
		}
	}
	if err := stream.Replay(raw, tuples); err != nil {
		return nil, err
	}
	return out, nil
}

// encodeDetections canonicalizes detections to wire bytes, so lists from
// different paths compare byte for byte.
func encodeDetections(dets []anduin.Detection) ([]byte, error) {
	var buf []byte
	for len(dets) > 0 {
		n := min(len(dets), wire.MaxDetections)
		var err error
		if buf, err = wire.AppendDetections(buf, 0, 0, dets[:n]); err != nil {
			return nil, err
		}
		dets = dets[n:]
	}
	return buf, nil
}

// sameDetections reports whether got encodes to exactly want.
func sameDetections(got []anduin.Detection, want []byte) (bool, error) {
	b, err := encodeDetections(got)
	if err != nil {
		return false, err
	}
	return bytes.Equal(b, want), nil
}
