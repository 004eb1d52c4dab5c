package gesture

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"sync"
	"testing"
	"time"

	"gesturecep/internal/anduin"
	"gesturecep/internal/kinect"
	"gesturecep/internal/learn"
	"gesturecep/internal/stream"
	"gesturecep/internal/transform"
	"gesturecep/internal/wire"
)

// busyStream is the engine workload of a busy live session: eight learned
// gesture plans (one trainer per demo gesture) over a recording in which a
// child performs a random gesture about every half second. Unlike the idle
// input of BenchmarkNFAProcessTuple, it keeps partial matches alive on
// every plan, so window expiry runs on every tuple.
type busyStream struct {
	plans []*anduin.Plan
	raw   []stream.Tuple // the recording as the raw kinect stream sees it
	view  []stream.Tuple // the same tuples after the §3.2 transform
}

// busyFrames is the recording length: one minute at 30 fps.
const busyFrames = 60 * kinect.FrameRate

var (
	busyOnce sync.Once
	busyFix  *busyStream
	busyErr  error
)

// loadBusyStream builds the fixture once per test binary; it is fully
// determined by its fixed seeds.
func loadBusyStream(tb testing.TB) *busyStream {
	tb.Helper()
	busyOnce.Do(func() { busyFix, busyErr = newBusyStream() })
	if busyErr != nil {
		tb.Fatal(busyErr)
	}
	return busyFix
}

func newBusyStream() (*busyStream, error) {
	fx := &busyStream{}
	env := anduin.NewPlanEnv()
	gestures := kinect.DemoGestureNames()
	for gi, g := range gestures {
		sim, err := kinect.NewSimulator(kinect.DefaultProfile(), kinect.DefaultNoise(), int64(1+gi))
		if err != nil {
			return nil, err
		}
		samples, err := sim.Samples(kinect.StandardGestures()[g], 3, benchTime(), kinect.PerformOpts{PathJitter: 25})
		if err != nil {
			return nil, err
		}
		res, err := learn.Learn(g, samples, learn.DefaultConfig())
		if err != nil {
			return nil, err
		}
		p, err := anduin.CompilePlanText(res.QueryText, env)
		if err != nil {
			return nil, err
		}
		fx.plans = append(fx.plans, p)
	}

	rng := rand.New(rand.NewSource(7))
	player, err := kinect.NewSimulator(kinect.ChildProfile(), kinect.DefaultNoise(), 7)
	if err != nil {
		return nil, err
	}
	var frames []kinect.Frame
	ts := benchTime().Add(time.Hour)
	for len(frames) < busyFrames {
		// Idle spells of 250–750 ms between gestures.
		idle := 250*time.Millisecond + time.Duration(rng.Int63n(int64(500*time.Millisecond)+1))
		sess, err := player.RunScript([]kinect.ScriptItem{
			{Idle: idle},
			{Gesture: gestures[rng.Intn(len(gestures))], Opts: kinect.PerformOpts{PathJitter: 15}},
		}, ts, nil)
		if err != nil {
			return nil, err
		}
		frames = append(frames, sess.Frames...)
		ts = frames[len(frames)-1].Ts.Add(kinect.FramePeriod)
	}
	fx.raw = kinect.ToTuples(frames[:busyFrames])

	tr, err := transform.New(transform.DefaultConfig())
	if err != nil {
		return nil, err
	}
	for _, t := range fx.raw {
		v, ok := tr.Tuple(t)
		if ok {
			fx.view = append(fx.view, v)
		}
	}
	return fx, nil
}

// TestBusyStreamPinned pins the engine's observable work on the busy stream:
// every plan's NFA counters and the wire encoding of every detection must
// equal constants recorded with the time.Time-based NFA, before event time
// inside it became int64 nanoseconds. An engine optimisation that changes
// any of them changed behaviour, not just cost.
func TestBusyStreamPinned(t *testing.T) {
	fx := loadBusyStream(t)
	engine := anduin.New()
	raw, _, err := engine.KinectPipeline(transform.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var dets []anduin.Detection
	engine.Subscribe(func(d anduin.Detection) { dets = append(dets, d) })
	ids := make([]int, len(fx.plans))
	for i, p := range fx.plans {
		if ids[i], err = engine.DeployPlan(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := stream.Replay(raw, fx.raw); err != nil {
		t.Fatal(err)
	}

	// processed, predCalls, matches, pruned per plan, in DemoGestureNames
	// order.
	wantStats := [][4]uint64{
		{1800, 4619, 2, 55},
		{1800, 4017, 2, 35},
		{1800, 4311, 2, 45},
		{1800, 4284, 1, 63},
		{1800, 6070, 2, 112},
		{1800, 5731, 4, 56},
		{1800, 18491, 4, 163},
		{1800, 16209, 3, 400},
	}
	for i, id := range ids {
		processed, predCalls, matches, pruned, err := engine.QueryStats(id)
		if err != nil {
			t.Fatal(err)
		}
		if got := [4]uint64{processed, predCalls, matches, pruned}; got != wantStats[i] {
			t.Errorf("%s: stats (processed, predCalls, matches, pruned) = %v, want %v", fx.plans[i].Gesture, got, wantStats[i])
		}
	}

	const (
		wantDetections = 20
		wantSHA256     = "fd61d50b816d4e0461083602380933395195e67804b0f84f1aced0f023ff7c1f"
	)
	enc, err := wire.AppendDetections(nil, 0, 0, dets)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(enc)
	if len(dets) != wantDetections || hex.EncodeToString(sum[:]) != wantSHA256 {
		t.Errorf("detections: %d encoding to sha256 %x, want %d encoding to %s", len(dets), sum, wantDetections, wantSHA256)
	}
}
