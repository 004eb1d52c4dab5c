package main

import (
	"reflect"
	"testing"
	"time"

	"gesturecep/internal/anduin"
)

var smallSpec = recordingSpec{count: 2, frames: 90, idle: 500 * time.Millisecond}

func TestSeedDeterminesInputsAndSchedule(t *testing.T) {
	build := func(seed int64) (*corpus, *loadPlan) {
		c, err := buildCorpus(seed, 1, smallSpec, nil)
		if err != nil {
			t.Fatal(err)
		}
		return c, planLoad(seed, 6, len(c.recs), smallSpec.frames, 2)
	}
	a, pa := build(5)
	b, pb := build(5)
	x, px := build(6)
	for i := range a.recs {
		if !reflect.DeepEqual(a.recs[i].tuples, b.recs[i].tuples) {
			t.Errorf("recording %d differs between two builds from seed 5", i)
		}
		if reflect.DeepEqual(a.recs[i].tuples, x.recs[i].tuples) {
			t.Errorf("recording %d is the same for seeds 5 and 6", i)
		}
	}
	for i := range a.plans {
		if a.plans[i].Text != b.plans[i].Text {
			t.Errorf("plan %d differs between two builds from seed 5", i)
		}
	}
	if !reflect.DeepEqual(pa, pb) {
		t.Error("schedule differs between two builds from seed 5")
	}
	if reflect.DeepEqual(pa.phase, px.phase) {
		t.Error("schedule is the same for seeds 5 and 6")
	}
}

func TestHighestTailNeedsTenBeyond(t *testing.T) {
	samples := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	for _, tc := range []struct {
		n      int
		label  string
		value  float64
		beyond int
	}{
		{1000, "p99", 990, 10},
		{999, "p90", 900, 99},
		{100, "p90", 90, 10},
		{99, "p50", 50, 49},
	} {
		got, ok := highestTail(samples(tc.n))
		if !ok || got.Label != tc.label || got.Value != tc.value || got.Beyond != tc.beyond {
			t.Errorf("n=%d: got %+v (ok=%v), want %s=%g with %d beyond", tc.n, got, ok, tc.label, tc.value, tc.beyond)
		}
	}
	if got, ok := highestTail(samples(19)); ok {
		t.Errorf("n=19: got %+v, want no percentile with ten samples beyond", got)
	}
}

// A sink that stalls on the first send delays the sends behind it; their
// latency must be counted from when they were due, not from when the
// stalled generator got round to sending them.
func TestStalledSinkCountsFromDueTime(t *testing.T) {
	c, err := buildCorpus(1, 1, smallSpec, nil)
	if err != nil {
		t.Fatal(err)
	}
	const frames, stall = 6, 120 * time.Millisecond
	rig := &liveRig{
		opts:     liveOpts{frames: frames},
		plan:     planLoad(1, 1, 1, frames, 1),
		sessions: []*liveSession{{rec: c.recs[0]}},
		lat:      make([][]float64, 1),
		arrivals: make([]*spanLog, 1),
	}
	hook := rig.onDetection(0, 0)
	t0 := time.Now()
	rig.t0.Store(t0.UnixNano())
	rig.warmEnd.Store(t0.UnixNano())
	var sendToArrival []time.Duration
	sendLoop(rig.plan.senders[0], t0, func(e schedEntry) error {
		if e.frame == 0 {
			time.Sleep(stall)
		}
		return nil
	}, func(e schedEntry, start, end time.Time, err error) {
		// The sink answers every frame with a detection ending on it.
		hook(anduin.Detection{End: c.recs[0].tuples[e.frame].Ts})
		sendToArrival = append(sendToArrival, time.Since(start))
	})
	if len(rig.lat[0]) != frames {
		t.Fatalf("got %d latency samples, want %d", len(rig.lat[0]), frames)
	}
	// Frame 1 was due one period after frame 0 but sent after the stall.
	want := stall - rig.plan.due(0, 1) + rig.plan.due(0, 0)
	if got := time.Duration(rig.lat[0][1] * 1e6); got < want {
		t.Errorf("frame 1 latency %v, want at least %v (stall minus one period)", got, want)
	}
	if sendToArrival[1] > want/2 {
		t.Errorf("frame 1 send to arrival took %v; the test needs it short", sendToArrival[1])
	}
}
