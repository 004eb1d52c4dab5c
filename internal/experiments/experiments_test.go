package experiments

import (
	"strconv"
	"strings"
	"testing"
)

// These tests run each experiment end-to-end at small scale and assert the
// qualitative shape the paper claims — they are the executable version of
// the experiment list in this package's documentation.

func parseF(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "x"), 64)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return v
}

func TestE1SwipeRight(t *testing.T) {
	tab, queryText, err := E1SwipeRight(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) < 2 {
		t.Fatalf("E1 windows = %d", len(tab.Rows))
	}
	if !strings.Contains(queryText, `SELECT "swipe_right"`) {
		t.Error("query text wrong")
	}
	// Detection note must report full recall (TP>=1, FN=0).
	joined := strings.Join(tab.Notes, " ")
	if !strings.Contains(joined, "FN=0") {
		t.Errorf("E1 notes: %v", tab.Notes)
	}
	if tab.String() == "" {
		t.Error("empty render")
	}
}

func TestE1Trace(t *testing.T) {
	tab, err := E1Trace(1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 10 {
		t.Errorf("trace rows = %d", len(tab.Rows))
	}
}

func TestE2SampleEfficiency(t *testing.T) {
	tab, err := E2SampleEfficiency(5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// The paper's claim: by 3-5 samples the result is acceptable. Require
	// the mean F1 at >=3 samples to be at least 0.8 and no worse than at 1
	// sample.
	meanAt := func(row int) float64 { return parseF(t, tab.Rows[row][3]) }
	if meanAt(2) < 0.8 || meanAt(3) < 0.8 || meanAt(4) < 0.8 {
		t.Errorf("F1 at 3-5 samples below 0.8: %v", tab.Rows)
	}
}

func TestE3TransformAblation(t *testing.T) {
	tab, err := E3TransformAblation(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Row 0 = full config: recall ≈ 1 for every user.
	for col := 1; col <= 3; col++ {
		if parseF(t, tab.Rows[0][col]) < 0.99 {
			t.Errorf("full transform recall[%d] = %s", col, tab.Rows[0][col])
		}
	}
	// no-shift breaks the child user (different stand-off position).
	if parseF(t, tab.Rows[1][2]) > 0.5 {
		t.Errorf("no-shift should break the child user: %v", tab.Rows[1])
	}
	// no-scale breaks the child user (different body size).
	if parseF(t, tab.Rows[3][2]) > 0.5 {
		t.Errorf("no-scale should break the child user: %v", tab.Rows[3])
	}
	// none breaks everyone except possibly the adult at the same spot —
	// but the adult profile IS the training profile, and without shift the
	// camera offset still matches, so just require child broken.
	if parseF(t, tab.Rows[4][2]) > 0.5 {
		t.Errorf("no transform should break the child user: %v", tab.Rows[4])
	}
}

func TestE4MaxDistSweep(t *testing.T) {
	tab, err := E4MaxDistSweep(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 7 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Window count decreases monotonically as the fraction grows.
	prev := 1 << 30
	for _, r := range tab.Rows {
		poses, _ := strconv.Atoi(r[1])
		if poses > prev {
			t.Errorf("window count not monotone: %v", tab.Rows)
			break
		}
		prev = poses
	}
	// The default fraction (0.22) achieves F1 >= 0.8.
	for _, r := range tab.Rows {
		if r[0] == "0.22" && parseF(t, r[2]) < 0.8 {
			t.Errorf("default fraction F1 = %s", r[2])
		}
	}
}

func TestE5ScalingOverlap(t *testing.T) {
	tab, err := E5ScalingOverlap(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	first, last := tab.Rows[0], tab.Rows[len(tab.Rows)-1]
	fpFirst, _ := strconv.Atoi(first[3])
	fpLast, _ := strconv.Atoi(last[3])
	if fpLast <= fpFirst {
		t.Errorf("expected cross-detections to grow with scaling: first=%d last=%d", fpFirst, fpLast)
	}
	// Static overlap analysis flags the conflict at high scale.
	ovLast, _ := strconv.Atoi(last[4])
	if ovLast == 0 {
		t.Error("validation found no overlaps at extreme scaling")
	}
}

func TestE6EngineThroughput(t *testing.T) {
	tab, err := E6EngineThroughput(6)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 7 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Even at 64 queries the engine must beat 30 Hz comfortably.
	last := tab.Rows[len(tab.Rows)-1]
	if tps := parseF(t, last[1]); tps < 300 {
		t.Errorf("64-query throughput = %s tuples/s", last[1])
	}
}

func TestE7Optimization(t *testing.T) {
	tab, err := E7Optimization(7)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	posesOver, _ := strconv.Atoi(tab.Rows[0][1])
	posesMerged, _ := strconv.Atoi(tab.Rows[1][1])
	if posesMerged >= posesOver {
		t.Errorf("merging did not reduce poses: %v", tab.Rows)
	}
	// Merging must preserve detection quality.
	if parseF(t, tab.Rows[1][3]) < 0.9 {
		t.Errorf("merged F1 = %s", tab.Rows[1][3])
	}
	// Elimination keeps the gesture detectable (recall), though precision
	// may drop — that is the experiment's honest finding.
	if parseF(t, tab.Rows[2][3]) < 0.5 {
		t.Errorf("optimized F1 = %s", tab.Rows[2][3])
	}
}

func TestE8Baselines(t *testing.T) {
	tab, err := E8Baselines(8)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	if tab.Rows[0][0] != "paper-learner" {
		t.Errorf("row order: %v", tab.Rows)
	}
	// The paper pipeline reaches high F1 with 3 samples.
	if parseF(t, tab.Rows[0][1]) < 0.8 {
		t.Errorf("paper learner F1 = %s", tab.Rows[0][1])
	}
	// DTW classifies segmented samples well too (it's a strong classifier,
	// just not a stream detector).
	if !strings.HasPrefix(tab.Rows[2][0], "dtw") {
		t.Errorf("rows: %v", tab.Rows)
	}
}

func TestE9Recorder(t *testing.T) {
	tab, err := E9Recorder(9)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, r := range tab.Rows {
		gestures, _ := strconv.Atoi(r[1])
		covered, _ := strconv.Atoi(r[3])
		if covered < gestures {
			t.Errorf("noise %s: covered %d of %d gestures", r[0], covered, gestures)
		}
	}
}

func TestE10WindowMode(t *testing.T) {
	tab, err := E10WindowMode(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Raw centroid MBRs (row 0) must be clearly worse than scaled
	// centroids (row 1): the literal §3.3.2 reading depends on the
	// generalization step.
	if parseF(t, tab.Rows[0][4]) >= parseF(t, tab.Rows[1][4]) {
		t.Errorf("raw centroid windows unexpectedly competitive: %v", tab.Rows)
	}
	// Scaled variants of both modes reach F1 >= 0.9 across users.
	for _, row := range [][]string{tab.Rows[1], tab.Rows[4]} {
		if parseF(t, row[4]) < 0.9 {
			t.Errorf("scaled variant below 0.9: %v", row)
		}
	}
}
