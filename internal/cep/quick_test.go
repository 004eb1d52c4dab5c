package cep

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"gesturecep/internal/stream"
)

// This file checks the NFA against a brute-force reference implementation
// on randomized inputs: for small tuple sequences, the number and timing of
// matches under `select first consume all` must equal the greedy
// left-to-right subsequence search, and under `select all consume none`
// every valid subsequence must be found. The nested-window checks further
// down cover the shape the learner emits: a left-nested sequence with a
// cumulative `within` on every level.

// bruteForceFirstConsumeAll mimics "select first consume all": repeatedly
// find the earliest-starting subsequence (indices strictly increasing, one
// tuple per state, within over the whole span), emit it, and resume the
// search strictly after the match's last tuple.
//
// "Earliest-starting" mirrors run-activation order in the NFA; for each
// candidate start, the remaining states match greedily at their earliest
// possible positions (skip-till-next-match).
func bruteForceFirstConsumeAll(values []float64, times []time.Time, preds []func(float64) bool, within time.Duration) []int {
	var matchEnds []int
	from := 0
	for {
		end := -1
		// Try candidate starts in order; the NFA keeps all partial runs,
		// so the match that completes first wins. Simulate: advance all
		// candidate runs greedily and take the one completing earliest,
		// breaking ties by earlier start.
		bestEnd := -1
		for s := from; s < len(values); s++ {
			if !preds[0](values[s]) {
				continue
			}
			idx := s
			ok := true
			for p := 1; p < len(preds); p++ {
				idx++
				for idx < len(values) {
					if preds[p](values[idx]) && times[idx].Sub(times[s]) <= within {
						break
					}
					// A run dies when its window can no longer be met.
					if times[idx].Sub(times[s]) > within {
						break
					}
					idx++
				}
				if idx >= len(values) || times[idx].Sub(times[s]) > within || !preds[p](values[idx]) {
					ok = false
					break
				}
			}
			if ok && (bestEnd == -1 || idx < bestEnd) {
				bestEnd = idx
			}
		}
		end = bestEnd
		if end < 0 {
			return matchEnds
		}
		matchEnds = append(matchEnds, end)
		from = end + 1
	}
}

func TestQuickNFAMatchesBruteForce(t *testing.T) {
	// Three-state pattern over value classes 0,1,2 (values 0..4; classes
	// 3,4 are noise).
	preds := []func(float64) bool{
		func(v float64) bool { return v == 0 },
		func(v float64) bool { return v == 1 },
		func(v float64) bool { return v == 2 },
	}
	const within = 500 * time.Millisecond

	f := func(seed int64, rawLen uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(rawLen%40) + 3
		values := make([]float64, n)
		times := make([]time.Time, n)
		ts := time.Date(2014, 3, 24, 10, 0, 0, 0, time.UTC)
		for i := 0; i < n; i++ {
			values[i] = float64(rng.Intn(5))
			// Random gaps 30..330 ms keep some matches inside and some
			// outside the window.
			ts = ts.Add(time.Duration(30+rng.Intn(300)) * time.Millisecond)
			times[i] = ts
		}

		pattern := SeqWithin(within,
			NewAtom("s0", func(tp stream.Tuple) bool { return preds[0](tp.Fields[0]) }),
			NewAtom("s1", func(tp stream.Tuple) bool { return preds[1](tp.Fields[0]) }),
			NewAtom("s2", func(tp stream.Tuple) bool { return preds[2](tp.Fields[0]) }),
		)
		nfa, err := Compile(pattern, SelectFirst, ConsumeAll)
		if err != nil {
			return false
		}
		var got []int
		for i := 0; i < n; i++ {
			ms := nfa.Process(stream.Tuple{Ts: times[i], Fields: []float64{values[i]}})
			for range ms {
				got = append(got, i)
			}
		}
		want := bruteForceFirstConsumeAll(values, times, preds, within)
		if len(got) != len(want) {
			t.Logf("seed %d: values %v", seed, values)
			t.Logf("got ends %v, want %v", got, want)
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				t.Logf("seed %d: values %v", seed, values)
				t.Logf("got ends %v, want %v", got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickSelectAllFindsEverySuffixRun verifies under select all / consume
// none that each match corresponds to a distinct run start and match count
// equals the number of starts that can complete.
func TestQuickSelectAllConsumeNone(t *testing.T) {
	const within = time.Second
	f := func(seed int64, rawLen uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(rawLen%25) + 2
		values := make([]float64, n)
		times := make([]time.Time, n)
		ts := time.Date(2014, 3, 24, 10, 0, 0, 0, time.UTC)
		for i := 0; i < n; i++ {
			values[i] = float64(rng.Intn(3))
			ts = ts.Add(100 * time.Millisecond)
			times[i] = ts
		}
		pattern := SeqWithin(within,
			NewAtom("a", func(tp stream.Tuple) bool { return tp.Fields[0] == 0 }),
			NewAtom("b", func(tp stream.Tuple) bool { return tp.Fields[0] == 1 }),
		)
		nfa, err := Compile(pattern, SelectAll, ConsumeNone)
		if err != nil {
			return false
		}
		var matches int
		for i := 0; i < n; i++ {
			matches += len(nfa.Process(stream.Tuple{Ts: times[i], Fields: []float64{values[i]}}))
		}
		// Reference: each index i with value 0 completes at the first
		// following index j with value 1 and times[j]-times[i] <= within.
		want := 0
		for i := 0; i < n; i++ {
			if values[i] != 0 {
				continue
			}
			for j := i + 1; j < n; j++ {
				if times[j].Sub(times[i]) > within {
					break
				}
				if values[j] == 1 {
					want++
					break
				}
			}
		}
		if matches != want {
			t.Logf("seed %d values %v: matches %d want %d", seed, values, matches, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickNoMatchWithoutCompleteSubsequence: streams lacking one of the
// value classes can never match.
func TestQuickNoMatchWithoutCompleteSubsequence(t *testing.T) {
	f := func(seed int64, rawLen uint8, missing uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		skip := float64(missing % 3)
		n := int(rawLen%30) + 1
		pattern := Seq(
			NewAtom("a", func(tp stream.Tuple) bool { return tp.Fields[0] == 0 }),
			NewAtom("b", func(tp stream.Tuple) bool { return tp.Fields[0] == 1 }),
			NewAtom("c", func(tp stream.Tuple) bool { return tp.Fields[0] == 2 }),
		)
		nfa, err := Compile(pattern, SelectFirst, ConsumeAll)
		if err != nil {
			return false
		}
		ts := time.Date(2014, 3, 24, 10, 0, 0, 0, time.UTC)
		for i := 0; i < n; i++ {
			v := float64(rng.Intn(3))
			if v == skip {
				v = 3 // replace the missing class with noise
			}
			ts = ts.Add(33 * time.Millisecond)
			if got := nfa.Process(stream.Tuple{Ts: ts, Fields: []float64{v}}); len(got) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// nestedPattern builds the left-nested shape the learner emits (§3.3.4):
// ((p0 -> p1 within w[0]) -> p2 within w[1]) -> …, every window measured
// from the first pose. State k reads value class k.
func nestedPattern(states int, withins []time.Duration) Pattern {
	atom := func(k int) Pattern {
		v := float64(k)
		return NewAtom(fmt.Sprintf("p%d", k), func(tp stream.Tuple) bool { return tp.Fields[0] == v })
	}
	p := atom(0)
	for k := 1; k < states; k++ {
		p = SeqWithin(withins[k-1], p, atom(k))
	}
	return p
}

// nestedRun is what the reference semantics say about one run.
type nestedRun struct {
	match      []int // matched tuple indices; nil unless the run completed
	calls      int   // predicate calls charged to the run after its start
	expired    bool  // died because a window it was inside ran out
	onDeadline bool  // some state matched exactly on a window's deadline
}

// bruteForceNestedRun follows the run that starts at tuple s, one tuple at a
// time, under the reference semantics of nestedPattern. While it waits for
// state k it is inside the windows of levels k..states-1; at each later
// tuple it dies if more time than one of them allows has passed since its
// first tuple. Otherwise the tuple costs one predicate call and is taken if
// it is of class k.
func bruteForceNestedRun(values []float64, times []time.Time, withins []time.Duration, s int) nestedRun {
	var r nestedRun
	pos := []int{s}
	for j := s + 1; j < len(values); j++ {
		k := len(pos)
		elapsed := times[j].Sub(times[s])
		for _, w := range withins[k-1:] {
			if elapsed > w {
				r.expired = true
				return r
			}
		}
		r.calls++
		if values[j] != float64(k) {
			continue
		}
		for _, w := range withins[k-1:] {
			r.onDeadline = r.onDeadline || elapsed == w
		}
		if pos = append(pos, j); len(pos) == len(withins)+1 {
			r.match = pos
			return r
		}
	}
	return r
}

// nestedCase is one random input for the nested-window checks.
type nestedCase struct {
	states  int
	withins []time.Duration
	values  []float64
	times   []time.Time
}

// newNestedCase draws 3–5 states and up to 60 tuples. Times and windows sit
// on a 100 ms grid, so tuples often land exactly on a deadline; gaps of zero
// give equal timestamps. Half the cases use cumulative (non-decreasing)
// windows as the learner does, the other half arbitrary ones, where an outer
// window can be tighter than an inner one.
func newNestedCase(seed int64, rawLen uint8) nestedCase {
	rng := rand.New(rand.NewSource(seed))
	c := nestedCase{states: 3 + rng.Intn(3)}
	for k := 1; k < c.states; k++ {
		c.withins = append(c.withins, time.Duration(1+rng.Intn(4*c.states))*100*time.Millisecond)
	}
	if rng.Intn(2) == 0 {
		sort.Slice(c.withins, func(i, j int) bool { return c.withins[i] < c.withins[j] })
	}
	n := int(rawLen%58) + 3
	ts := time.Date(2014, 3, 24, 10, 0, 0, 0, time.UTC)
	for i := 0; i < n; i++ {
		// Classes states and states+1 are noise.
		c.values = append(c.values, float64(rng.Intn(c.states+2)))
		ts = ts.Add(time.Duration(rng.Intn(4)) * 100 * time.Millisecond)
		c.times = append(c.times, ts)
	}
	return c
}

// runNested feeds the case to a fresh NFA and returns every match as the
// indices of its tuples, checking Start and End against those tuples.
func (c nestedCase) runNested(t *testing.T, sel SelectPolicy, consume ConsumePolicy) ([][]int, *NFA) {
	nfa, err := Compile(nestedPattern(c.states, c.withins), sel, consume)
	if err != nil {
		t.Error(err)
		return nil, nil
	}
	var got [][]int
	for i := range c.values {
		for _, m := range nfa.Process(stream.Tuple{Ts: c.times[i], Seq: uint64(i), Fields: []float64{c.values[i]}}) {
			idx := make([]int, len(m.Tuples))
			for k, tp := range m.Tuples {
				idx[k] = int(tp.Seq)
			}
			if !m.Start.Equal(c.times[idx[0]]) || !m.End.Equal(c.times[idx[len(idx)-1]]) {
				t.Logf("match %v: span [%v, %v] is not its tuples' times", idx, m.Start, m.End)
				return nil, nil
			}
			got = append(got, idx)
		}
	}
	return got, nfa
}

func TestQuickNestedWindowsFirstConsumeAll(t *testing.T) {
	onDeadline := 0
	f := func(seed int64, rawLen uint8) bool {
		c := newNestedCase(seed, rawLen)
		got, nfa := c.runNested(t, SelectFirst, ConsumeAll)
		if nfa == nil {
			return false
		}
		// Reference: the run completing first wins (the earliest-started
		// one on a tie), every other run is consumed with it, and the
		// search resumes after the match.
		var want [][]int
		for from := 0; ; {
			var best []int
			bestOnDeadline := false
			for s := from; s < len(c.values); s++ {
				if c.values[s] != 0 {
					continue
				}
				r := bruteForceNestedRun(c.values, c.times, c.withins, s)
				if r.match != nil && (best == nil || r.match[len(r.match)-1] < best[len(best)-1]) {
					best, bestOnDeadline = r.match, r.onDeadline
				}
			}
			if best == nil {
				break
			}
			if bestOnDeadline {
				onDeadline++
			}
			want = append(want, best)
			from = best[len(best)-1] + 1
		}
		if !reflect.DeepEqual(got, want) {
			t.Logf("seed %d: withins %v values %v", seed, c.withins, c.values)
			t.Logf("got %v, want %v", got, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
	if onDeadline == 0 {
		t.Error("no match landed exactly on a window deadline; the inclusive boundary went untested")
	}
}

func TestQuickNestedWindowsAllConsumeNone(t *testing.T) {
	onDeadline := 0
	f := func(seed int64, rawLen uint8) bool {
		c := newNestedCase(seed, rawLen)
		got, nfa := c.runNested(t, SelectAll, ConsumeNone)
		if nfa == nil {
			return false
		}
		// Reference: every run that completes is a match, reported at its
		// last tuple in the order the runs started. Nothing is consumed, so
		// the counters are the runs' own sums plus one start predicate call
		// per tuple: a run kept past its deadline costs predicate calls.
		var want [][]int
		wantCalls, wantPruned := uint64(len(c.values)), uint64(0)
		for s := range c.values {
			if c.values[s] != 0 {
				continue
			}
			r := bruteForceNestedRun(c.values, c.times, c.withins, s)
			wantCalls += uint64(r.calls)
			if r.expired {
				wantPruned++
			}
			if r.match != nil {
				want = append(want, r.match)
				if r.onDeadline {
					onDeadline++
				}
			}
		}
		sort.SliceStable(want, func(i, j int) bool { return want[i][len(want[i])-1] < want[j][len(want[j])-1] })
		_, calls, _, pruned := nfa.Stats()
		if !reflect.DeepEqual(got, want) || calls != wantCalls || pruned != wantPruned {
			t.Logf("seed %d: withins %v values %v", seed, c.withins, c.values)
			t.Logf("got %v, want %v", got, want)
			t.Logf("predicate calls %d, pruned %d; want %d, %d", calls, pruned, wantCalls, wantPruned)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
	if onDeadline == 0 {
		t.Error("no match landed exactly on a window deadline; the inclusive boundary went untested")
	}
}

// TestNestedWindowInclusiveBoundary pins both sides of every deadline of a
// learner-shaped pattern: a pose arriving exactly on its nested deadline
// still matches, one nanosecond later it does not.
func TestNestedWindowInclusiveBoundary(t *testing.T) {
	withins := []time.Duration{time.Second, 2 * time.Second, 3 * time.Second}
	t0 := time.Date(2014, 3, 24, 10, 0, 0, 0, time.UTC)
	for level := range withins {
		for _, late := range []time.Duration{0, 1} {
			// The last pose of the level's sub-sequence arrives on that
			// window's deadline plus late; the poses after it share its
			// timestamp, inside their own windows.
			offsets := []time.Duration{0, 500 * time.Millisecond, 1500 * time.Millisecond, 2500 * time.Millisecond}
			offsets[level+1] = withins[level] + late
			for k := level + 2; k < len(offsets); k++ {
				offsets[k] = offsets[level+1]
			}
			nfa, err := Compile(nestedPattern(4, withins), SelectFirst, ConsumeAll)
			if err != nil {
				t.Fatal(err)
			}
			matches := 0
			for k, off := range offsets {
				matches += len(nfa.Process(stream.Tuple{Ts: t0.Add(off), Fields: []float64{float64(k)}}))
			}
			if want := map[time.Duration]int{0: 1, 1: 0}[late]; matches != want {
				t.Errorf("pose %d at its level's deadline + %v: %d matches, want %d", level+1, late, matches, want)
			}
		}
	}
}

// TestWindowDeadlineSaturates: a window reaching past the largest int64
// event time must not wrap into the past and expire its run at once.
func TestWindowDeadlineSaturates(t *testing.T) {
	t0 := time.Unix(0, math.MaxInt64-int64(time.Second))
	nfa, err := Compile(nestedPattern(3, []time.Duration{time.Hour, time.Hour}), SelectFirst, ConsumeAll)
	if err != nil {
		t.Fatal(err)
	}
	matches := 0
	for k := 0; k < 3; k++ {
		matches += len(nfa.Process(stream.Tuple{Ts: t0.Add(time.Duration(k) * 100 * time.Millisecond), Fields: []float64{float64(k)}}))
	}
	if matches != 1 {
		t.Errorf("%d matches near the end of int64 event time, want 1", matches)
	}
}
