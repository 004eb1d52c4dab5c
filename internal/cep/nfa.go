package cep

import (
	"fmt"
	"math"

	"gesturecep/internal/stream"
)

// state is one flattened NFA state: it accepts a single tuple satisfying
// pred and moves the run forward.
type state struct {
	label string
	pred  func(stream.Tuple) bool
}

// windowConstraint enforces a `within` clause over the atoms [first, last]
// (inclusive, indices into the flattened state list): the tuple matched at
// state `last` must arrive no later than `within` nanoseconds after the tuple
// matched at state `first`.
type windowConstraint struct {
	first, last int
	within      int64
}

// Program is the immutable, compiled form of a Pattern: the flattened state
// list, window constraints and policies, with no run state. A Program is
// safe to share between any number of NFAs — the serving layer compiles each
// learned query once and instantiates a cheap per-session NFA from the
// shared Program, so ten thousand sessions do not re-flatten the pattern.
type Program struct {
	states      []state
	constraints []windowConstraint
	sel         SelectPolicy
	consume     ConsumePolicy
}

// CompileProgram flattens a validated Pattern into a shareable Program.
func CompileProgram(p Pattern, sel SelectPolicy, consume ConsumePolicy) (*Program, error) {
	if p == nil {
		return nil, fmt.Errorf("cep: nil pattern")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	prog := &Program{sel: sel, consume: consume}
	prog.flatten(p)
	if len(prog.states) == 0 {
		return nil, fmt.Errorf("cep: pattern compiled to zero states")
	}
	return prog, nil
}

// flatten appends p's states to prog and records window constraints. It
// returns the index range [first, last] of the appended states.
func (prog *Program) flatten(p Pattern) (first, last int) {
	switch pt := p.(type) {
	case *Atom:
		prog.states = append(prog.states, state{label: pt.Label, pred: pt.Pred})
		i := len(prog.states) - 1
		return i, i
	case *Sequence:
		first = len(prog.states)
		for _, e := range pt.Elems {
			_, last = prog.flatten(e)
		}
		if pt.Within > 0 {
			prog.constraints = append(prog.constraints, windowConstraint{first: first, last: last, within: int64(pt.Within)})
		}
		return first, last
	default:
		panic(fmt.Sprintf("cep: unknown pattern type %T", p))
	}
}

// Len returns the number of program states (atoms in the pattern).
func (prog *Program) Len() int { return len(prog.states) }

// Select returns the program's selection policy.
func (prog *Program) Select() SelectPolicy { return prog.sel }

// Consume returns the program's consumption policy.
func (prog *Program) Consume() ConsumePolicy { return prog.consume }

// Instantiate creates a fresh NFA executing the shared program. The returned
// NFA carries only run state (partial matches and counters), so instantiation
// is O(1) and allocation-light regardless of pattern size.
func (prog *Program) Instantiate() *NFA {
	return &NFA{prog: prog, maxRuns: DefaultMaxRuns}
}

// NFA is an executable instance of a compiled Program. It follows
// skip-till-next-match semantics: tuples that do not satisfy the next state
// of a run are ignored (the run waits), which is what makes pose-sequence
// gesture queries robust against the 30 Hz tuples between poses. Runs are
// discarded as soon as a window constraint can no longer be met.
//
// An NFA is not safe for concurrent use; the engine serializes Process
// calls per stream. The underlying Program is immutable and may be shared
// by many NFAs concurrently.
type NFA struct {
	prog *Program

	// maxRuns caps simultaneous partial matches to bound memory under
	// adversarial input; the oldest run is evicted when exceeded.
	maxRuns int

	runs []*run

	// free recycles run objects (and their ts/tuples backing arrays) so the
	// steady-state Process path does not allocate. An NFA is single-threaded
	// by contract, so a plain slice suffices. Bounded by maxRuns.
	free []*run

	// stats
	processed  uint64
	predCalls  uint64
	matches    uint64
	runsPruned uint64
}

// run is one partial match: next is the state awaiting a tuple, ts[i] holds
// the match time of state i < next in Unix nanoseconds, the event-time
// encoding of the wire and store formats. deadline is the earliest deadline
// of the window constraints the run has entered but not finished, or
// math.MaxInt64 if there are none; satisfiable sets it whenever the run
// starts or advances, and the run is alive at time now iff now <= deadline.
type run struct {
	next     int
	deadline int64
	ts       []int64
	tuples   []stream.Tuple
}

// DefaultMaxRuns bounds simultaneous partial matches per query.
const DefaultMaxRuns = 1024

// Compile flattens a validated Pattern into an executable NFA. It is
// CompileProgram followed by Instantiate; callers that deploy the same
// pattern many times should compile the Program once and instantiate per
// deployment instead.
func Compile(p Pattern, sel SelectPolicy, consume ConsumePolicy) (*NFA, error) {
	prog, err := CompileProgram(p, sel, consume)
	if err != nil {
		return nil, err
	}
	return prog.Instantiate(), nil
}

// Program returns the shared compiled program this NFA executes.
func (n *NFA) Program() *Program { return n.prog }

// Len returns the number of NFA states (atoms in the pattern).
func (n *NFA) Len() int { return len(n.prog.states) }

// SetMaxRuns adjusts the partial-match cap. Values < 1 are ignored.
func (n *NFA) SetMaxRuns(limit int) {
	if limit >= 1 {
		n.maxRuns = limit
	}
}

// ActiveRuns returns the number of live partial matches.
func (n *NFA) ActiveRuns() int { return len(n.runs) }

// Reset discards all partial matches and statistics.
func (n *NFA) Reset() {
	n.runs = nil
	n.free = nil
	n.processed, n.predCalls, n.matches, n.runsPruned = 0, 0, 0, 0
}

// getRun takes a run from the free list (or allocates one) and initialises
// it as a fresh partial match holding only t.
func (n *NFA) getRun(t stream.Tuple) *run {
	if len(n.free) > 0 {
		r := n.free[len(n.free)-1]
		n.free = n.free[:len(n.free)-1]
		r.next = 1
		r.ts = append(r.ts[:0], t.Ts.UnixNano())
		r.tuples = append(r.tuples[:0], t)
		return r
	}
	return &run{next: 1, ts: []int64{t.Ts.UnixNano()}, tuples: []stream.Tuple{t}}
}

// putRun recycles a run that is no longer referenced anywhere. Tuple
// references are cleared so a parked run does not pin field arrays.
func (n *NFA) putRun(r *run) {
	if len(n.free) >= n.maxRuns {
		return
	}
	for i := range r.tuples {
		r.tuples[i] = stream.Tuple{}
	}
	n.free = append(n.free, r)
}

// Stats reports counters accumulated since the last Reset.
func (n *NFA) Stats() (processed, predCalls, matches, pruned uint64) {
	return n.processed, n.predCalls, n.matches, n.runsPruned
}

// Process advances the automaton with one tuple and returns any matches it
// completes. Tuples must arrive in non-decreasing timestamp order.
func (n *NFA) Process(t stream.Tuple) []Match {
	states := n.prog.states
	now := t.Ts.UnixNano()
	n.processed++
	n.expire(now)

	var completed []*run

	// Advance existing runs. Each run consumes at most one tuple per step.
	for _, r := range n.runs {
		st := states[r.next]
		n.predCalls++
		if !st.pred(t) {
			continue
		}
		r.ts = append(r.ts, now)
		r.tuples = append(r.tuples, t)
		r.next++
		if !n.satisfiable(r, now) {
			r.next = -1 // mark dead; swept below
			n.runsPruned++
			continue
		}
		if r.next == len(states) {
			completed = append(completed, r)
		}
	}

	// Try to start a fresh run with this tuple.
	n.predCalls++
	if states[0].pred(t) {
		r := n.getRun(t)
		if len(states) == 1 {
			r.next = len(states)
			completed = append(completed, r)
		} else if n.satisfiable(r, now) {
			n.runs = append(n.runs, r)
			if len(n.runs) > n.maxRuns {
				// Evict the oldest partial run to bound memory. A completed
				// run is still referenced by the completed slice and is
				// recycled after the matches are built, not here.
				if ev := n.runs[0]; ev.next != len(states) {
					n.putRun(ev)
				}
				n.runs = n.runs[1:]
				n.runsPruned++
			}
		} else {
			n.putRun(r)
		}
	}

	// Sweep dead and completed runs out of the active set.
	n.sweep()

	if len(completed) == 0 {
		return nil
	}

	// Apply selection policy. Runs complete in activation order, so the
	// first element is the earliest-started instance.
	selected := completed
	if n.prog.sel == SelectFirst {
		selected = completed[:1]
	}
	out := make([]Match, 0, len(selected))
	for _, r := range selected {
		out = append(out, Match{
			Start:  r.tuples[0].Ts,
			End:    r.tuples[len(r.tuples)-1].Ts,
			Tuples: append([]stream.Tuple(nil), r.tuples...),
		})
	}
	n.matches += uint64(len(out))
	// Matches copy the tuples out above, so every completed run (selected or
	// not) can be recycled now.
	for _, r := range completed {
		n.putRun(r)
	}

	if n.prog.consume == ConsumeAll {
		// Consuming a match invalidates all in-flight partial matches.
		n.runsPruned += uint64(len(n.runs))
		for _, r := range n.runs {
			n.putRun(r)
		}
		n.runs = n.runs[:0]
	}
	return out
}

// satisfiable checks the window constraints that the run has started but not
// yet finished, plus those fully matched, and records the run's deadline. A
// constraint whose `first` state is matched imposes a deadline; if the
// constraint's `last` state is already matched it must hold now, otherwise it
// must still be reachable. It is called each time the run starts or
// advances, so the constraints it passes as fully matched stay satisfied
// until the run ends.
func (n *NFA) satisfiable(r *run, now int64) bool {
	r.deadline = math.MaxInt64
	for _, c := range n.prog.constraints {
		if r.next <= c.first {
			continue // constraint window not entered yet
		}
		deadline := addSat(r.ts[c.first], c.within)
		if r.next > c.last {
			// Fully matched: verify the recorded times.
			if r.ts[c.last] > deadline {
				return false
			}
			continue
		}
		// Partially inside the window: the last state will be matched at
		// some time >= now.
		if now > deadline {
			return false
		}
		r.deadline = min(r.deadline, deadline)
	}
	return true
}

// addSat returns ts + d for d >= 0, saturating at math.MaxInt64 instead of
// wrapping, so a window reaching past the end of int64 event time never
// expires.
func addSat(ts, d int64) int64 {
	if ts > math.MaxInt64-d {
		return math.MaxInt64
	}
	return ts + d
}

// expire removes runs whose pending window constraints can no longer be met
// at time now: those past their deadline.
func (n *NFA) expire(now int64) {
	if len(n.runs) == 0 || len(n.prog.constraints) == 0 {
		return
	}
	kept := n.runs[:0]
	for _, r := range n.runs {
		if now <= r.deadline {
			kept = append(kept, r)
		} else {
			n.runsPruned++
			n.putRun(r)
		}
	}
	n.runs = kept
}

// sweep removes completed and dead runs from the active set. A dead run
// (next == -1) is referenced by nothing else and is recycled immediately; a
// completed run (next == len(states)) is still referenced by Process's
// completed slice and is recycled there after the matches are copied out.
func (n *NFA) sweep() {
	if len(n.runs) == 0 {
		return
	}
	kept := n.runs[:0]
	for _, r := range n.runs {
		switch {
		case r.next >= 0 && r.next < len(n.prog.states):
			kept = append(kept, r)
		case r.next < 0:
			n.putRun(r)
		}
	}
	n.runs = kept
}
