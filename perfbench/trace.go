package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one call the benchmark made into a layer: name is
// "<layer>.<call>", req identifies the request it served (session<<32 |
// frame, or a job number), parent the span that caused it (0 for none).
type span struct {
	id, parent uint64
	name       string
	req        uint64
	start, end int64 // unix nanoseconds
}

// tracer keeps spans in memory until the run ends. Each goroutine records
// into its own spanLog, so tracing adds no lock to the paths it times. A
// nil *tracer (the untraced run) records nothing and costs one nil check.
type tracer struct {
	nextID atomic.Uint64
	mu     sync.Mutex
	logs   []*spanLog
	main   *spanLog
}

// spanLog is one goroutine's spans.
type spanLog struct {
	tr    *tracer
	spans []span
}

// reservedIDs leaves room below for ids a workload derives from its
// request numbers (see frameSpanID).
const reservedIDs = 1 << 40

func newTracer() *tracer {
	t := &tracer{}
	t.nextID.Store(reservedIDs)
	t.main = t.log()
	return t
}

// log returns a span log for one goroutine (nil when not tracing).
func (t *tracer) log() *spanLog {
	if t == nil {
		return nil
	}
	l := &spanLog{tr: t}
	t.mu.Lock()
	t.logs = append(t.logs, l)
	t.mu.Unlock()
	return l
}

// add records a finished span and returns its id; id 0 draws a fresh one.
func (l *spanLog) add(id uint64, name string, parent, req uint64, start, end int64) uint64 {
	if l == nil {
		return 0
	}
	if id == 0 {
		id = l.tr.nextID.Add(1)
	}
	l.spans = append(l.spans, span{id: id, parent: parent, name: name, req: req, start: start, end: end})
	return id
}

// begin opens a span on the main goroutine's log; end closes it.
func (t *tracer) begin(name string, req uint64) int {
	if t == nil {
		return -1
	}
	now := time.Now().UnixNano()
	t.main.add(0, name, 0, req, now, now)
	return len(t.main.spans) - 1
}

func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	t.main.spans[i].end = time.Now().UnixNano()
}

// all returns every recorded span. Call once the goroutines that record
// have finished.
func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, l := range t.logs {
		out = append(out, l.spans...)
	}
	return out
}

// layerSelf is one layer's share of the traced run.
type layerSelf struct {
	layer string
	spans int
	self  time.Duration
}

// selfTimes sums, per layer, each span's duration minus the part its child
// spans cover. Children of one span never overlap (a span's calls are made
// one after another), so the covered part is their summed duration.
func selfTimes(spans []span) []layerSelf {
	childDur := make(map[uint64]int64)
	for _, s := range spans {
		if s.parent != 0 {
			childDur[s.parent] += s.end - s.start
		}
	}
	byLayer := make(map[string]*layerSelf)
	for _, s := range spans {
		layer, _, _ := strings.Cut(s.name, ".")
		ls := byLayer[layer]
		if ls == nil {
			ls = &layerSelf{layer: layer}
			byLayer[layer] = ls
		}
		ls.spans++
		if self := s.end - s.start - childDur[s.id]; self > 0 {
			ls.self += time.Duration(self)
		}
	}
	out := make([]layerSelf, 0, len(byLayer))
	for _, ls := range byLayer {
		out = append(out, *ls)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].self > out[j].self })
	return out
}

// spanDurations returns the durations of every span with the given name.
func spanDurations(spans []span, name string, unit time.Duration) []float64 {
	var out []float64
	for _, s := range spans {
		if s.name == name {
			out = append(out, float64(s.end-s.start)/float64(unit))
		}
	}
	return out
}

// writeSpans writes spans as tab-separated lines under a header naming the
// host and run.
func writeSpans(path, header string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "# %s\n# id\tparent\tname\treq\tstart_ns\tend_ns\n", header)
	for _, s := range spans {
		fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%d\t%d\n", s.id, s.parent, s.name, s.req, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
