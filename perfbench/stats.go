package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"

	"gesturecep/internal/obs"
)

// dist summarizes one set of timing samples. Percentiles are nearest-rank
// over the raw samples, so the reported value is one that was observed.
type dist struct {
	N             int
	P50, P90, P99 float64
	// Tail is the highest percentile with at least minBeyond samples
	// beyond it (p90 at the least, when the sample supports it).
	Tail tail
	Max  float64
}

// tail is one reported high percentile with the sample count behind it.
type tail struct {
	Label  string
	Value  float64
	Beyond int // samples strictly above this rank
}

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: fewer would make it a reading of one or two outliers.
const minBeyond = 10

var tailLevels = []struct {
	label string
	q     float64
}{{"p50", 0.50}, {"p90", 0.90}, {"p99", 0.99}, {"p99.9", 0.999}, {"p99.99", 0.9999}}

// rank is the nearest-rank index of quantile q in n sorted samples.
func rank(n int, q float64) int {
	r := int(math.Ceil(q*float64(n))) - 1
	if r < 0 {
		r = 0
	}
	return r
}

// quantile returns the nearest-rank q-quantile of sorted samples.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), q)]
}

// highestTail returns the highest of p50, p90, p99, … that has at least
// minBeyond samples beyond it; ok is false when even p50 lacks them.
func highestTail(sorted []float64) (t tail, ok bool) {
	for _, lv := range tailLevels {
		beyond := len(sorted) - 1 - rank(len(sorted), lv.q)
		if beyond < minBeyond {
			break
		}
		t, ok = tail{Label: lv.label, Value: sorted[rank(len(sorted), lv.q)], Beyond: beyond}, true
	}
	return t, ok
}

// summarize sorts samples in place and summarizes them.
func summarize(samples []float64) dist {
	sort.Float64s(samples)
	d := dist{N: len(samples), P50: quantile(samples, 0.5), P90: quantile(samples, 0.9), P99: quantile(samples, 0.99)}
	d.Tail, _ = highestTail(samples)
	if len(samples) > 0 {
		d.Max = samples[len(samples)-1]
	}
	return d
}

// median of a few values (sorted in place).
func median(v []float64) float64 {
	sort.Float64s(v)
	return quantile(v, 0.5)
}

// cpuTime is the process's user+system CPU time so far (getrusage).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rtSample reads the runtime counters the runtime layer reports.
type rtSample struct {
	allocBytes uint64
	gcCPU      float64
	totalCPU   float64
}

var rtNames = []string{"/gc/heap/allocs:bytes", "/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return rtSample{allocBytes: s[0].Value.Uint64(), gcCPU: s[1].Value.Float64(), totalCPU: s[2].Value.Float64()}
}

// heapLiveMB forces a collection and reports the live heap it found. The
// second collection empties the sync.Pool caches the first one kept, so
// two readings differ only by what is really retained.
func heapLiveMB() float64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// window is one measured phase: wall time, process CPU and runtime
// counters between its start and its end.
type window struct {
	wall0 time.Time
	cpu0  time.Duration
	rt0   rtSample
	wall  time.Duration
	cpu   time.Duration
	rt1   rtSample
}

func startWindow() *window {
	return &window{wall0: time.Now(), cpu0: cpuTime(), rt0: readRuntime()}
}

func (w *window) stop() {
	w.wall = time.Since(w.wall0)
	w.cpu = cpuTime() - w.cpu0
	w.rt1 = readRuntime()
}

func (w *window) allocBytes() uint64 { return w.rt1.allocBytes - w.rt0.allocBytes }

// gcFrac is the share of the runtime's CPU time spent in the collector.
// The runtime refreshes these classes at each GC, so it is an estimate.
func (w *window) gcFrac() float64 {
	total := w.rt1.totalCPU - w.rt0.totalCPU
	if total <= 0 {
		return 0
	}
	return (w.rt1.gcCPU - w.rt0.gcCPU) / total
}

// histQuantile reads a quantile of a program histogram in the given unit.
func histQuantile(s obs.HistSnapshot, q float64, unit time.Duration) float64 {
	return float64(s.Quantile(q)) / float64(unit)
}

// hostFingerprint names the machine and toolchain a result was measured on.
func hostFingerprint() string {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s",
		model, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
}

// progress is one reading of a run's progress: wall time, process CPU,
// and how much work (tuples) was done so far.
type progress struct {
	at    time.Time
	cpu   time.Duration
	count int64
}

func readProgress(count func() int64) progress {
	return progress{at: time.Now(), cpu: cpuTime(), count: count()}
}

// slices is how many equal parts a measured window is cut into for the
// rates: the reported rate is the median part's, so a burst of outside
// load that slows part of a run moves it little.
const slices = 5

// sampleSlices reads progress at the start of the window and at the end
// of each of its slices, sleeping in between.
func sampleSlices(start time.Time, span time.Duration, count func() int64) []progress {
	out := make([]progress, 0, slices+1)
	for i := 0; i <= slices; i++ {
		time.Sleep(time.Until(start.Add(span * time.Duration(i) / slices)))
		out = append(out, readProgress(count))
	}
	return out
}

// sliceRates returns the median over consecutive readings of the work
// rate (per second) and of the process CPU per unit of work (µs).
func sliceRates(ps []progress) (perSec, cpuUs float64) {
	var rates, cpus []float64
	for i := 1; i < len(ps); i++ {
		n := float64(ps[i].count - ps[i-1].count)
		if n <= 0 {
			continue
		}
		rates = append(rates, n/ps[i].at.Sub(ps[i-1].at).Seconds())
		cpus = append(cpus, float64(ps[i].cpu-ps[i-1].cpu)/1e3/n)
	}
	return median(rates), median(cpus)
}

// closedHeapMB closes a rig and returns the live heap left with its corpus
// still alive. A run's live heap minus this is the heap the rig held: the
// benchmark's own inputs and tallies are in both readings.
func closedHeapMB(closeRig func(), c *corpus) float64 {
	closeRig()
	mb := heapLiveMB()
	runtime.KeepAlive(c)
	return mb
}
