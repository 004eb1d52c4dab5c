// Command perfbench is the repository's benchmark: it drives the real
// serving stack (learned plans, serve, wire, cluster and store over
// loopback TCP) with one of three seeded workloads, checks every detection
// against the bare engine, and prints one JSON result line.
//
//	perfbench --workload live-gateway --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics of a traced run. DESIGN.md in this
// directory says what each workload and metric is for.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is what one invocation was asked to do.
type run struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	dir      string // scratch space inside the build directory, removed at exit
	spans    string // where the traced run writes its spans
}

// setups is how many times a run builds its workload's set-up; setup_s is
// the median. Only the last set-up is measured.
const setups = 5

// warm is the leading part of every measured phase left out of the figures.
const warm = time.Second

func main() {
	workload := flag.String("workload", "", "live-gateway, dense-queries or archive-backfill")
	seed := flag.Int64("seed", 1, "seed every input is derived from")
	seconds := flag.Int("seconds", 15, "measured seconds")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	flag.Parse()

	build := os.Getenv("CARGO_TARGET_DIR")
	if build == "" {
		build = ".bench_build"
	}
	r := &run{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		dir:      filepath.Join(build, fmt.Sprintf("perfbench-%d", os.Getpid())),
		spans:    filepath.Join(build, fmt.Sprintf("perfbench-spans-%s-seed%d.tsv", *workload, *seed)),
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be ≥ 1 and --trace 0 or 1")
		os.Exit(2)
	}
	if r.workload == "archive-backfill" {
		runtime.GOMAXPROCS(archiveProcs)
	}
	fmt.Printf("# host %s seed=%d workload=%s seconds=%d trace=%d\n",
		hostFingerprint(), r.seed, r.workload, *seconds, *trace)
	res, err := r.do()
	os.RemoveAll(r.dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func (r *run) do() (*result, error) {
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		return nil, err
	}
	switch r.workload {
	case "live-gateway":
		return r.live()
	case "dense-queries":
		return r.dense()
	case "archive-backfill":
		return r.archive()
	}
	return nil, fmt.Errorf("unknown workload %q", r.workload)
}

// report prints one human-readable line before the result.
func report(format string, args ...any) { fmt.Printf("# "+format+"\n", args...) }

func reportDist(name, unit string, d dist) {
	line := fmt.Sprintf("%s: n=%d p50=%.4g%s p90=%.4g%s", name, d.N, d.P50, unit, d.P90, unit)
	if d.Tail.Label != "" && d.Tail.Label != "p50" && d.Tail.Label != "p90" {
		line += fmt.Sprintf(" %s=%.4g%s (%d beyond)", d.Tail.Label, d.Tail.Value, unit, d.Tail.Beyond)
	}
	report("%s max=%.4g%s", line, d.Max, unit)
}

func reportChecks(detections, mismatched, checked int, what string, failed, attempted int, op string) {
	report("detections=%d, all equal to the bare-engine reference: %d of %d %s mismatched", detections, mismatched, checked, what)
	report("failed_frac=%.6g (%d failed of %d %s)", float64(failed)/float64(attempted), failed, attempted, op)
}

// timedSetups builds the workload's set-up `setups` times, closing all but
// the last, and returns the last with the median set-up time.
func timedSetups[T any](build func() (T, func(), error)) (T, float64, error) {
	var secs []float64
	var rig T
	for i := 0; i < setups; i++ {
		start := time.Now()
		r, closeFn, err := build()
		if err != nil {
			return rig, 0, err
		}
		secs = append(secs, time.Since(start).Seconds())
		if i < setups-1 {
			closeFn()
		} else {
			rig = r
		}
	}
	report("setup_s runs: %v", secs)
	return rig, median(secs), nil
}

// e2e is the gated end-to-end result. Latencies are reported beside it
// but not gated: see DESIGN.md.
func e2e(setupS, tps, cpuUs, heapMB float64) map[string]metric {
	return map[string]metric{
		"setup_s":          {setupS, "s"},
		"tuples_per_s":     {tps, "tuples/s"},
		"cpu_us_per_tuple": {cpuUs, "us"},
		"heap_live_mb":     {heapMB, "MB"},
	}
}

// perLayer turns the collected layer figures into the result's metrics.
func perLayer(L map[string]float64) map[string]metric {
	out := make(map[string]metric, len(layerUnits))
	names := make([]string, 0, len(layerUnits))
	for name := range layerUnits {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		out[name] = metric{L[name], layerUnits[name]}
		report("%-28s %.6g %s", name, L[name], layerUnits[name])
	}
	return out
}

// layerUnits lists every per-layer metric with its unit.
var layerUnits = map[string]string{
	"learn.learn_ms":                "ms",
	"anduin.compile_ms":             "ms",
	"gen.send_lag_p50_ms":           "ms",
	"gen.send_lag_p99_ms":           "ms",
	"wire.feed_us_p50":              "us",
	"wire.feed_us_p99":              "us",
	"wire.flush_rtt_ms_p50":         "ms",
	"wire.flush_rtt_ms_p99":         "ms",
	"wire.attach_ms":                "ms",
	"cluster.forward_us_p50":        "us",
	"cluster.forward_us_p99":        "us",
	"cluster.tuple_skew":            "ratio",
	"cluster.lost":                  "count",
	"cluster.backfill_retried":      "count",
	"serve.feed_us_p50":             "us",
	"serve.feed_us_p99":             "us",
	"serve.queue_wait_us_p50":       "us",
	"serve.queue_wait_us_p99":       "us",
	"serve.detect_us_p50":           "us",
	"serve.detect_us_p99":           "us",
	"serve.ingest_us_p50":           "us",
	"serve.ingest_us_p99":           "us",
	"serve.queue_depth_max":         "count",
	"serve.residual_ns":             "ns",
	"cep.pred_calls_per_tuple":      "count",
	"cep.pruned_per_tuple":          "count",
	"cep.step_ns":                   "ns",
	"transform.tuple_ns":            "ns",
	"store.append_ns":               "ns",
	"store.tap_recorded":            "count",
	"store.tap_dropped":             "count",
	"store.seek_ms":                 "ms",
	"store.scan_mb_per_s":           "MB/s",
	"store.backfill_ms":             "ms",
	"runtime.alloc_bytes_per_tuple": "B",
	"runtime.gc_cpu_frac":           "ratio",
	"layers.sum_ns":                 "ns",
	"layers.budget_ns":              "ns",
	"layers.residual_ns":            "ns",
	"trace_overhead_frac":           "ratio",
}

// traced is what a workload's traced run hands to finishTrace.
type traced struct {
	untracedCPU, tracedCPU float64 // process CPU per tuple of the two halves, ns
	detectNs               float64 // serve's mean detect time of a traced tuple, ns
	servePath              bool    // the workload's tuples pass through serve sessions
	win                    *window // the untraced half, for the runtime figures
	tuples                 int     // tuples measured in that window
}

// finishTrace adds the figures every workload derives alike: the ladder,
// the layer sum, the trace overhead, set-up and runtime figures; then
// reports self time per layer and writes the spans out.
func (r *run) finishTrace(L map[string]float64, c *corpus, tr *tracer, t traced) error {
	transformNs, stepNs, st, err := ladder(c)
	if err != nil {
		return err
	}
	L["transform.tuple_ns"], L["cep.step_ns"] = transformNs, stepNs
	if _, ok := L["cep.pred_calls_per_tuple"]; !ok {
		raw := 0
		for _, rec := range c.recs {
			raw += len(rec.tuples)
		}
		st.put(L, raw)
	}
	L["serve.residual_ns"] = t.detectNs - transformNs - stepNs
	L["layers.sum_ns"] = transformNs + stepNs
	if t.servePath {
		L["layers.sum_ns"] += L["serve.residual_ns"]
	}
	L["layers.budget_ns"] = t.untracedCPU
	L["layers.residual_ns"] = t.untracedCPU - L["layers.sum_ns"]
	L["trace_overhead_frac"] = t.tracedCPU/t.untracedCPU - 1
	L["learn.learn_ms"] = float64(c.learnDur) / 1e6
	L["anduin.compile_ms"] = float64(c.compileDur) / 1e6
	L["runtime.alloc_bytes_per_tuple"] = float64(t.win.allocBytes()) / float64(t.tuples)
	L["runtime.gc_cpu_frac"] = t.win.gcFrac()
	report("trace_overhead_frac=%.4g: process CPU %.1f ns/tuple traced against %.1f ns/tuple untraced",
		L["trace_overhead_frac"], t.tracedCPU, t.untracedCPU)
	report("layer sum %.1f ns/tuple (transform %.1f + cep %.1f, serve.residual %.1f counted: %v) of %.1f ns/tuple untraced process CPU; unattributed %.1f ns/tuple",
		L["layers.sum_ns"], transformNs, stepNs, L["serve.residual_ns"], t.servePath, t.untracedCPU, L["layers.residual_ns"])

	spans := tr.all()
	for _, ls := range selfTimes(spans) {
		report("self time %-10s %8d spans %12.3f ms", ls.layer, ls.spans, float64(ls.self)/1e6)
	}
	header := fmt.Sprintf("perfbench %s seed=%d %s", r.workload, r.seed, hostFingerprint())
	if err := writeSpans(r.spans, header, spans); err != nil {
		return err
	}
	report("spans: %d written to %s", len(spans), r.spans)
	return nil
}

// half splits the traced run's measured time between its untraced and
// traced halves.
func (r *run) half() time.Duration { return r.seconds / 2 }
