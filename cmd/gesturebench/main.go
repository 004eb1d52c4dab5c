// Command gesturebench runs the reproduction experiments E1–E10 (see
// DESIGN.md and the internal/experiments package) and prints their result
// tables — the regeneration harness for every figure and quantified claim of
// the paper.
//
// Usage:
//
//	gesturebench            # all experiments
//	gesturebench -only E3   # one experiment
//	gesturebench -seed 7    # different synthetic workload
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"gesturecep/internal/experiments"
)

func main() {
	var (
		seed = flag.Int64("seed", 1, "workload random seed")
		only = flag.String("only", "", "run a single experiment (E1..E10)")
	)
	flag.Parse()
	if err := run(*seed, strings.ToUpper(*only)); err != nil {
		fmt.Fprintln(os.Stderr, "gesturebench:", err)
		os.Exit(1)
	}
}

func run(seed int64, only string) error {
	type experiment struct {
		id string
		fn func() (experiments.Table, error)
	}
	exps := []experiment{
		{"E1", func() (experiments.Table, error) {
			tab, queryText, err := experiments.E1SwipeRight(seed)
			if err != nil {
				return tab, err
			}
			trace, err := experiments.E1Trace(seed, 12)
			if err != nil {
				return tab, err
			}
			fmt.Println(trace.String())
			fmt.Println("generated query (compare Fig. 1):")
			fmt.Println(queryText)
			return tab, nil
		}},
		{"E2", func() (experiments.Table, error) { return experiments.E2SampleEfficiency(8, seed) }},
		{"E3", func() (experiments.Table, error) { return experiments.E3TransformAblation(seed) }},
		{"E4", func() (experiments.Table, error) { return experiments.E4MaxDistSweep(seed) }},
		{"E5", func() (experiments.Table, error) { return experiments.E5ScalingOverlap(seed) }},
		{"E6", func() (experiments.Table, error) { return experiments.E6EngineThroughput(seed) }},
		{"E7", func() (experiments.Table, error) { return experiments.E7Optimization(seed) }},
		{"E8", func() (experiments.Table, error) { return experiments.E8Baselines(seed) }},
		{"E9", func() (experiments.Table, error) { return experiments.E9Recorder(seed) }},
		{"E10", func() (experiments.Table, error) { return experiments.E10WindowMode(seed) }},
	}

	ran := 0
	for _, e := range exps {
		if only != "" && e.id != only {
			continue
		}
		start := time.Now()
		tab, err := e.fn()
		if err != nil {
			return fmt.Errorf("%s: %w", e.id, err)
		}
		fmt.Println(tab.String())
		fmt.Printf("(%s completed in %v)\n\n", e.id, time.Since(start).Round(time.Millisecond))
		ran++
	}
	if ran == 0 {
		return fmt.Errorf("no experiment matched %q", only)
	}
	return nil
}
