// Command benchmark is the simulator's host-performance benchmark. It
// sweeps one workload (a set of benchmark x protocol simulations on one
// simulated machine) for a fixed time, checks every simulated result
// against a golden digest, and prints the end-to-end host metrics. With
// -trace 1 it instead replays a deep-dive subset of the workload's cells
// layer by layer and prints the per-layer metrics, writing a Chrome
// trace_event span file and a CPU profile. See README.md.
//
// Usage:
//
//	go run . -workload fig7-1s -seed 1 -seconds 10 -trace 0
//
// The last line of standard output is one JSON object:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
)

func main() {
	// One P, so cells run one at a time and never compete for the host's
	// CPUs; see README.md, "Run settings".
	runtime.GOMAXPROCS(1)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// metricsOf attaches units to vals, which must hold a value for every
// metric of defs and nothing else.
func metricsOf(defs []metricDef, vals map[string]float64) map[string]metric {
	if len(vals) != len(defs) {
		panic(fmt.Sprintf("benchmark: %d metric values for %d metrics", len(vals), len(defs)))
	}
	m := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			panic("benchmark: no value for metric " + d.name)
		}
		m[d.name] = metric{v, d.unit}
	}
	return m
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run parses args, runs the requested workload, prints the report, and
// returns the exit code: 0 when every result was correct, 1 when any was
// not, 2 for bad arguments.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: fig7-1s, threeway-2s, serial-medium or lens-2s")
	seed := fs.Int64("seed", 1, "seed for the host-side dispatch order (simulated results do not depend on it)")
	seconds := fs.Int("seconds", 10, "how long the sweep measures, in seconds")
	trace := fs.Int("trace", 0, "1 runs the layer replays and reports per-layer metrics instead")
	traceDir := fs.String("trace-dir", filepath.Join(".bench_build", "trace"), "where -trace 1 writes spans and CPU profiles")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	switch {
	case err != nil:
	case *seconds < 1:
		err = fmt.Errorf("-seconds must be at least 1, got %d", *seconds)
	case *trace != 0 && *trace != 1:
		err = fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	case fs.NArg() > 0:
		err = fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	gold, err := loadGolden()
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	want, ok := gold[w.name]
	if !ok {
		fmt.Fprintf(stderr, "benchmark: testdata/golden.json has no entry for %s\n", w.name)
		return 1
	}

	fmt.Fprintf(stdout, "workload %s: %s\n%d benchmarks x %v on %s (%d threads), %s inputs, GOMAXPROCS %d, seed %d\n",
		w.name, w.why, len(w.benches), w.protos, w.cfg.Name, w.cfg.Threads(), w.sizeName(), runtime.GOMAXPROCS(0), *seed)
	var rep report
	if *trace == 1 {
		rep, err = traced(w, *seed, want, *traceDir, stdout)
	} else {
		rep, err = sweep(w, *seed, *seconds, want, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}
