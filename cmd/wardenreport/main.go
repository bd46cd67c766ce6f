// Command wardenreport renders a self-contained static HTML report for a
// telemetry-observed benchmark run, or validates a Perfetto trace written by
// wardenbench -trace-out.
//
// Usage:
//
//	wardenreport -benchmark primes -o primes.html            # WARDen-vs-MESI pair
//	wardenreport -benchmark dedup -protocol warden -o d.html # single run
//	wardenreport -benchmark primes -trace-out traces -o p.html
//	wardenreport -validate results/traces/primes_warden_xeon-gold-6126-2s_10000.trace.json
//
// Run mode simulates the benchmark with the full telemetry capture attached
// (cycle windows, phase accounting, sharing heatmap) and writes one HTML
// document with inline SVG sparklines and per-phase breakdown tables; with
// -protocol mesi,warden (the default) the MESI baseline and WARDen run are
// rendered side by side with a comparison header. Any registered protocols
// work, e.g. -protocol mesi,sisd. -trace-out DIR additionally writes each
// run's Perfetto timeline.
//
// Validate mode parses a trace_event JSON file, checks it is well-formed
// (per-track monotonic timestamps, balanced and name-matched B/E pairs,
// non-negative durations), and prints its shape; a malformed trace exits
// non-zero.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"warden/internal/bench"
	"warden/internal/core"
	"warden/internal/hlpl"
	"warden/internal/machine"
	"warden/internal/pbbs"
	"warden/internal/protocols"
	"warden/internal/telemetry"
	"warden/internal/topology"
	"warden/internal/trace"
)

func main() {
	benchmark := flag.String("benchmark", "", "benchmark to run (see pbbs suite); required in run mode")
	protocol := flag.String("protocol", "mesi,warden", protocols.Usage())
	size := flag.String("size", "small", "input size class: small or medium")
	sockets := flag.Int("sockets", 2, "number of sockets in the simulated machine")
	out := flag.String("o", "report.html", "output HTML file")
	traceOut := flag.String("trace-out", "", "also write each run's Perfetto trace_event JSON under this directory")
	traceGz := flag.Bool("trace-gz", false, "gzip-compress the Perfetto traces (suffix .gz); -validate reads both forms")
	window := flag.Uint64("window", 0, "telemetry sampling window width in simulated cycles (0 = default)")
	validate := flag.String("validate", "", "validate a Perfetto trace_event JSON file and print its shape (no simulation)")
	flag.Parse()

	if *validate != "" {
		if err := runValidate(*validate); err != nil {
			fmt.Fprintf(os.Stderr, "wardenreport: %s: %v\n", *validate, err)
			os.Exit(1)
		}
		return
	}
	if *benchmark == "" {
		fmt.Fprintln(os.Stderr, "wardenreport: -benchmark is required (or use -validate)")
		os.Exit(2)
	}
	protos, err := protocols.Parse(*protocol)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wardenreport: -protocol: %v\n", err)
		os.Exit(2)
	}
	e, err := pbbs.ByName(*benchmark)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wardenreport: %v\n", err)
		os.Exit(2)
	}
	n := e.Small
	if *size == "medium" {
		n = e.Medium
	} else if *size != "small" {
		fmt.Fprintf(os.Stderr, "wardenreport: unknown size class %q\n", *size)
		os.Exit(2)
	}
	cfg := topology.XeonGold6126(*sockets)

	var runs []*telemetry.RunReport
	for _, proto := range protos {
		rep, err := observe(cfg, proto, e, n, *size, *window, *traceOut, *traceGz)
		if err != nil {
			fmt.Fprintf(os.Stderr, "wardenreport: %v\n", err)
			os.Exit(1)
		}
		runs = append(runs, rep)
	}

	f, err := os.Create(*out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wardenreport: %v\n", err)
		os.Exit(1)
	}
	title := fmt.Sprintf("%s on %s (%s)", e.Name, cfg.Name, *size)
	werr := telemetry.WriteHTML(f, title, runs)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		fmt.Fprintf(os.Stderr, "wardenreport: %s: %v\n", *out, werr)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "wardenreport: wrote %s\n", *out)
}

// observe runs one simulation with the telemetry capture attached and
// returns its report view.
func observe(cfg topology.Config, proto core.Protocol, e pbbs.Entry, n int, sizeLabel string, window uint64, traceDir string, traceGz bool) (*telemetry.RunReport, error) {
	tcfg := telemetry.Config{Topology: cfg, WindowCycles: window}
	var traceF io.WriteCloser
	if traceDir != "" {
		if err := os.MkdirAll(traceDir, 0o755); err != nil {
			return nil, err
		}
		path := filepath.Join(traceDir, fmt.Sprintf("%s_%s.trace.json", e.Name, strings.ToLower(proto.String())))
		if traceGz {
			path += ".gz"
		}
		var err error
		traceF, err = trace.Create(path)
		if err != nil {
			return nil, err
		}
		tcfg.Trace = traceF
	}
	cap := telemetry.New(tcfg)
	res, err := bench.RunOneObserved(cfg, proto, e, n, hlpl.DefaultOptions(),
		func(*machine.Machine) core.Sink { return cap })
	if cerr := cap.Close(); err == nil && cerr != nil {
		err = cerr
	}
	if traceF != nil {
		if cerr := traceF.Close(); err == nil && cerr != nil {
			err = cerr
		}
	}
	if err != nil {
		return nil, err
	}
	return &telemetry.RunReport{
		Benchmark: e.Name,
		Protocol:  proto.String(),
		Size:      sizeLabel,
		Machine:   cfg.Name,
		Cycles:    res.Cycles,
		Counters:  res.Counters,
		Capture:   cap,
	}, nil
}

// runValidate checks one Perfetto trace file and prints its shape. Gzip
// traces are detected by magic bytes and decompressed transparently.
func runValidate(path string) error {
	f, err := trace.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	st, err := telemetry.ValidatePerfetto(f)
	if err != nil {
		return err
	}
	fmt.Printf("valid trace: %d events (%d slices, %d instants), %d phase pairs, max ts %.0f cycles\n",
		st.Events, st.Slices, st.Instants, st.PhasePairs, st.MaxTS)
	fmt.Printf("coherence events: %d inside a phase, %d outside\n", st.InPhase, st.OutOfPhase)
	names := make([]string, 0, len(st.PhaseNames))
	for name := range st.PhaseNames {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("  phase %-16s x%d\n", name, st.PhaseNames[name])
	}
	return nil
}
