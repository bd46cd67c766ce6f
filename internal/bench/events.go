package bench

// Event-stream variants of the harness entry points: RunOneObserved runs a
// benchmark with a caller-supplied sink attached to the memory system, and
// EventsReport renders the Metrics-sink view (latency histograms, sharer
// distributions, per-block contention) for a fixed benchmark subset under
// both protocols — wardenbench -events.

import (
	"fmt"
	"io"

	"warden/internal/core"
	"warden/internal/energy"
	"warden/internal/engine"
	"warden/internal/hlpl"
	"warden/internal/machine"
	"warden/internal/pbbs"
	"warden/internal/topology"
)

// RunOneObserved is RunOne with an event sink: attach builds the sink for
// the freshly created machine (so sinks that need the System, like
// core.NewChecker, can reach it) and may return nil for an unobserved run.
// The sink sees the full run including the final drain; it is detached
// before verification so host-side checks don't pollute the stream.
func RunOneObserved(cfg topology.Config, proto core.Protocol, entry pbbs.Entry, size int, opts hlpl.Options, attach func(*machine.Machine) core.Sink) (Result, error) {
	return runObserved(cfg, proto, entry, size, opts, machine.EngineSequential, attach, nil)
}

// RunOneObservedOn is RunOneObserved under an explicit engine mode. Both
// modes produce byte-identical results (the PDES differential suite
// asserts it); the mode only selects how the simulation uses host cores.
func RunOneObservedOn(emode machine.EngineMode, cfg topology.Config, proto core.Protocol, entry pbbs.Entry, size int, opts hlpl.Options, attach func(*machine.Machine) core.Sink) (Result, error) {
	return runObserved(cfg, proto, entry, size, opts, emode, attach, nil)
}

// RunOneProbedOn is RunOne under an explicit engine mode with a live
// progress probe attached to the machine's engine — the wardensim -serve
// and -engine path. The probe is host-visible only; results are identical
// to RunOne's.
func RunOneProbedOn(emode machine.EngineMode, cfg topology.Config, proto core.Protocol, entry pbbs.Entry, size int, opts hlpl.Options, probe *engine.Probe) (Result, error) {
	return runObserved(cfg, proto, entry, size, opts, emode, nil, probe)
}

// runObserved is the common simulation core behind RunOne, RunOneObserved,
// and RunOneProbedOn: build the machine, optionally attach a sink and/or a
// progress probe, run, verify, measure. No attachment can change a
// measurement — the sink path is event emission only, and the probe is a
// pair of host-side atomics.
func runObserved(cfg topology.Config, proto core.Protocol, entry pbbs.Entry, size int, opts hlpl.Options, emode machine.EngineMode, attach func(*machine.Machine) core.Sink, probe *engine.Probe) (Result, error) {
	m := machine.New(cfg, proto)
	m.SetEngineMode(emode)
	if probe != nil {
		m.SetProbe(probe)
	}
	if attach != nil {
		m.System().SetSink(attach(m))
	}
	w := entry.New(size)
	if w.Prepare != nil {
		w.Prepare(m)
	}
	rt := hlpl.New(m, opts)
	cycles, err := rt.Run(w.Root)
	m.System().SetSink(nil)
	if err != nil {
		return Result{}, fmt.Errorf("bench: %s on %s/%v: %w", entry.Name, cfg.Name, proto, err)
	}
	if err := w.Verify(m); err != nil {
		return Result{}, fmt.Errorf("bench: %s on %s/%v: verification failed: %w", entry.Name, cfg.Name, proto, err)
	}
	model := energy.Default(cfg)
	ctr := *m.Counters()
	return Result{
		Benchmark: entry.Name,
		Protocol:  proto,
		Config:    cfg,
		Size:      size,
		Cycles:    cycles,
		Counters:  ctr,
		Energy:    model.Evaluate(&ctr, cycles, cfg),
	}, nil
}

// EventsBenchmarks is the subset profiled by wardenbench -events: strong
// WARD beneficiaries (primes, dedup), a sort with heavy data movement
// (msort), and a divide-and-conquer geometry kernel (quickhull) — a spread
// matching the paper's deep-dive set in §7.2.
var EventsBenchmarks = []string{"primes", "dedup", "msort", "quickhull"}

// EventsReport profiles each named benchmark (EventsBenchmarks when names
// is nil) under MESI and WARDen with a Metrics sink attached and renders
// the per-run distribution views. Runs are sequential — event aggregation
// is about insight, not throughput — and fully deterministic.
func EventsReport(w io.Writer, cfg topology.Config, sizes SizeClass, names []string, topN int) error {
	if names == nil {
		names = EventsBenchmarks
	}
	opts := hlpl.DefaultOptions()
	for _, name := range names {
		e, err := pbbs.ByName(name)
		if err != nil {
			return err
		}
		for _, proto := range core.Protocols("mesi", "warden") {
			met := core.NewMetrics()
			res, err := RunOneObserved(cfg, proto, e, sizes.pick(e), opts, func(*machine.Machine) core.Sink { return met })
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "=== %s · %v · %s (size %d) ===\n", e.Name, proto, cfg.Name, res.Size)
			fmt.Fprintf(w, "cycles: %d  IPC: %.3f  inv: %d  downgrades: %d\n",
				res.Cycles, res.IPC(), res.Counters.Invalidations, res.Counters.Downgrades)
			met.WriteReport(w, topN)
			fmt.Fprintln(w)
		}
	}
	return nil
}
