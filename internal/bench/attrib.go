package bench

// Attribution integration for the experiment harness: when enabled on a
// Runner, every uncached simulation runs with an attrib.Ledger attached,
// reconciles it exactly against the measured cycle count (a residue aborts
// the run — see attrib.Ledger.Reconcile), and writes the ledger accounts
// and per-block flight records as JSONL artifacts. Like telemetry, the
// ledger is a pure-observation sink: attribution-enabled runs are byte-
// identical to bare runs under both engines (TestAttribMatchesUnobserved).
// runInstrumented is the shared instrumented-simulation path — telemetry
// and attribution compose onto one run through core.Sinks.

import (
	"fmt"
	"io"
	"sync/atomic"

	"warden/internal/attrib"
	"warden/internal/core"
	"warden/internal/hlpl"
	"warden/internal/machine"
	"warden/internal/obs"
	"warden/internal/pbbs"
	"warden/internal/runner"
	"warden/internal/telemetry"
	"warden/internal/topology"
)

// AttribConfig enables per-run cycle attribution on a Runner.
type AttribConfig struct {
	// Dir receives the .attrib.jsonl (ledger accounts) and .blocks.jsonl
	// (flight-recorder summaries) dumps. Empty disables attribution.
	Dir string
	// BucketBytes, FlightDepth, MaxBlocks override the attrib.Config
	// defaults (0 keeps each default).
	BucketBytes uint64
	FlightDepth int
	MaxBlocks   int
	// Artifacts, when non-nil, collects every file written.
	Artifacts *runner.Artifacts
}

// ledgerConfig maps the harness options onto an attrib.Config.
func (ac *AttribConfig) ledgerConfig() attrib.Config {
	return attrib.Config{
		BucketBytes: ac.BucketBytes,
		FlightDepth: ac.FlightDepth,
		MaxBlocks:   ac.MaxBlocks,
	}
}

// SetAttrib configures per-run attribution artifacts for all subsequent
// (uncached) simulations. Like SetTelemetry it is excluded from the memo
// key: attribution cannot change a measurement.
func (r *Runner) SetAttrib(ac AttribConfig) { r.attrib = ac }

// attribCounters aggregates the runner's attribution activity for the
// warden_attrib_* metric families.
type attribCounters struct {
	runs     atomic.Uint64 // attribution-enabled simulations completed
	cycles   atomic.Uint64 // cycles exactly attributed (i.e. reconciled)
	accounts atomic.Uint64 // ledger accounts written
	blocks   atomic.Uint64 // blocks tracked by flight recorders
}

// attribFamilies renders the warden_attrib_* families. They are always
// present (zero-valued when attribution is disabled) so dashboards and CI
// assertions can rely on the family names existing. The residue counter
// stays 0 by construction: a nonzero residue fails the run instead of
// being exported.
func (c *attribCounters) families() []obs.Family {
	return []obs.Family{
		obs.Counter("warden_attrib_runs_total",
			"Attribution-enabled simulations completed.", float64(c.runs.Load())),
		obs.Counter("warden_attrib_cycles_total",
			"Simulated cycles exactly attributed (reconciled) by completed ledgers.", float64(c.cycles.Load())),
		obs.Counter("warden_attrib_accounts_total",
			"Attribution ledger accounts (thread x kind x bucket x phase cells) written.", float64(c.accounts.Load())),
		obs.Counter("warden_attrib_blocks_total",
			"Cache blocks tracked by flight recorders across completed runs.", float64(c.blocks.Load())),
		obs.Counter("warden_attrib_residue_total",
			"Reconciliation residue cycles. Always 0: a nonzero residue fails the run.", 0),
	}
}

// runInstrumented executes one simulation with the enabled observation
// sinks (telemetry capture and/or attribution ledger) attached through
// core.Sinks, then writes their artifact files. Measurements are identical
// to RunOne's. run, when non-nil, collects artifact paths and flight-
// recorder summaries for /runs/{id} and /runs/{id}/blocks.
func (r *Runner) runInstrumented(cfg topology.Config, proto core.Protocol, e pbbs.Entry, size int, opts hlpl.Options, run *obs.Run) (Result, error) {
	base := artifactBase(e.Name, proto, cfg, size, opts)

	var cap *telemetry.Capture
	var traceF io.WriteCloser
	if r.tele.Dir != "" {
		tcfg := telemetry.Config{Topology: cfg, WindowCycles: r.tele.WindowCycles}
		if r.tele.TraceDir != "" {
			name := base + ".trace.json"
			if r.tele.TraceGzip {
				name += ".gz"
			}
			var err error
			traceF, _, err = createArtifact(r.tele.Artifacts, r.tele.TraceDir, name, run)
			if err != nil {
				return Result{}, fmt.Errorf("bench: telemetry trace: %w", err)
			}
			tcfg.Trace = traceF
		}
		cap = telemetry.New(tcfg)
	}
	var led *attrib.Ledger
	if r.attrib.Dir != "" {
		led = attrib.New(r.attrib.ledgerConfig())
	}

	// Collect only the enabled sinks as interfaces: a nil *Ledger (or
	// *Capture) wrapped in a core.Sink is non-nil and would slip past
	// core.Sinks' nil filter into the engine.
	var sinks []core.Sink
	if cap != nil {
		sinks = append(sinks, cap)
	}
	if led != nil {
		sinks = append(sinks, led)
	}
	res, err := runObserved(cfg, proto, e, size, opts, r.Engine,
		func(*machine.Machine) core.Sink { return core.Sinks(sinks...) }, r.probe)
	if cap != nil {
		if cerr := cap.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("bench: telemetry trace: %w", cerr)
		}
	}
	if traceF != nil {
		if cerr := traceF.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("bench: telemetry trace: %w", cerr)
		}
	}
	if err != nil {
		return Result{}, err
	}

	if cap != nil {
		for _, art := range []struct {
			name  string
			write func(io.Writer) error
		}{
			{base + ".windows.csv", cap.Windows.WriteCSV},
			{base + ".windows.jsonl", cap.Windows.WriteJSONL},
			{base + ".phases.csv", cap.Phases.WriteCSV},
			{base + ".heatmap.csv", cap.Heat.WriteCSV},
		} {
			if werr := writeArtifact(r.tele.Artifacts, r.tele.Dir, art.name, run, art.write); werr != nil {
				return Result{}, fmt.Errorf("bench: telemetry: %w", werr)
			}
		}
	}
	if led != nil {
		// The reconciliation invariant: the ledger must sum exactly to the
		// measured cycle count. A residue means the Advance plumbing broke —
		// fail the run rather than report unsound attribution.
		if rerr := led.Reconcile(res.Cycles); rerr != nil {
			return Result{}, fmt.Errorf("bench: %s: %w", base, rerr)
		}
		for _, art := range []struct {
			name  string
			write func(io.Writer) error
		}{
			{base + ".attrib.jsonl", led.WriteJSONL},
			{base + ".blocks.jsonl", led.Flight().WriteJSONL},
		} {
			if werr := writeArtifact(r.attrib.Artifacts, r.attrib.Dir, art.name, run, art.write); werr != nil {
				return Result{}, fmt.Errorf("bench: attrib: %w", werr)
			}
		}
		if run != nil {
			run.SetBlocks(led.Flight().Summaries())
		}
		r.attribCtr.runs.Add(1)
		r.attribCtr.cycles.Add(res.Cycles)
		r.attribCtr.accounts.Add(uint64(len(led.Rows())))
		r.attribCtr.blocks.Add(uint64(len(led.Flight().Blocks())))
	}
	return res, nil
}
