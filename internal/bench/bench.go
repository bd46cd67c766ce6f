// Package bench is the experiment harness: it runs (benchmark × protocol ×
// topology) matrices on the simulator and regenerates every table and
// figure of the paper's evaluation (§7) as text reports. The per-experiment
// index in DESIGN.md maps each paper artifact to the functions here.
package bench

import (
	"fmt"
	"math"
	"strconv"
	"sync"
	"sync/atomic"

	"warden/internal/core"
	"warden/internal/energy"
	"warden/internal/engine"
	"warden/internal/hlpl"
	"warden/internal/machine"
	"warden/internal/obs"
	"warden/internal/pbbs"
	"warden/internal/runner"
	"warden/internal/stats"
	"warden/internal/topology"
)

// Result is one benchmark run on one machine.
type Result struct {
	Benchmark string
	Protocol  core.Protocol
	Config    topology.Config
	Size      int
	Cycles    uint64
	Counters  stats.Counters
	Energy    energy.Breakdown
}

// IPC returns the run's instructions per cycle.
func (r Result) IPC() float64 { return r.Counters.IPC(r.Cycles) }

// RunOne executes one benchmark at the given size on a fresh machine and
// returns its measurements. Results are verified; a verification failure is
// an error (a coherence bug, not a measurement).
func RunOne(cfg topology.Config, proto core.Protocol, entry pbbs.Entry, size int, opts hlpl.Options) (Result, error) {
	return runObserved(cfg, proto, entry, size, opts, machine.EngineSequential, nil, nil)
}

// Comparison is one benchmark's MESI-vs-WARDen measurement pair with the
// derived metrics the figures chart.
type Comparison struct {
	Name   string
	MESI   Result
	WARDen Result
}

// Speedup is MESI cycles over WARDen cycles (Figs. 7a, 8a, 12a).
func (c Comparison) Speedup() float64 {
	if c.WARDen.Cycles == 0 {
		return 0
	}
	return float64(c.MESI.Cycles) / float64(c.WARDen.Cycles)
}

// TotalEnergySavings is the percent reduction in total processor energy.
func (c Comparison) TotalEnergySavings() float64 {
	return energy.Savings(c.MESI.Energy.Total, c.WARDen.Energy.Total)
}

// InterconnectSavings is the percent reduction in interconnect energy.
func (c Comparison) InterconnectSavings() float64 {
	return energy.Savings(c.MESI.Energy.Interconnect, c.WARDen.Energy.Interconnect)
}

// InProcessorSavings is the percent reduction in in-processor energy
// (Fig. 12b's third series).
func (c Comparison) InProcessorSavings() float64 {
	return energy.Savings(c.MESI.Energy.InProcessor(), c.WARDen.Energy.InProcessor())
}

// InvDgReduced is the number of invalidations+downgrades WARDen avoided.
func (c Comparison) InvDgReduced() int64 {
	m := int64(c.MESI.Counters.Invalidations + c.MESI.Counters.Downgrades)
	w := int64(c.WARDen.Counters.Invalidations + c.WARDen.Counters.Downgrades)
	return m - w
}

// InvDgReducedPerKilo is avoided invalidations+downgrades per 1000
// executed instructions (Fig. 9's left axis).
func (c Comparison) InvDgReducedPerKilo() float64 {
	if c.MESI.Counters.Instructions == 0 {
		return 0
	}
	return float64(c.InvDgReduced()) * 1000 / float64(c.MESI.Counters.Instructions)
}

// ReductionShares splits the avoided coherence events into downgrade and
// invalidation percentages (Fig. 10). Shares are of the total reduction;
// if nothing was reduced both are zero.
func (c Comparison) ReductionShares() (downPct, invPct float64) {
	dInv := int64(c.MESI.Counters.Invalidations) - int64(c.WARDen.Counters.Invalidations)
	dDg := int64(c.MESI.Counters.Downgrades) - int64(c.WARDen.Counters.Downgrades)
	tot := dInv + dDg
	if tot == 0 {
		return 0, 0
	}
	return 100 * float64(dDg) / float64(tot), 100 * float64(dInv) / float64(tot)
}

// IPCImprovement is the percent IPC change from MESI to WARDen (Fig. 11).
// It can be negative even for sped-up benchmarks (the paper's ray): fewer
// busy-wait instructions lower IPC while improving time.
func (c Comparison) IPCImprovement() float64 {
	m := c.MESI.IPC()
	if m == 0 {
		return 0
	}
	return 100 * (c.WARDen.IPC() - m) / m
}

// SizeClass selects the preset input sizes.
type SizeClass int

const (
	// Small runs in well under a second per benchmark — unit-test scale.
	Small SizeClass = iota
	// Medium is the evaluation scale (the paper tunes inputs the same way,
	// §7.1).
	Medium
)

func (s SizeClass) pick(e pbbs.Entry) int {
	if s == Small {
		return e.Small
	}
	return e.Medium
}

// Runner executes benchmark runs, fanning independent simulations across
// host cores and memoizing results so the figures that share a run matrix
// (Figs. 8–11 all use the dual-socket runs) simulate each configuration
// once per process. Each simulation is bit-reproducible and results are
// aggregated in job order, so the rendered reports are byte-identical at
// every parallelism level (asserted by TestParallelMatchesSequential).
type Runner struct {
	Sizes SizeClass
	Opts  hlpl.Options
	// Engine selects the simulation scheduler for every run this runner
	// executes (default sequential). It is part of the memo key even
	// though both modes produce identical Results, so that engine-timing
	// comparisons (EngineComparison) measure real simulations rather than
	// memo recalls.
	Engine machine.EngineMode
	pool   *runner.Pool
	memo   runner.Memo[Result]
	// Progress, if set, is called before each uncached simulation. Calls
	// are serialized, but under a parallel pool their order varies run to
	// run (simulation results never do).
	Progress func(msg string)
	progMu   sync.Mutex

	// tele enables per-run telemetry artifacts (see SetTelemetry). The memo
	// key does not include it: telemetry never changes a measurement, so a
	// Result is the same with or without artifacts.
	tele TelemetryConfig

	// attrib enables per-run cycle-attribution artifacts (see SetAttrib).
	// Excluded from the memo key for the same reason as tele; attribCtr
	// feeds the warden_attrib_* metric families.
	attrib    AttribConfig
	attribCtr attribCounters

	// probe and reg are the observability plane's hooks (SetProbe,
	// SetObserver). Both are host-side only and excluded from the memo
	// key for the same reason telemetry is: they cannot change a Result.
	probe *engine.Probe
	reg   *obs.Registry

	simCycles atomic.Uint64 // total cycles of uncached simulations
	simRuns   atomic.Uint64 // number of uncached simulations
}

// NewRunner returns a sequential runner at the given size class with
// paper-faithful runtime options. Use SetParallel to fan out.
func NewRunner(sizes SizeClass) *Runner {
	return &Runner{Sizes: sizes, Opts: hlpl.DefaultOptions(), pool: runner.New(1)}
}

// SetParallel bounds how many simulations run concurrently on the host:
// 1 is sequential, 0 selects one per host core (GOMAXPROCS).
func (r *Runner) SetParallel(n int) { r.pool = runner.New(n) }

// Parallel reports the current host-parallelism bound.
func (r *Runner) Parallel() int { return r.pool.Workers() }

// SimulatedCycles returns the total simulated cycles and run count of the
// uncached simulations executed so far (memo hits add nothing).
func (r *Runner) SimulatedCycles() (cycles, runs uint64) {
	return r.simCycles.Load(), r.simRuns.Load()
}

// NoteExternalSim credits a simulation executed outside the runner's memo
// path (figure helpers like Table1, engine-timing sweeps) to the runner's
// cycle and run totals, so perfdb step records report real throughput.
func (r *Runner) NoteExternalSim(cycles uint64) {
	r.simCycles.Add(cycles)
	r.simRuns.Add(1)
}

// SetProbe attaches a live engine progress probe to every subsequent
// uncached simulation. The probe is shared across concurrent machines;
// its counters are readable from any goroutine via Probe.Sample.
func (r *Runner) SetProbe(p *engine.Probe) { r.probe = p }

// SetObserver registers every subsequent uncached simulation as a run in
// reg, with wall-clock, cycles, per-run counters, and (with telemetry
// enabled) artifact paths. Memo hits register nothing: a cached Result
// has no execution to observe.
func (r *Runner) SetObserver(reg *obs.Registry) { r.reg = reg }

// MemoStats reports the simulation memo cache's hit/miss counters.
func (r *Runner) MemoStats() runner.MemoStats { return r.memo.Stats() }

// MetricFamilies implements obs.Source: memo-cache effectiveness and the
// uncached-simulation totals, for /metrics.
func (r *Runner) MetricFamilies() []obs.Family {
	ms := r.memo.Stats()
	cycles, runs := r.SimulatedCycles()
	fams := []obs.Family{
		obs.Counter("warden_memo_hits_total",
			"Simulation memo lookups satisfied by an existing entry.", float64(ms.Hits)),
		obs.Counter("warden_memo_misses_total",
			"Simulation memo lookups that missed and had to compute.", float64(ms.Misses)),
		obs.Gauge("warden_memo_entries",
			"Distinct Simulation memo entries cached.", float64(ms.Entries)),
		obs.Counter("warden_sim_completed_cycles_total",
			"Simulated cycles of completed uncached simulations.", float64(cycles)),
		obs.Counter("warden_sim_completed_runs_total",
			"Completed uncached simulations.", float64(runs)),
	}
	return append(fams, r.attribCtr.families()...)
}

// runCounterSet is the per-run counter subset published to the run
// registry (and aggregated into warden_machine_*_total).
func recordRunCounters(run *obs.Run, res Result) {
	c := res.Counters
	for _, kv := range []struct {
		name string
		v    uint64
	}{
		{"instructions", c.Instructions},
		{"loads", c.Loads},
		{"stores", c.Stores},
		{"atomics", c.Atomics},
		{"l1_hits", c.L1Hits},
		{"l1_accesses", c.L1Accesses},
		{"dir_accesses", c.DirAccesses},
		{"dram_accesses", c.DRAMAccesses},
		{"invalidations", c.Invalidations},
		{"downgrades", c.Downgrades},
		{"messages", c.TotalMsgs()},
		{"intersocket_flits", c.IntersocketFlits},
		{"ward_accesses", c.WardAccesses},
		{"reconciled_blocks", c.ReconciledBlocks},
	} {
		run.SetCounter(kv.name, kv.v)
	}
}

// runWith executes (or recalls) one fully-specified simulation. The memo
// key fingerprints every field of the config and options, so ablation
// sweeps that mutate a config without renaming it still get distinct
// entries.
func (r *Runner) runWith(cfg topology.Config, proto core.Protocol, e pbbs.Entry, size int, opts hlpl.Options) (Result, error) {
	key := runner.Fingerprint(cfg, proto, e.Name, size, opts, r.Engine)
	return r.memo.Do(key, func() (Result, error) {
		if r.Progress != nil {
			r.progMu.Lock()
			r.Progress(fmt.Sprintf("simulating %-13s %-7v on %s (size %d)", e.Name, proto, cfg.Name, size))
			r.progMu.Unlock()
		}
		var run *obs.Run
		if r.reg != nil {
			run = r.reg.NewRun("simulation",
				fmt.Sprintf("%s/%v/%s", e.Name, proto, cfg.Name),
				map[string]string{
					"benchmark": e.Name,
					"protocol":  fmt.Sprint(proto),
					"machine":   cfg.Name,
					"size":      strconv.Itoa(size),
				})
			run.Start()
		}
		var res Result
		var err error
		if r.tele.Dir != "" || r.attrib.Dir != "" {
			res, err = r.runInstrumented(cfg, proto, e, size, opts, run)
		} else {
			res, err = runObserved(cfg, proto, e, size, opts, r.Engine, nil, r.probe)
		}
		if run != nil {
			if err == nil {
				recordRunCounters(run, res)
			}
			run.Finish(res.Cycles, err)
		}
		if err != nil {
			return Result{}, err
		}
		r.simCycles.Add(res.Cycles)
		r.simRuns.Add(1)
		return res, nil
	})
}

func (r *Runner) run(cfg topology.Config, proto core.Protocol, e pbbs.Entry) (Result, error) {
	return r.runWith(cfg, proto, e, r.Sizes.pick(e), r.Opts)
}

// warm fans n fully-specified simulations across the pool so that later,
// sequential report rendering hits the memo. spec(i) describes job i; its
// size is the runner's size class.
func (r *Runner) warm(n int, spec func(i int) (topology.Config, core.Protocol, pbbs.Entry, hlpl.Options)) error {
	_, err := runner.Map(r.pool, n, func(i int) (Result, error) {
		cfg, proto, e, opts := spec(i)
		return r.runWith(cfg, proto, e, r.Sizes.pick(e), opts)
	})
	return err
}

// Compare runs one benchmark under both protocols on cfg.
func (r *Runner) Compare(cfg topology.Config, e pbbs.Entry) (Comparison, error) {
	protos := core.Protocols("mesi", "warden")
	res, err := runner.Map(r.pool, len(protos), func(i int) (Result, error) {
		return r.run(cfg, protos[i], e)
	})
	if err != nil {
		return Comparison{}, err
	}
	return Comparison{Name: e.Name, MESI: res[0], WARDen: res[1]}, nil
}

// CompareAll runs the whole suite (or the named subset) on cfg. All
// (benchmark × protocol) cells fan out across the runner's pool; the
// returned slice follows the input order regardless of parallelism.
func (r *Runner) CompareAll(cfg topology.Config, names []string) ([]Comparison, error) {
	entries := pbbs.Suite
	if names != nil {
		entries = nil
		for _, n := range names {
			e, err := pbbs.ByName(n)
			if err != nil {
				return nil, err
			}
			entries = append(entries, e)
		}
	}
	protos := core.Protocols("mesi", "warden")
	res, err := runner.Map(r.pool, len(entries)*len(protos), func(i int) (Result, error) {
		return r.run(cfg, protos[i%len(protos)], entries[i/len(protos)])
	})
	if err != nil {
		return nil, err
	}
	out := make([]Comparison, len(entries))
	for i, e := range entries {
		out[i] = Comparison{Name: e.Name, MESI: res[2*i], WARDen: res[2*i+1]}
	}
	return out, nil
}

// geomean returns the geometric mean of vals (the MEAN bar of the figures).
func geomean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	prod := 1.0
	for _, v := range vals {
		if v <= 0 {
			return 0
		}
		prod *= v
	}
	return math.Pow(prod, 1.0/float64(len(vals)))
}

// mean returns the arithmetic mean of vals (used for percentage series).
func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var s float64
	for _, v := range vals {
		s += v
	}
	return s / float64(len(vals))
}
