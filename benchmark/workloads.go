package main

import (
	"fmt"
	"strings"

	"warden/internal/core"
	"warden/internal/pbbs"
	"warden/internal/topology"

	// SiSd registers itself with the protocol registry on import.
	_ "warden/internal/sisd"
)

// workload is one set of simulations the benchmark sweeps. Each pass runs
// every cell (benchmark x protocol) once on the workload's machine.
type workload struct {
	name    string
	why     string
	cfg     topology.Config
	protos  []string // protocol names; the first two are the MESI/WARDen pair
	benches []string
	medium  bool // Medium inputs instead of Small
	// lens runs the wardenlens path: one cell at a time with an attribution
	// ledger attached, reconciled to zero residue, and a WARDen-vs-MESI
	// Explain per benchmark.
	lens bool
	// paperSpeedup is the paper's mean WARDen speedup for this machine
	// (0 when the paper has no matching figure).
	paperSpeedup float64
	paperFigure  string
}

// deepDive is the subset the traced run replays layer by layer: strong
// WARD beneficiaries (primes, dedup), a sort with heavy data movement
// (msort), and a divide-and-conquer geometry kernel (quickhull), the same
// spread as the harness's event-profiling set.
var deepDive = []string{"primes", "dedup", "msort", "quickhull"}

// serialSlice is one core of the paper's machine: a single hardware thread
// always holds the engine's inline lease, so the scheduler never parks and
// the runtime never steals.
func serialSlice() topology.Config {
	c := topology.XeonGold6126(1)
	c.CoresPerSocket = 1
	c.Name = "xeon-gold-6126-1c"
	return c
}

var workloads = []*workload{
	{
		name:         "fig7-1s",
		why:          "the paper's headline Fig. 7 sweep: 14 PBBS x MESI/WARDen on 12 simulated threads; engine park/handoff dominates host time",
		cfg:          topology.XeonGold6126(1),
		protos:       []string{"mesi", "warden"},
		benches:      pbbs.Names(),
		paperSpeedup: 1.24,
		paperFigure:  "Fig. 7",
	},
	{
		name:         "threeway-2s",
		why:          "14 PBBS x MESI/WARDen/SiSd on 24 threads across sockets: three memory-system paths, the heaviest allocation and GC",
		cfg:          topology.XeonGold6126(2),
		protos:       []string{"mesi", "warden", "sisd"},
		benches:      pbbs.Names(),
		paperSpeedup: 1.46,
		paperFigure:  "Fig. 8",
	},
	{
		name:    "serial-medium",
		why:     "14 PBBS x MESI/WARDen on one core at Medium size: the engine never parks and hlpl never steals; working sets spill the caches",
		cfg:     serialSlice(),
		protos:  []string{"mesi", "warden"},
		benches: pbbs.Names(),
		medium:  true,
	},
	{
		name:         "lens-2s",
		why:          "the wardenlens warden:mesi path on 6 benchmarks, one run at a time with an attribution ledger: the only workload with an event sink",
		cfg:          topology.XeonGold6126(2),
		protos:       []string{"warden", "mesi"},
		benches:      []string{"primes", "dedup", "msort", "quickhull", "suffix-array", "tokens"},
		lens:         true,
		paperSpeedup: 1.46,
		paperFigure:  "Fig. 8",
	},
}

func workloadByName(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// cell is one simulation: a benchmark under a protocol on a machine.
type cell struct {
	entry pbbs.Entry
	proto core.Protocol
	cfg   topology.Config
	size  int
}

func (c cell) String() string { return c.entry.Name + "/" + c.proto.String() }

// cells lists the workload's cells, benchmark-major in suite order.
func (w *workload) cells() []cell {
	return w.cellsOf(w.benches)
}

// cellsOf lists the cells for the named benchmarks under every protocol of
// the workload.
func (w *workload) cellsOf(benches []string) []cell {
	var out []cell
	for _, name := range benches {
		e, err := pbbs.ByName(name)
		if err != nil {
			panic(err) // the workload table names suite members only
		}
		size := e.Small
		if w.medium {
			size = e.Medium
		}
		for _, p := range core.Protocols(w.protos...) {
			out = append(out, cell{entry: e, proto: p, cfg: w.cfg, size: size})
		}
	}
	return out
}

// sizeName names the workload's input size class.
func (w *workload) sizeName() string {
	if w.medium {
		return "medium"
	}
	return "small"
}
