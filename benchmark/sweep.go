package main

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"warden/internal/attrib"
	"warden/internal/core"
	"warden/internal/machine"
)

// minPasses is the fewest measured passes a run makes, whatever its time
// budget: the per-cell medians need at least this many samples.
const minPasses = 4

// pass is the host cost and outcome of one pass over a workload's cells.
type pass struct {
	runs     []cellRun       // in workload cell order
	refs     []time.Duration // the reference task run before each cell, in cell order
	host     hostDelta
	peakHeap uint64
	setup    time.Duration // summed over cells
	failures []error
}

// sweep runs w for the time budget and reports the end-to-end metrics.
// Passes run back to back until seconds have elapsed (at least minPasses);
// each runs every cell once in an order drawn from seed.
func sweep(w *workload, seed int64, seconds int, want golden, out io.Writer) (report, error) {
	cells := w.cells()
	rng := rand.New(rand.NewSource(seed))

	// One untimed cell first, so lazy runtime and heap growth are paid
	// before measuring.
	if r := runCell(cells[0], nil); r.err != nil {
		return report{}, fmt.Errorf("warm-up: %w", r.err)
	}

	heap := startHeapSampler()
	defer heap.close()
	var passes []pass
	budget := time.Duration(seconds) * time.Second
	start := time.Now()
	for len(passes) < minPasses || time.Since(start) < budget {
		order := rng.Perm(len(cells))
		heap.reset()
		h0 := readHost()
		var p pass
		if w.lens {
			p = lensPass(w, cells, order)
		} else {
			p = sweepPass(cells, order)
		}
		p.host = h0.to(readHost())
		p.peakHeap = heap.reset()
		for i := range p.runs {
			r := &p.runs[i]
			p.setup += r.setup()
			if r.err == nil {
				if got := sha(resultLine(r)); got != want.Cells[r.String()] {
					r.err = fmt.Errorf("%s: result digest %.12s does not match golden %.12s", r, got, want.Cells[r.String()])
				}
			}
			if r.err != nil {
				p.failures = append(p.failures, r.err)
			}
		}
		fmt.Fprintf(out, "pass %2d: %7.3f s wall %7.3f s cpu  %3d cells  %d failed\n",
			len(passes)+1, p.host.wall.Seconds(), p.host.cpu.Seconds(), len(p.runs), len(p.failures))
		passes = append(passes, p)
	}
	return sweepReport(w, passes, want, out), nil
}

// sweepPass runs every cell once, one at a time in the given order, each
// right after the reference task.
func sweepPass(cells []cell, order []int) pass {
	p := pass{runs: make([]cellRun, len(cells)), refs: make([]time.Duration, len(cells))}
	for _, k := range order {
		p.refs[k] = refTask()
		p.runs[k] = runCell(cells[k], nil)
	}
	return p
}

// lensPass is one `wardenlens -explain warden:mesi` pass. Benchmarks run in
// the order of their first cells in order. Each runs under both protocols,
// one cell at a time with an attribution ledger attached; each ledger must
// reconcile to the measured cycles, and the cycle delta is then explained.
func lensPass(w *workload, cells []cell, order []int) pass {
	np := len(w.protos)
	p := pass{runs: make([]cellRun, len(cells)), refs: make([]time.Duration, len(cells))}
	for _, k := range order {
		if k%np != 0 {
			continue
		}
		leds := make([]*attrib.Ledger, np)
		for j := 0; j < np; j++ {
			led := attrib.New(attrib.Config{})
			leds[j] = led
			p.refs[k+j] = refTask()
			r := runCell(cells[k+j], func(*machine.Machine) core.Sink { return led })
			t0 := time.Now()
			if r.err == nil {
				r.err = led.Reconcile(r.cycles)
			}
			r.verify += time.Since(t0)
			p.runs[k+j] = r
		}
		subj, base := &p.runs[k], &p.runs[k+1]
		if subj.err != nil || base.err != nil {
			continue
		}
		ex, err := attrib.Explain(w.protos[0], leds[0], subj.cycles, w.protos[1], leds[1], base.cycles)
		if err == nil {
			err = ex.WriteText(io.Discard, 10)
		}
		if err != nil {
			subj.err = fmt.Errorf("%s: explain: %w", subj.entry.Name, err)
		}
	}
	return p
}

// endToEnd lists the end-to-end metrics, in print order, with their units.
// A "ref" is the host time of the reference task run right before a cell.
var endToEnd = []metricDef{
	{"pass_time", "ref"}, {"cell_p50", "ref"},
	{"setup_s", "s"}, {"alloc_mb", "MB"}, {"peak_heap_mb", "MB"},
}

// sweepReport folds the passes into the end-to-end metrics, printing each
// with its unit, the raw host times behind them, the checks behind
// "correct", and the simulated speedup beside the paper's.
//
// Each cell's latency in a pass is divided by the reference task run just
// before it; a cell's time is the median of these ratios over the passes.
// pass_time sums the cells' times and cell_p50 is their median.
func sweepReport(w *workload, passes []pass, want golden, out io.Writer) report {
	cellRef := make([][]float64, len(passes[0].runs))
	var walls, cpus, setups, allocs, peaks, rates, lat, refs []float64
	attempted, failed := 0, 0
	for _, p := range passes {
		var instr uint64
		for i := range p.runs {
			l := p.runs[i].latency()
			cellRef[i] = append(cellRef[i], float64(l)/float64(p.refs[i]))
			instr += p.runs[i].counters.Instructions
			lat = append(lat, l.Seconds()*1e3)
			refs = append(refs, p.refs[i].Seconds()*1e6)
		}
		attempted += len(p.runs)
		failed += len(p.failures)
		walls = append(walls, p.host.wall.Seconds())
		cpus = append(cpus, p.host.cpu.Seconds())
		setups = append(setups, p.setup.Seconds())
		allocs = append(allocs, float64(p.host.allocBytes)/1e6)
		peaks = append(peaks, float64(p.peakHeap)/1e6)
		rates = append(rates, float64(instr)/1e6/p.host.wall.Seconds())
		for _, err := range p.failures {
			fmt.Fprintf(out, "FAIL %v\n", err)
		}
	}
	cellTimes := make([]float64, len(cellRef))
	var passTime float64
	for i, xs := range cellRef {
		cellTimes[i] = median(xs)
		passTime += cellTimes[i]
	}
	m := metricsOf(endToEnd, map[string]float64{
		"pass_time":    passTime,
		"cell_p50":     median(cellTimes),
		"setup_s":      median(setups),
		"alloc_mb":     median(allocs),
		"peak_heap_mb": median(peaks),
	})
	fmt.Fprintf(out, "\n%d passes, %d cells attempted, %d failed (fail_frac %g)\n",
		len(passes), attempted, failed, float64(failed)/float64(attempted))
	notes := map[string]string{
		"pass_time": fmt.Sprintf("sum over %d cells of each cell's median over %d passes", len(cellTimes), len(passes)),
		"cell_p50":  fmt.Sprintf("median over %d cells of each cell's median over %d passes", len(cellTimes), len(passes)),
	}
	for _, d := range endToEnd {
		note, ok := notes[d.name]
		if !ok {
			note = fmt.Sprintf("median of %d passes", len(passes))
		}
		fmt.Fprintf(out, "%-17s %12.4f %-9s %s\n", d.name, m[d.name].Value, d.unit, note)
	}
	tailP := tailPercentile(len(lat))
	fmt.Fprintf(out, "raw host times, which drift with the host's speed:\n")
	fmt.Fprintf(out, "  ref_us            %12.1f us        median of n=%d reference tasks\n", median(refs), len(refs))
	fmt.Fprintf(out, "  wall_s            %12.4f s         median of %d passes\n", median(walls), len(passes))
	fmt.Fprintf(out, "  cpu_s             %12.4f s         median of %d passes\n", median(cpus), len(passes))
	fmt.Fprintf(out, "  sim_minstr_per_s  %12.4f Minstr/s  median of %d passes\n", median(rates), len(passes))
	fmt.Fprintf(out, "  sim_p50_ms        %12.4f ms        n=%d cell latencies\n", median(lat), len(lat))
	fmt.Fprintf(out, "  sim_tail_ms       %12.4f ms        p%g of n=%d cell latencies\n", percentile(lat, tailP), tailP, len(lat))

	// Simulated results are the same in every pass; report the last one.
	last := passes[len(passes)-1].runs
	got := digest(last)
	fmt.Fprintf(out, "result digest     sha256:%s (golden %s)\n", got.SHA256, map[bool]string{true: "matches", false: "DIFFERS"}[got.SHA256 == want.SHA256])
	sp := wardenSpeedup(last, len(w.protos))
	fmt.Fprintf(out, "warden_speedup    %.4fx simulated (geomean MESI/WARDen cycles)", sp)
	if w.paperSpeedup > 0 {
		fmt.Fprintf(out, "; paper %s mean %.2fx, error %+.1f%%\n", w.paperFigure, w.paperSpeedup, 100*(sp-w.paperSpeedup)/w.paperSpeedup)
	} else {
		fmt.Fprintf(out, "; the paper has no one-core figure to compare against\n")
	}
	return report{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}
}

// wardenSpeedup is the geometric mean over benchmarks of MESI cycles over
// WARDen cycles, from runs in workload cell order with np protocols each.
func wardenSpeedup(runs []cellRun, np int) float64 {
	var sp []float64
	for k := 0; k+np <= len(runs); k += np {
		var mesi, warden uint64
		for _, r := range runs[k : k+np] {
			switch r.proto.String() {
			case "MESI":
				mesi = r.cycles
			case "WARDen":
				warden = r.cycles
			}
		}
		if warden > 0 {
			sp = append(sp, float64(mesi)/float64(warden))
		}
	}
	return geomean(sp)
}
