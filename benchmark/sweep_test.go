package main

import (
	"io"
	"math"
	"testing"
	"time"

	"warden/internal/topology"
)

// TestSweepReportNormalises pins how the end-to-end times are formed: each
// cell's latency is divided by the reference task run before it, a cell's
// time is the median of these ratios over the passes, pass_time sums the
// cells' times and cell_p50 is their median. A pass on a host running at
// half speed, where cells and reference tasks alike take twice as long,
// reads the same as a pass at full speed.
func TestSweepReportNormalises(t *testing.T) {
	w := &workload{cfg: topology.XeonGold6126(1), protos: []string{"mesi", "warden"}}
	cells := w.cellsOf([]string{"fib", "primes"})
	const ms = time.Millisecond
	mk := func(ref time.Duration, lat ...time.Duration) pass {
		p := pass{host: hostDelta{wall: time.Second}}
		for i, c := range cells {
			p.runs = append(p.runs, cellRun{cell: c, sim: lat[i]})
			p.refs = append(p.refs, ref)
		}
		return p
	}
	passes := []pass{
		mk(ms, 10*ms, 20*ms, 40*ms, 80*ms),
		mk(2*ms, 20*ms, 40*ms, 80*ms, 160*ms), // half host speed
		mk(ms, 12*ms, 30*ms, 40*ms, 50*ms),
	}
	rep := sweepReport(w, passes, golden{}, io.Discard)
	if !rep.Correct || rep.Attempted != 12 || rep.Failed != 0 {
		t.Fatalf("report %+v", rep)
	}
	// Cell times are 10, 20, 40 and 80 ref.
	for name, want := range map[string]float64{"pass_time": 150, "cell_p50": 30} {
		if got := rep.Metrics[name].Value; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}
