package main

import (
	"math/rand"
	"testing"

	"warden/internal/bench"
	"warden/internal/hlpl"
	"warden/internal/topology"
)

// TestReplicaMatchesHarness pins the benchmark's per-cell call sequence to
// the harness it stands in for: runCell must produce exactly the
// bench.Result that bench.RunOne does.
func TestReplicaMatchesHarness(t *testing.T) {
	w := &workload{cfg: topology.XeonGold6126(1), protos: []string{"mesi", "warden"}}
	for _, c := range w.cellsOf([]string{"dedup", "msort", "primes"}) {
		r := runCell(c, nil)
		if r.err != nil {
			t.Fatal(r.err)
		}
		got := bench.Result{
			Benchmark: r.entry.Name, Protocol: r.proto, Config: r.cfg, Size: r.size,
			Cycles: r.cycles, Counters: r.counters, Energy: r.energy,
		}
		want, err := bench.RunOne(c.cfg, c.proto, c.entry, c.size, hlpl.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s: benchmark result differs from bench.RunOne:\n got  %+v\n want %+v", c, got, want)
		}
	}
}

// TestSeedsGiveIdenticalDigests checks that the seed only permutes the
// host-side order of cells: two seeds give different orders and identical
// results.
func TestSeedsGiveIdenticalDigests(t *testing.T) {
	w := &workload{cfg: topology.XeonGold6126(1), protos: []string{"mesi", "warden"}}
	cells := w.cellsOf([]string{"fib", "nqueens", "primes", "tokens"})
	o1 := rand.New(rand.NewSource(1)).Perm(len(cells))
	o2 := rand.New(rand.NewSource(2)).Perm(len(cells))
	same := true
	for i := range o1 {
		same = same && o1[i] == o2[i]
	}
	if same {
		t.Fatal("seeds 1 and 2 give the same dispatch order")
	}
	d1 := digest(sweepPass(cells, o1).runs)
	d2 := digest(sweepPass(cells, o2).runs)
	if d1.SHA256 != d2.SHA256 {
		t.Errorf("digest differs between seeds: %s vs %s", d1.SHA256, d2.SHA256)
	}
}
