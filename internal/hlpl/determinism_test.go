package hlpl_test

import (
	"reflect"
	"testing"

	"warden/internal/core"
	"warden/internal/hlpl"
	"warden/internal/machine"
	"warden/internal/pbbs"
	"warden/internal/stats"
	"warden/internal/topology"
)

// runOnce executes one small benchmark end-to-end on a fresh machine and
// returns its full measurement state.
func runOnce(t *testing.T, name string) (uint64, stats.Counters) {
	t.Helper()
	e, err := pbbs.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	cfg := topology.XeonGold6126(1)
	cfg.CoresPerSocket = 4
	m := machine.New(cfg, core.WARDen)
	w := e.New(e.Small)
	if w.Prepare != nil {
		w.Prepare(m)
	}
	rt := hlpl.New(m, hlpl.DefaultOptions())
	cycles, err := rt.Run(w.Root)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Verify(m); err != nil {
		t.Fatal(err)
	}
	return cycles, *m.Counters()
}

// TestRunDeterministicUnderRace guards the engine's "exactly one coroutine
// runs, strict (clock, id) order" invariant, which the inline-lease fast
// path depends on: two end-to-end runs of the same benchmark must report
// bit-identical cycle counts and counters. Running this under `go test
// -race` (CI does) additionally proves the coroutine switches establish
// happens-before edges for all simulator state.
func TestRunDeterministicUnderRace(t *testing.T) {
	for _, name := range []string{"fib", "primes"} {
		c1, ctr1 := runOnce(t, name)
		c2, ctr2 := runOnce(t, name)
		if c1 != c2 {
			t.Fatalf("%s: cycles differ across runs: %d vs %d", name, c1, c2)
		}
		if !reflect.DeepEqual(ctr1, ctr2) {
			t.Fatalf("%s: counters differ across runs:\n%+v\n%+v", name, ctr1, ctr2)
		}
	}
}
