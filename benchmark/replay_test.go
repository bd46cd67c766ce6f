package main

import (
	"strings"
	"testing"

	"warden/internal/core"
	"warden/internal/engine"
	"warden/internal/machine"
	"warden/internal/pbbs"
	"warden/internal/topology"
)

// recordSmall records one Small cell and returns the recording, the
// recorded run, and the engine op count of an unobserved run.
func recordSmall(t *testing.T, bench, proto string, cfg topology.Config) (*recording, cellRun, uint64) {
	t.Helper()
	e, err := pbbs.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	c := cell{entry: e, proto: core.Protocols(proto)[0], cfg: cfg, size: e.Small}
	rec := newRecording(cfg, c.proto)
	run := runCell(c, rec.attach)
	rec.finish()
	if run.err != nil {
		t.Fatal(run.err)
	}
	var probe engine.Probe
	bare := runCell(c, func(m *machine.Machine) core.Sink { m.SetProbe(&probe); return nil })
	if bare.err != nil {
		t.Fatal(bare.err)
	}
	if bare.cycles != run.cycles || bare.counters != run.counters {
		t.Fatalf("%s: recording perturbed the run", c)
	}
	_, ops := probe.Sample()
	return rec, bare, ops
}

// TestReplaysAreExact replays the prototype's four cells (at Small size)
// through each layer and requires every replay to reproduce the original
// cycles and counters, and the recording to account for every engine op.
func TestReplaysAreExact(t *testing.T) {
	for _, tc := range []struct {
		bench, proto string
		cfg          topology.Config
	}{
		{"msort", "warden", topology.XeonGold6126(1)},
		{"primes", "mesi", topology.XeonGold6126(1)},
		{"suffix-array", "sisd", topology.XeonGold6126(2)},
		{"dedup", "warden", serialSlice()},
	} {
		t.Run(tc.bench+"/"+tc.proto+"/"+tc.cfg.Name, func(t *testing.T) {
			rec, bare, ops := recordSmall(t, tc.bench, tc.proto, tc.cfg)
			if got := rec.engineOps(); got != ops {
				t.Errorf("recording accounts for %d engine ops, the run executed %d", got, ops)
			}
			if _, err := replayAll(rec, &bare, func(_ string, fn func()) { fn() }); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestReplayDetectsDivergence checks that the exactness checks bite: a
// recording with one op's advance or latency altered must fail.
func TestReplayDetectsDivergence(t *testing.T) {
	rec, bare, _ := recordSmall(t, "primes", "warden", topology.XeonGold6126(1))
	adv := rec.advances[0]
	adv[len(adv)-1] += 1 << 30
	_, err := replayAll(rec, &bare, func(_ string, fn func()) { fn() })
	if err == nil || !strings.Contains(err.Error(), "engine replay") {
		t.Errorf("altered advance: got %v, want an engine replay mismatch", err)
	}
	adv[len(adv)-1] -= 1 << 30

	for i := range rec.ops {
		if o := &rec.ops[i]; o.kind == core.EvLoad {
			o.lat++
			break
		}
	}
	_, err = replayAll(rec, &bare, func(_ string, fn func()) { fn() })
	if err == nil || !strings.Contains(err.Error(), "core replay") {
		t.Errorf("altered latency: got %v, want a core replay mismatch", err)
	}
}
