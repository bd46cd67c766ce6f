package bench

import (
	"strings"
	"testing"

	"warden/internal/core"
	"warden/internal/hlpl"
	"warden/internal/machine"
	"warden/internal/pbbs"
	"warden/internal/stats"
	"warden/internal/topology"
)

func eventsTestConfig() topology.Config {
	cfg := topology.XeonGold6126(1)
	cfg.CoresPerSocket = 4
	return cfg
}

// TestInvariantChecker runs the per-event invariant checker over four
// benchmarks under both protocols: every directory transaction, eviction,
// and reconciliation is validated against the private caches as it happens,
// with periodic whole-system sweeps and a final one after the drain.
func TestInvariantChecker(t *testing.T) {
	cfg := eventsTestConfig()
	for _, name := range EventsBenchmarks {
		e, err := pbbs.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, proto := range core.Protocols("mesi", "warden") {
			t.Run(name+"/"+proto.String(), func(t *testing.T) {
				var chk *core.Checker
				_, err := RunOneObserved(cfg, proto, e, e.Small, hlpl.DefaultOptions(),
					func(m *machine.Machine) core.Sink {
						chk = core.NewChecker(m.System())
						return chk
					})
				if err != nil {
					t.Fatal(err)
				}
				if err := chk.Final(); err != nil {
					t.Fatal(err)
				}
				if chk.Events() == 0 {
					t.Fatal("checker observed no events")
				}
			})
		}
	}
}

// TestObservedMatchesUnobserved asserts the tentpole's zero-cost claim from
// the other side: attaching sinks must not change simulated behaviour.
// Cycles and every architectural counter must match a nil-sink run exactly.
// A bare run also lets the engine run local ops ahead of their serialized
// turn, which a sink switches off, so this is run-ahead's differential
// too: on a small machine for primes, and on one full socket for the whole
// suite under every protocol (TestAttribMatchesUnobserved covers two).
func TestObservedMatchesUnobserved(t *testing.T) {
	primes, err := pbbs.ByName("primes")
	if err != nil {
		t.Fatal(err)
	}
	inputs := []struct {
		cfg    topology.Config
		suite  []pbbs.Entry
		protos []core.Protocol
	}{
		{eventsTestConfig(), []pbbs.Entry{primes}, core.Protocols("mesi", "warden")},
		{topology.XeonGold6126(1), pbbs.Suite, core.All()},
	}
	opts := hlpl.DefaultOptions()
	for _, in := range inputs {
		for _, e := range in.suite {
			for _, proto := range in.protos {
				plain, err := RunOne(in.cfg, proto, e, e.Small, opts)
				if err != nil {
					t.Fatal(err)
				}
				met := core.NewMetrics()
				observed, err := RunOneObserved(in.cfg, proto, e, e.Small, opts,
					func(m *machine.Machine) core.Sink {
						return core.Sinks(met, core.NewChecker(m.System()))
					})
				if err != nil {
					t.Fatal(err)
				}
				if plain.Cycles != observed.Cycles {
					t.Fatalf("%s/%v on %d cores: cycles %d (nil sink) != %d (observed)",
						e.Name, proto, in.cfg.Cores(), plain.Cycles, observed.Cycles)
				}
				if plain.Counters != observed.Counters {
					t.Fatalf("%s/%v on %d cores: counters diverge with a sink attached:\nnil:      %+v\nobserved: %+v",
						e.Name, proto, in.cfg.Cores(), plain.Counters, observed.Counters)
				}
				if met.Events == 0 {
					t.Fatal("metrics sink observed no events")
				}
			}
		}
	}
}

// deltaSum sums the counter deltas of instruction-level events; the
// protocol-internal events nest inside them and would double count.
type deltaSum struct{ s stats.Snapshot }

func (d *deltaSum) Event(ev *core.Event) {
	if !ev.Kind.Instruction() {
		return
	}
	c, s := &ev.Ctrs, &d.s
	s.L1Accesses += c.L1Accesses
	s.L1Hits += c.L1Hits
	s.L2Accesses += c.L2Accesses
	s.L2Hits += c.L2Hits
	s.L3Accesses += c.L3Accesses
	s.L3Hits += c.L3Hits
	s.DirAccesses += c.DirAccesses
	s.DRAMAccesses += c.DRAMAccesses
	s.Invalidations += c.Invalidations
	s.Downgrades += c.Downgrades
	for i := range s.Msgs {
		s.Msgs[i] += c.Msgs[i]
	}
	s.NoCFlitHops += c.NoCFlitHops
	s.IntersocketFlits += c.IntersocketFlits
	s.WardAccesses += c.WardAccesses
	s.ReconciledBlocks += c.ReconciledBlocks
	s.ReconciledSectors += c.ReconciledSectors
}

// TestEventDeltasPartitionCounters checks the event stream's accounting
// identity: the counter deltas carried by instruction-level events (the
// final EvDrain included) sum to the run's end-of-run counters, field for
// field, for every registered protocol on one and two sockets.
func TestEventDeltasPartitionCounters(t *testing.T) {
	for _, sockets := range []int{1, 2} {
		cfg := topology.XeonGold6126(sockets)
		cfg.CoresPerSocket = 4
		for _, name := range []string{"primes", "dedup", "msort", "fib"} {
			e, err := pbbs.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, proto := range core.All() {
				sum := &deltaSum{}
				res, err := RunOneObserved(cfg, proto, e, e.Small, hlpl.DefaultOptions(),
					func(*machine.Machine) core.Sink { return sum })
				if err != nil {
					t.Fatal(err)
				}
				var want stats.Snapshot
				res.Counters.SnapInto(&want)
				if sum.s != want {
					t.Errorf("%s/%v/%d sockets: event deltas do not sum to the counters:\ndeltas:   %+v\ncounters: %+v",
						name, proto, sockets, sum.s, want)
				}
			}
		}
	}
}

// TestMetricsReportDeterministic renders the events report twice and
// requires byte-identical output.
func TestMetricsReportDeterministic(t *testing.T) {
	cfg := eventsTestConfig()
	render := func() string {
		var sb strings.Builder
		if err := EventsReport(&sb, cfg, Small, []string{"primes"}, 5); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	a, b := render(), render()
	if a != b {
		t.Fatal("EventsReport output is not deterministic")
	}
	if !strings.Contains(a, "hottest blocks") || !strings.Contains(a, "sharers at transaction time") {
		t.Fatalf("report missing sections:\n%s", a)
	}
}
