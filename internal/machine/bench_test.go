package machine

import (
	"testing"

	"warden/internal/attrib"
	"warden/internal/core"
	"warden/internal/topology"
)

func benchConfig() topology.Config {
	cfg := topology.XeonGold6126(1)
	cfg.CoresPerSocket = 4
	return cfg
}

// BenchmarkL1HitPath measures the host cost of one simulated load that
// hits in the L1: operand encoding, the engine's inline fast path (the
// other cores exit immediately, so core 0 never parks), and the cache
// lookup itself. This is the dominant per-instruction cost of every
// benchmark run.
func BenchmarkL1HitPath(b *testing.B) {
	m := New(benchConfig(), core.WARDen)
	addr := m.Mem().Alloc(64, 64)
	bodies := make([]func(*Ctx), m.Config().Threads())
	bodies[0] = func(ctx *Ctx) {
		ctx.Store(addr, 8, 1)
		for i := 0; i < b.N; i++ {
			ctx.Load(addr, 8)
		}
	}
	for i := 1; i < len(bodies); i++ {
		bodies[i] = func(*Ctx) {}
	}
	b.ResetTimer()
	if _, err := m.Run(bodies); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkComputePath is BenchmarkL1HitPath's sibling for pure compute
// operations (no cache interaction at all).
func BenchmarkComputePath(b *testing.B) {
	m := New(benchConfig(), core.WARDen)
	bodies := make([]func(*Ctx), m.Config().Threads())
	bodies[0] = func(ctx *Ctx) {
		for i := 0; i < b.N; i++ {
			ctx.Compute(3)
		}
	}
	for i := 1; i < len(bodies); i++ {
		bodies[i] = func(*Ctx) {}
	}
	b.ResetTimer()
	if _, err := m.Run(bodies); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkObservedOp measures BenchmarkL1HitPath's load with no sink,
// with a sink that discards every event (the cost of building the
// instruction event alone), and with an attribution ledger (building plus
// folding).
func BenchmarkObservedOp(b *testing.B) {
	for _, c := range []struct {
		name string
		sink func() core.Sink
	}{
		{"bare", func() core.Sink { return nil }},
		{"nop", func() core.Sink { return nopSink{} }},
		{"ledger", func() core.Sink { return attrib.New(attrib.Config{}) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			m := New(benchConfig(), core.WARDen)
			m.System().SetSink(c.sink())
			addr := m.Mem().Alloc(64, 64)
			bodies := make([]func(*Ctx), m.Config().Threads())
			bodies[0] = func(ctx *Ctx) {
				ctx.Store(addr, 8, 1)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ctx.Load(addr, 8)
				}
				b.StopTimer()
			}
			for i := 1; i < len(bodies); i++ {
				bodies[i] = func(*Ctx) {}
			}
			if _, err := m.Run(bodies); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkMachineNew measures building the paper's Table 2 machine with 1
// and 2 sockets: the memory system with every cache level, the directory
// and the threads' contexts. Its bytes per op are what one run pays
// before its first instruction.
func BenchmarkMachineNew(b *testing.B) {
	for _, sockets := range []int{1, 2} {
		cfg := topology.XeonGold6126(sockets)
		b.Run(cfg.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				New(cfg, core.WARDen)
			}
		})
	}
}
