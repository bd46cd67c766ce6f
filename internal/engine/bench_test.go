package engine

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// BenchmarkEngineOpOverhead measures the engine's per-operation host cost
// with a trivial handler. threads=1 exercises the inline-lease fast path
// (the thread's lease never ends, so Call never parks); higher thread
// counts advance in lockstep, forcing a park and resume on every
// operation — the slow path's upper bound. The spin cases run the same
// loop through Thread.Spin, so the hub executes every op and calls the
// step function without resuming any coroutine. Lockstep keeps the
// scheduler's pick order periodic; the irregular cases advance each op by
// a seeded 1–40 cycles, the spread of hlpl's steal-loop probes, so the
// pick order is as data-dependent as in a simulated run.
func BenchmarkEngineOpOverhead(b *testing.B) {
	cases := []struct {
		threads   int
		spin      bool
		irregular bool
	}{
		{1, false, false}, {4, false, false}, {24, false, false},
		{4, true, false}, {24, true, false},
		{24, false, true}, {96, false, true},
		{24, true, true}, {96, true, true},
	}
	for _, c := range cases {
		name := fmt.Sprintf("threads=%d", c.threads)
		if c.irregular {
			name = "irregular/" + name
		}
		if c.spin {
			name = "spin/" + name
		}
		b.Run(name, func(b *testing.B) {
			threads := c.threads
			e := New(threads, func(t *Thread, op Op) uint64 { return uint64(op.(simpleOp)) })
			per := b.N/threads + 1
			for id := 0; id < threads; id++ {
				ops := benchOps(id, c.irregular)
				e.SetBody(id, func(t *Thread) {
					if c.spin {
						i := 0
						t.Spin(func() Op {
							if i == per {
								return nil
							}
							i++
							return ops[i%len(ops)]
						})
						return
					}
					for i := 0; i < per; i++ {
						t.Call(ops[i%len(ops)])
					}
				})
			}
			b.ReportAllocs()
			b.ResetTimer()
			if _, err := e.Run(); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(threads*per)/float64(b.N), "ops/iter")
		})
	}
}

// benchOps returns the ops benchmark thread id cycles through: each
// advances its clock by 1, or, if irregular, by 1–40 cycles drawn from a
// generator seeded with id.
func benchOps(id int, irregular bool) []Op {
	rng := rand.New(rand.NewSource(int64(id)))
	ops := make([]Op, 1024)
	for i := range ops {
		adv := 1
		if irregular {
			adv = 1 + rng.Intn(40)
		}
		ops[i] = simpleOp(adv)
	}
	return ops
}

// BenchmarkEngineSequentialVsPDES compares the two schedulers on a
// local-heavy workload (each thread runs long compute bursts between
// global synchronization points — the shape PDES targets), sweeping
// simulated thread counts × GOMAXPROCS. On a single-core host PDES can
// only lose (goroutine parking without parallelism); the interesting
// numbers come from GOMAXPROCS>1.
func BenchmarkEngineSequentialVsPDES(b *testing.B) {
	hostCPUs := runtime.NumCPU()
	procs := []int{1}
	if hostCPUs >= 4 {
		procs = append(procs, 4)
	} else if hostCPUs > 1 {
		procs = append(procs, hostCPUs)
	}
	build := func(threads int, pdes bool) *Engine {
		e := New(threads, func(t *Thread, op Op) uint64 { return 1 })
		if pdes {
			e.SetPDES(PDESConfig{
				Window: 256,
				Local:  func(t *Thread, op Op) uint64 { return uint64(op.(localOp)) },
			})
		}
		for id := 0; id < threads; id++ {
			e.SetBody(id, func(t *Thread) {
				for i := 0; i < 2000; i++ {
					for k := 0; k < 32; k++ { // local burst
						t.Call(localOp(4))
					}
					t.Call(globalOp(1)) // synchronization point
				}
			})
		}
		return e
	}
	for _, engine := range []string{"seq", "pdes"} {
		for _, threads := range []int{4, 16} {
			for _, p := range procs {
				name := fmt.Sprintf("engine=%s/threads=%d/gomaxprocs=%d", engine, threads, p)
				b.Run(name, func(b *testing.B) {
					b.ReportAllocs()
					prev := runtime.GOMAXPROCS(p)
					defer runtime.GOMAXPROCS(prev)
					ops := threads * 2000 * 33
					for i := 0; i < b.N; i++ {
						if _, err := build(threads, engine == "pdes").Run(); err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(float64(ops), "simops/iter")
				})
			}
		}
	}
}
