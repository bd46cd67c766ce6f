package engine

import (
	"errors"
	"runtime"
	"strings"
	"testing"
)

// simpleOp advances a thread's clock by its value.
type simpleOp uint64

// localOp is a LocalOp advancing the thread clock by its value.
type localOp uint64

func (localOp) EngineLocal() {}

func TestSingleThreadRuns(t *testing.T) {
	var executed []uint64
	e := New(1, func(_ *Thread, op Op) uint64 {
		v := uint64(op.(simpleOp))
		executed = append(executed, v)
		return v
	})
	e.SetBody(0, func(th *Thread) {
		th.Call(simpleOp(5))
		th.Call(simpleOp(7))
	})
	final, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if final != 12 {
		t.Fatalf("final clock = %d, want 12", final)
	}
	if len(executed) != 2 || executed[0] != 5 || executed[1] != 7 {
		t.Fatalf("ops executed: %v", executed)
	}
}

// TestSmallestTimeFirst: ops must execute in global simulated-time order,
// with thread-id tie-breaking.
func TestSmallestTimeFirst(t *testing.T) {
	type ev struct {
		tid  int
		when uint64
	}
	var order []ev
	e := New(3, func(th *Thread, op Op) uint64 {
		order = append(order, ev{th.ID(), th.Now()})
		return uint64(op.(simpleOp))
	})
	// Thread 0: ops at t=0, 10, 20...; thread 1: 0, 3, 6...; thread 2: 0, 7, 14.
	steps := [][]uint64{{10, 10}, {3, 3, 3}, {7, 7}}
	for i, st := range steps {
		i, st := i, st
		e.SetBody(i, func(th *Thread) {
			for _, s := range st {
				th.Call(simpleOp(s))
			}
		})
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(order); i++ {
		a, b := order[i-1], order[i]
		if a.when > b.when {
			t.Fatalf("time order violated at %d: %+v then %+v", i, a, b)
		}
		if a.when == b.when && a.tid > b.tid {
			t.Fatalf("tie-break violated at %d: %+v then %+v", i, a, b)
		}
	}
}

// TestExactlyOneRunning: the handler must never observe two threads having
// mutated shared state concurrently. We verify by having bodies bump an
// unguarded counter before each op; any data race would trip -race, and
// the serialized total must be exact.
func TestExactlyOneRunning(t *testing.T) {
	shared := 0
	e := New(8, func(_ *Thread, op Op) uint64 { return 1 })
	for i := 0; i < 8; i++ {
		e.SetBody(i, func(th *Thread) {
			for k := 0; k < 100; k++ {
				shared++ // unsynchronized on purpose
				th.Call(simpleOp(1))
			}
		})
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if shared != 800 {
		t.Fatalf("shared = %d, want 800 (lost updates => concurrency bug)", shared)
	}
}

func TestDeterministicInterleaving(t *testing.T) {
	run := func() []int {
		var order []int
		e := New(4, func(th *Thread, op Op) uint64 {
			order = append(order, th.ID())
			return uint64(op.(simpleOp))
		})
		for i := 0; i < 4; i++ {
			i := i
			e.SetBody(i, func(th *Thread) {
				for k := 0; k < 50; k++ {
					th.Call(simpleOp(uint64(1 + (i+k)%5)))
				}
			})
		}
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return order
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("different op counts across runs")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("interleaving diverged at %d", i)
		}
	}
}

// TestMaxCycles: the guard trips on a runaway thread and names the
// offending thread, its clock, and the type of the op it was about to
// execute.
func TestMaxCycles(t *testing.T) {
	e := New(2, func(_ *Thread, op Op) uint64 { return uint64(op.(simpleOp)) })
	e.MaxCycles = 1000
	e.SetBody(0, func(th *Thread) { th.Call(simpleOp(10)) })
	e.SetBody(1, func(th *Thread) {
		for { // simulated runaway
			th.Call(simpleOp(300))
		}
	})
	final, err := e.Run()
	if !errors.Is(err, ErrMaxCycles) {
		t.Fatalf("err = %v, want ErrMaxCycles", err)
	}
	if final != 1200 {
		t.Fatalf("final = %d, want 1200", final)
	}
	want := "thread 1 at cycle 1200, pending engine.simpleOp"
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("err = %q, want it to contain %q", err, want)
	}
}

// waitGoroutines reports whether the goroutine count settles back to n.
func waitGoroutines(n int) bool {
	for i := 0; i < 100; i++ {
		if runtime.NumGoroutine() <= n {
			return true
		}
		runtime.Gosched()
	}
	return false
}

// spinForever parks th in a Spin that never ends.
func spinForever(th *Thread) {
	th.Spin(func() Op { return simpleOp(1) })
}

// TestFailedRunsReleaseThreads: a run that ends on the cycle guard or on a
// body panic must not leave any thread's goroutine parked behind it —
// including threads suspended inside Spin.
func TestFailedRunsReleaseThreads(t *testing.T) {
	runaway := func() {
		e := New(8, func(_ *Thread, op Op) uint64 { return 7 })
		e.MaxCycles = 5000
		for i := 0; i < 8; i++ {
			if i%2 == 0 {
				e.SetBody(i, spinForever)
				continue
			}
			e.SetBody(i, func(th *Thread) {
				for {
					th.Call(simpleOp(0))
				}
			})
		}
		if _, err := e.Run(); !errors.Is(err, ErrMaxCycles) {
			t.Fatalf("err = %v, want ErrMaxCycles", err)
		}
	}
	panicking := func() {
		e := New(8, func(_ *Thread, op Op) uint64 { return 1 })
		for i := 0; i < 8; i++ {
			i := i
			if i == 2 || i == 6 {
				e.SetBody(i, spinForever)
				continue
			}
			e.SetBody(i, func(th *Thread) {
				for k := 0; ; k++ {
					if i == 5 && k == 40 {
						panic("boom")
					}
					th.Call(simpleOp(1))
				}
			})
		}
		defer func() {
			if r := recover(); r != "boom" {
				t.Fatalf("recovered %v, want boom", r)
			}
		}()
		e.Run()
	}
	for name, run := range map[string]func(){"maxcycles": runaway, "panic": panicking} {
		base := runtime.NumGoroutine()
		for i := 0; i < 5; i++ {
			run()
		}
		if !waitGoroutines(base) {
			t.Errorf("%s: %d goroutines after failed runs, baseline %d", name, runtime.NumGoroutine(), base)
		}
	}
}

func TestBodyWithNoOpsExitsCleanly(t *testing.T) {
	e := New(2, func(_ *Thread, op Op) uint64 { return 1 })
	e.SetBody(0, func(th *Thread) {}) // exits immediately
	e.SetBody(1, func(th *Thread) { th.Call(simpleOp(3)) })
	final, err := e.Run()
	if err != nil || final != 1 {
		t.Fatalf("final=%d err=%v", final, err)
	}
}

func TestThreadPanicPropagates(t *testing.T) {
	e := New(2, func(_ *Thread, op Op) uint64 { return 1 })
	e.SetBody(0, func(th *Thread) { th.Call(simpleOp(1)) })
	e.SetBody(1, func(th *Thread) {
		th.Call(simpleOp(1))
		panic("boom")
	})
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want boom", r)
		}
	}()
	e.Run()
	t.Fatal("Run returned despite body panic")
}

// TestProbeCountsCyclesAndOps: the probe must see every executed op and the
// exact sum of clock advances, and attaching it must not change the final
// clock. A shared probe across two engines accumulates both.
func TestProbeCountsCyclesAndOps(t *testing.T) {
	build := func(p *Probe) *Engine {
		e := New(2, func(_ *Thread, op Op) uint64 { return uint64(op.(simpleOp)) })
		for i := 0; i < 2; i++ {
			e.SetBody(i, func(th *Thread) {
				for k := 0; k < 5; k++ {
					th.Call(simpleOp(3))
				}
			})
		}
		if p != nil {
			e.SetProbe(p)
		}
		return e
	}

	bare, err := build(nil).Run()
	if err != nil {
		t.Fatal(err)
	}

	var p Probe
	probed, err := build(&p).Run()
	if err != nil {
		t.Fatal(err)
	}
	if probed != bare {
		t.Fatalf("probe changed final clock: %d vs %d", probed, bare)
	}
	cycles, ops := p.Sample()
	if ops != 10 {
		t.Fatalf("ops = %d, want 10", ops)
	}
	if cycles != 30 { // 2 threads x 5 ops x 3 cycles of thread-clock advance
		t.Fatalf("cycles = %d, want 30", cycles)
	}

	// A second engine sharing the probe accumulates on top.
	if _, err := build(&p).Run(); err != nil {
		t.Fatal(err)
	}
	cycles, ops = p.Sample()
	if ops != 20 || cycles != 60 {
		t.Fatalf("shared probe = (%d cycles, %d ops), want (60, 20)", cycles, ops)
	}
}
