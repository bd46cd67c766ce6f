package engine

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"
)

// globalOp is a plain (global) op advancing the clock by its value.
type globalOp uint64

// pdesLogEntry is one executed op in serialized order.
type pdesLogEntry struct {
	tid  int
	when uint64
	val  uint64
}

// pdesHarness mimics the machine layer's buffering contract: global ops
// append to the shared log directly; local ops are buffered per thread and
// published by Flush in (cycle, tid) order up to the given bound.
type pdesHarness struct {
	mu  sync.Mutex // guards log against misuse; never contended if engine is correct
	log []pdesLogEntry
	buf [][]pdesLogEntry // per-thread local buffers
}

func (h *pdesHarness) global(t *Thread, op Op) uint64 {
	h.mu.Lock()
	h.log = append(h.log, pdesLogEntry{t.ID(), t.Now(), uint64(op.(globalOp))})
	h.mu.Unlock()
	return uint64(op.(globalOp))
}

func (h *pdesHarness) local(t *Thread, op Op) uint64 {
	v := uint64(op.(localOp))
	h.buf[t.ID()] = append(h.buf[t.ID()], pdesLogEntry{t.ID(), t.Now(), v})
	return v
}

func (h *pdesHarness) flush(maxCycle uint64, maxID int) {
	var ready []pdesLogEntry
	for tid := range h.buf {
		keep := h.buf[tid][:0]
		for _, e := range h.buf[tid] {
			if e.when < maxCycle || (e.when == maxCycle && e.tid <= maxID) {
				ready = append(ready, e)
			} else {
				keep = append(keep, e)
			}
		}
		h.buf[tid] = keep
	}
	sort.Slice(ready, func(i, j int) bool {
		a, b := ready[i], ready[j]
		return a.when < b.when || (a.when == b.when && a.tid < b.tid)
	})
	h.log = append(h.log, ready...)
}

// pdesProgram builds a deterministic per-thread op mix: a pseudo-random
// interleaving of local and global ops with varying advances.
func pdesProgram(threads, opsPer int) [][]Op {
	prog := make([][]Op, threads)
	for i := range prog {
		s := uint64(i*2654435761 + 12345)
		for k := 0; k < opsPer; k++ {
			s = s*6364136223846793005 + 1442695040888963407
			adv := 1 + (s>>33)%9
			if (s>>62)&1 == 0 {
				prog[i] = append(prog[i], localOp(adv))
			} else {
				prog[i] = append(prog[i], globalOp(adv))
			}
		}
	}
	return prog
}

func runSequentialRef(prog [][]Op, maxCycles uint64) ([]pdesLogEntry, uint64, error) {
	var log []pdesLogEntry
	e := New(len(prog), func(t *Thread, op Op) uint64 {
		var v uint64
		switch o := op.(type) {
		case localOp:
			v = uint64(o)
		case globalOp:
			v = uint64(o)
		}
		log = append(log, pdesLogEntry{t.ID(), t.Now(), v})
		return v
	})
	e.MaxCycles = maxCycles
	for i, ops := range prog {
		ops := ops
		e.SetBody(i, func(t *Thread) {
			for _, op := range ops {
				t.Call(op)
			}
		})
	}
	final, err := e.Run()
	return log, final, err
}

func runPDESHarness(prog [][]Op, window, maxCycles uint64) ([]pdesLogEntry, uint64, error) {
	h := &pdesHarness{buf: make([][]pdesLogEntry, len(prog))}
	e := New(len(prog), h.global)
	e.MaxCycles = maxCycles
	e.SetPDES(PDESConfig{Window: window, Local: h.local, Flush: h.flush})
	for i, ops := range prog {
		ops := ops
		e.SetBody(i, func(t *Thread) {
			for _, op := range ops {
				t.Call(op)
			}
		})
	}
	final, err := e.Run()
	return h.log, final, err
}

// TestPDESMatchesSequential: the PDES scheduler must produce the exact
// serialized op history of the sequential scheduler — same ops, same
// clocks, same order — for a mixed local/global workload, at every window
// size. Run with -race: phase-1 concurrency is real.
func TestPDESMatchesSequential(t *testing.T) {
	for _, threads := range []int{1, 2, 4, 8} {
		prog := pdesProgram(threads, 200)
		want, wantFinal, err := runSequentialRef(prog, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, window := range []uint64{1, 3, 17, 99, 1 << 40} {
			t.Run(fmt.Sprintf("threads=%d/window=%d", threads, window), func(t *testing.T) {
				got, gotFinal, err := runPDESHarness(prog, window, 0)
				if err != nil {
					t.Fatal(err)
				}
				if gotFinal != wantFinal {
					t.Fatalf("final clock = %d, want %d", gotFinal, wantFinal)
				}
				if len(got) != len(want) {
					t.Fatalf("op count = %d, want %d", len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("log diverged at %d: got %+v, want %+v", i, got[i], want[i])
					}
				}
			})
		}
	}
}

// TestPDESMaxCycles: the cycle guard must trip under PDES with the same
// error, the same reported clock, and the same executed-op prefix as the
// sequential scheduler.
func TestPDESMaxCycles(t *testing.T) {
	prog := pdesProgram(4, 500)
	const limit = 600
	want, wantFinal, err := runSequentialRef(prog, limit)
	if !errors.Is(err, ErrMaxCycles) {
		t.Fatalf("sequential err = %v, want ErrMaxCycles", err)
	}
	for _, window := range []uint64{1, 50, 10000} {
		got, gotFinal, err := runPDESHarness(prog, window, limit)
		if !errors.Is(err, ErrMaxCycles) {
			t.Fatalf("window=%d: err = %v, want ErrMaxCycles", window, err)
		}
		if gotFinal != wantFinal {
			t.Fatalf("window=%d: final = %d, want %d", window, gotFinal, wantFinal)
		}
		if len(got) != len(want) {
			t.Fatalf("window=%d: op count = %d, want %d", window, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("window=%d: log diverged at %d: got %+v, want %+v", window, i, got[i], want[i])
			}
		}
	}
}

// TestPDESPanicPropagates: a body panic in a parallel phase must surface
// from Run, and when several threads panic in one epoch the one the
// sequential engine would hit first (smallest clock) must win.
func TestPDESPanicPropagates(t *testing.T) {
	h := &pdesHarness{buf: make([][]pdesLogEntry, 3)}
	e := New(3, h.global)
	e.SetPDES(PDESConfig{Window: 1 << 30, Local: h.local, Flush: h.flush})
	// All three threads run locally inside one huge epoch; threads 1 and 2
	// panic, thread 1 at the smaller clock.
	e.SetBody(0, func(th *Thread) {
		for i := 0; i < 100; i++ {
			th.Call(localOp(1))
		}
	})
	e.SetBody(1, func(th *Thread) {
		th.Call(localOp(5))
		panic("first")
	})
	e.SetBody(2, func(th *Thread) {
		th.Call(localOp(50))
		panic("second")
	})
	defer func() {
		if r := recover(); r != "first" {
			t.Fatalf("recovered %v, want first (smallest clock wins)", r)
		}
	}()
	e.Run()
	t.Fatal("Run returned despite body panic")
}

// TestPDESProbe: the probe must count every op (local and global) and the
// exact cycle sum, identical to the sequential engine.
func TestPDESProbe(t *testing.T) {
	prog := pdesProgram(4, 100)

	var seq Probe
	{
		e := New(len(prog), func(t *Thread, op Op) uint64 {
			switch o := op.(type) {
			case localOp:
				return uint64(o)
			default:
				return uint64(o.(globalOp))
			}
		})
		e.SetProbe(&seq)
		for i, ops := range prog {
			ops := ops
			e.SetBody(i, func(t *Thread) {
				for _, op := range ops {
					t.Call(op)
				}
			})
		}
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}

	var pd Probe
	{
		h := &pdesHarness{buf: make([][]pdesLogEntry, len(prog))}
		e := New(len(prog), h.global)
		e.SetProbe(&pd)
		e.SetPDES(PDESConfig{Window: 64, Local: h.local, Flush: h.flush})
		for i, ops := range prog {
			ops := ops
			e.SetBody(i, func(t *Thread) {
				for _, op := range ops {
					t.Call(op)
				}
			})
		}
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}

	sc, so := seq.Sample()
	pc, po := pd.Sample()
	if sc != pc || so != po {
		t.Fatalf("probe mismatch: sequential (%d cycles, %d ops), pdes (%d, %d)", sc, so, pc, po)
	}
}

// TestPDESBodyWithNoOps: op-less bodies must exit cleanly during startup
// under PDES, exactly as under the sequential scheduler.
func TestPDESBodyWithNoOps(t *testing.T) {
	h := &pdesHarness{buf: make([][]pdesLogEntry, 2)}
	e := New(2, h.global)
	e.SetPDES(PDESConfig{Window: 8, Local: h.local, Flush: h.flush})
	e.SetBody(0, func(th *Thread) {}) // exits immediately
	e.SetBody(1, func(th *Thread) { th.Call(globalOp(3)) })
	final, err := e.Run()
	if err != nil || final != 3 {
		t.Fatalf("final=%d err=%v", final, err)
	}
}

// TestRunTwicePanics: a second Run on the same Engine must panic loudly
// instead of silently corrupting scheduler state, under both schedulers.
func TestRunTwicePanics(t *testing.T) {
	for _, pdes := range []bool{false, true} {
		t.Run(fmt.Sprintf("pdes=%v", pdes), func(t *testing.T) {
			e := New(1, func(_ *Thread, op Op) uint64 { return 1 })
			if pdes {
				e.SetPDES(PDESConfig{Window: 4, Local: func(_ *Thread, op Op) uint64 { return 1 }})
			}
			e.SetBody(0, func(th *Thread) { th.Call(globalOp(1)) })
			if _, err := e.Run(); err != nil {
				t.Fatal(err)
			}
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("second Run did not panic")
				}
				if s, ok := r.(string); !ok || s == "" {
					t.Fatalf("second Run panicked with %v, want descriptive string", r)
				}
			}()
			e.Run()
		})
	}
}

// TestPDESExactlyOneGlobalRunning: global handlers and flushes must never
// run concurrently with each other — the serial drain is single-threaded.
// An unguarded counter bumped in the handler would trip -race otherwise,
// and the total must be exact.
func TestPDESExactlyOneGlobalRunning(t *testing.T) {
	shared := 0
	e := New(8, func(_ *Thread, op Op) uint64 {
		shared++ // unsynchronized on purpose: serial drain guarantees safety
		return 1
	})
	e.SetPDES(PDESConfig{Window: 16, Local: func(_ *Thread, op Op) uint64 { return 1 }})
	for i := 0; i < 8; i++ {
		e.SetBody(i, func(th *Thread) {
			for k := 0; k < 100; k++ {
				th.Call(localOp(1))
				th.Call(globalOp(1))
			}
		})
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if shared != 800 {
		t.Fatalf("shared = %d, want 800 (lost updates => serial-drain bug)", shared)
	}
}
