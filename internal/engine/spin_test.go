package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// spinSeg is one segment of a thread's program: plain Calls, or a Spin
// whose step returns ops (advances) until they run out — or, when watch is
// set, until the shared counter the handlers bump is a multiple of 5, so
// the step's decision depends on the other threads' progress. A forever
// segment cycles through its ops without end (the cycle guard must stop
// it); only TestSchedulerMatchesReferenceLoop's programs have one.
type spinSeg struct {
	spin    bool
	watch   bool
	forever bool
	ops     []uint64
}

// localBit marks a program's op value as a LocalOp; the other bits are
// its advance.
const localBit = 1 << 32

// progOp returns the op a program's op value v posts.
func progOp(v uint64) Op {
	if v&localBit != 0 {
		return localOp(v &^ localBit)
	}
	return simpleOp(v)
}

// execProgOp executes a program's op: it returns the op's value (with
// localBit set for a LocalOp) and its advance.
func execProgOp(op Op) (v, adv uint64) {
	if o, ok := op.(localOp); ok {
		return uint64(o) | localBit, uint64(o)
	}
	return uint64(op.(simpleOp)), uint64(op.(simpleOp))
}

// spinEvent is one entry of a run's history: an executed op ('x', val is
// the op's value) or a body or step segment observing the shared counter ('b'
// before a Call, 's' at each step; val is the counter).
type spinEvent struct {
	kind byte
	tid  int
	now  uint64
	val  uint64
}

// spinForm selects how a spin segment runs.
type spinForm int

const (
	formSpin         spinForm = iota // Thread.Spin under the sequential hub
	formLoop                         // the defining loop, Call by Call
	formPDES                         // Thread.Spin under the PDES scheduler
	formSpinRunAhead                 // formSpin with run-ahead on
	formLoopRunAhead                 // formLoop with run-ahead on
)

// spinRun is everything a run exposes: the history, the per-thread final
// clocks, the global clock and the error (or recovered panic).
type spinRun struct {
	log    []spinEvent
	clocks []uint64
	final  uint64
	err    string
	panicv any
}

// runSpinProgram executes prog in the given form. inject, if non-nil, is
// called inside every step function (after the history entry) with the
// thread and the step's call count, to inject faults.
func runSpinProgram(prog [][]spinSeg, form spinForm, maxCycles uint64, inject func(t *Thread, k int)) (r spinRun) {
	var shared uint64
	handler := func(t *Thread, op Op) uint64 {
		v, adv := execProgOp(op)
		r.log = append(r.log, spinEvent{'x', t.ID(), t.Now(), v})
		if v&localBit == 0 {
			shared += adv + uint64(t.ID()) + 1
		}
		return adv
	}
	e := New(len(prog), handler)
	e.MaxCycles = maxCycles
	switch form {
	case formPDES:
		e.SetPDES(PDESConfig{Window: 3, Local: func(*Thread, Op) uint64 { panic("no local ops") }})
	case formSpinRunAhead, formLoopRunAhead:
		e.SetRunAhead(true)
	}
	r.clocks = make([]uint64, len(prog))
	for id, segs := range prog {
		segs := segs
		e.SetBody(id, func(t *Thread) {
			for _, seg := range segs {
				if !seg.spin {
					for _, v := range seg.ops {
						r.log = append(r.log, spinEvent{'b', t.ID(), t.Now(), shared})
						t.Call(progOp(v))
					}
					continue
				}
				i, k := 0, 0
				step := func() Op {
					r.log = append(r.log, spinEvent{'s', t.ID(), t.Now(), shared})
					if inject != nil {
						inject(t, k)
					}
					k++
					if i == len(seg.ops) || (seg.watch && i > 0 && shared%5 == 0) {
						return nil
					}
					i++
					return progOp(seg.ops[i-1])
				}
				if form == formLoop || form == formLoopRunAhead {
					for op := step(); op != nil; op = step() {
						t.Call(op)
					}
				} else {
					t.Spin(step)
				}
			}
			r.clocks[t.ID()] = t.Now()
		})
	}
	defer func() { r.panicv = recover() }()
	final, err := e.Run()
	r.final = final
	if err != nil {
		r.err = err.Error()
	}
	return r
}

// randomSpinProgram draws a program mixing Spin and Call threads, with
// zero-cycle ops, clock ties, and spins whose first step returns nil. With
// local set, about a third of the ops are LocalOps.
func randomSpinProgram(rng *rand.Rand, local bool) [][]spinSeg {
	advances := []uint64{0, 0, 1, 1, 2, 3, 7}
	prog := make([][]spinSeg, 1+rng.Intn(6))
	for id := range prog {
		for s := rng.Intn(4); s >= 0; s-- {
			seg := spinSeg{spin: rng.Intn(3) > 0, watch: rng.Intn(3) == 0}
			for n := rng.Intn(13); n > 0; n-- {
				v := advances[rng.Intn(len(advances))]
				if local && rng.Intn(3) == 0 {
					v |= localBit
				}
				seg.ops = append(seg.ops, v)
			}
			prog[id] = append(prog[id], seg)
		}
	}
	return prog
}

// TestSpinMatchesCallLoop: Spin must execute exactly the ops, at exactly
// the clocks and serialized positions, of its defining loop, and leave
// every thread at the same clock — on random programs, under both
// schedulers. On programs with LocalOps, Spin with run-ahead on must
// match the loop with run-ahead on just as exactly: the same ops, clocks
// and host order, and the same shared state at every body and step entry.
func TestSpinMatchesCallLoop(t *testing.T) {
	type pair struct{ want, got spinForm }
	for seed := int64(0); seed < 300; seed++ {
		for _, local := range []bool{false, true} {
			prog := randomSpinProgram(rand.New(rand.NewSource(seed)), local)
			pairs := []pair{{formLoop, formSpin}, {formLoop, formPDES}}
			if local {
				pairs = []pair{{formLoop, formSpin}, {formLoopRunAhead, formSpinRunAhead}}
			}
			for _, p := range pairs {
				want := runSpinProgram(prog, p.want, 0, nil)
				if want.err != "" || want.panicv != nil {
					t.Fatalf("seed %d form %d: loop form failed: %v %v", seed, p.want, want.err, want.panicv)
				}
				got := runSpinProgram(prog, p.got, 0, nil)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d form %d: run differs from form %d\ngot  %+v\nwant %+v", seed, p.got, p.want, got, want)
				}
			}
		}
	}
}

// TestSpinMaxCycles: a runaway Spin trips the cycle guard at the same op,
// with the same wrapped ErrMaxCycles, as its defining loop.
func TestSpinMaxCycles(t *testing.T) {
	forever := make([]uint64, 1000)
	for i := range forever {
		forever[i] = 7
	}
	prog := [][]spinSeg{
		{{spin: true, ops: forever}},
		{{ops: []uint64{3, 3, 3}}, {spin: true, ops: forever}},
		{{ops: []uint64{50}}},
	}
	want := runSpinProgram(prog, formLoop, 500, nil)
	if !strings.Contains(want.err, ErrMaxCycles.Error()) {
		t.Fatalf("loop form err = %q, want ErrMaxCycles", want.err)
	}
	got := runSpinProgram(prog, formSpin, 500, nil)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Spin run differs from the loop form\ngot  %+v\nwant %+v", got, want)
	}
}

// TestSpinStepPanicPropagates: a panic in a step function — whether it
// runs on the thread's coroutine or on the hub — propagates out of Run
// after the same history as the loop form.
func TestSpinStepPanicPropagates(t *testing.T) {
	ops := []uint64{1, 2, 1, 2, 1, 2, 1, 2}
	prog := [][]spinSeg{
		{{spin: true, ops: ops}},
		{{spin: true, ops: ops}},
		{{ops: ops}},
	}
	for _, at := range []int{0, 3} {
		inject := func(t *Thread, k int) {
			if t.ID() == 1 && k == at {
				panic("step boom")
			}
		}
		want := runSpinProgram(prog, formLoop, 0, inject)
		if want.panicv != "step boom" {
			t.Fatalf("at %d: loop form recovered %v, want step boom", at, want.panicv)
		}
		got := runSpinProgram(prog, formSpin, 0, inject)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("at %d: Spin run differs from the loop form\ngot  %+v\nwant %+v", at, got, want)
		}
	}
}

// TestCallInsideSpinStepPanics: a step must return its op; calling it
// instead panics with a message naming the mistake, on the coroutine
// (the thread's first step) and on the hub (a later one), also when the
// call is a LocalOp that run-ahead would otherwise execute in place.
func TestCallInsideSpinStepPanics(t *testing.T) {
	for _, tc := range []struct {
		at       int
		runAhead bool
	}{{0, false}, {1, false}, {0, true}, {1, true}} {
		at := tc.at
		base := runtime.NumGoroutine()
		e := New(2, func(_ *Thread, op Op) uint64 { return 1 })
		e.SetRunAhead(tc.runAhead)
		e.MaxCycles = 1000 // a missed panic ends the run instead of spinning on
		e.SetBody(0, func(th *Thread) {
			k := 0
			th.Spin(func() Op {
				if k == at {
					th.Call(localOp(1))
				}
				k++
				return simpleOp(1)
			})
		})
		e.SetBody(1, func(th *Thread) {
			for {
				th.Call(simpleOp(1))
			}
		})
		func() {
			defer func() {
				r := recover()
				if s, _ := r.(string); !strings.Contains(s, "inside a Spin step") {
					t.Fatalf("%+v: recovered %v, want the Spin-step panic", tc, r)
				}
			}()
			e.Run()
		}()
		if !waitGoroutines(base) {
			t.Errorf("%+v: %d goroutines after the panic, baseline %d", tc, runtime.NumGoroutine(), base)
		}
	}
}

// TestNewRejectsTooManyThreads: scheduler keys hold 16-bit thread ids.
func TestNewRejectsTooManyThreads(t *testing.T) {
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "65536") {
			t.Fatalf("recovered %v, want a thread-count panic", r)
		}
	}()
	New(1<<16+1, func(*Thread, Op) uint64 { return 0 })
}

// TestMaxCyclesZeroStopsAtClockCeiling: with no MaxCycles the guard is
// the scheduler key's clock ceiling, 2^48−2.
func TestMaxCyclesZeroStopsAtClockCeiling(t *testing.T) {
	e := New(2, func(_ *Thread, op Op) uint64 { return uint64(op.(simpleOp)) })
	e.SetBody(0, func(th *Thread) { th.Call(simpleOp(1)) })
	e.SetBody(1, func(th *Thread) {
		th.Call(simpleOp(clockCeiling))
		th.Call(simpleOp(1))
		th.Call(simpleOp(1))
	})
	final, err := e.Run()
	if !errors.Is(err, ErrMaxCycles) || final != clockCeiling+1 {
		t.Fatalf("final=%d err=%v, want ErrMaxCycles at %d", final, err, uint64(clockCeiling+1))
	}
}
