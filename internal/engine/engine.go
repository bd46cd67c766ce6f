//go:build go1.23

// Package engine is a deterministic, execution-driven multicore simulation
// engine. Each simulated hardware thread is a coroutine running real Go
// code (the HLPL runtime plus benchmark); whenever that code performs a
// simulated operation (load, store, compute, ...) the engine decides when —
// in simulated time — the operation happens.
//
// Determinism comes from two rules:
//
//  1. Exactly one coroutine runs simulator or program state at any instant.
//     Control passes between the scheduler and a thread only through
//     explicit coroutine switches; nothing else runs in between.
//  2. Among parked threads, the engine always executes the operation of the
//     thread with the smallest local clock, breaking ties by thread id.
//
// Under these rules all simulator state is accessed single-threaded — no
// locks anywhere — and every run of the same program is bit-identical,
// which the test suite asserts.
//
// Each thread body runs as an iter.Pull coroutine. Run is the hub: it pops
// the parked thread with the smallest (clock, id) from a binary heap,
// executes that thread's pending operation, and resumes the thread, which
// runs until its next park (or its body returns). A coroutine switch is a
// direct runtime handoff between two goroutines with no scheduler queue in
// between, several times cheaper than a channel handoff. On top of it the
// inline lease removes most switches entirely: when a thread is resumed it
// learns the smallest (clock, id) among every *other* parked thread. While
// its own (clock, id) stays below that horizon, its next operation is by
// definition the one rule 2 would pick, so Thread.Call executes the handler
// inline on the thread's own coroutine with no switch and no scheduling
// structure touched at all. The horizon cannot go stale: other threads'
// clocks only move while this thread is parked.
//
// Both paths execute handlers in exactly the (clock, id) serialized order,
// and the body code between two of a thread's operations always runs
// immediately after the first operation's handler — identical to a
// centralized engine, so simulated results are unchanged to the bit.
//
// A run that ends early — a tripped cycle guard or a body panic — stops
// every suspended coroutine before Run returns, so no goroutine outlives
// the run.
package engine

import (
	"errors"
	"fmt"
	"iter"
	"sync/atomic"
)

// Probe is a lock-free progress counter pair an observer can read while
// the engine runs. The engine adds each executed op's clock advance to
// Cycles and bumps Ops by one; both are plain atomic adds, so attaching a
// probe changes nothing about scheduling, clocks, or results — it is
// host-visible only, and one probe may be shared by many engines running
// concurrently (the adds commute).
//
// Cycles is cumulative *thread*-cycles: the sum of every thread's clock
// advances, across all machines feeding the probe. It is a throughput
// counter (cycles simulated), not any single machine's wall clock.
type Probe struct {
	cycles atomic.Uint64
	ops    atomic.Uint64
}

// Sample returns the current cumulative thread-cycles and op count. Safe
// from any goroutine.
func (p *Probe) Sample() (cycles, ops uint64) {
	return p.cycles.Load(), p.ops.Load()
}

// note records one executed op advancing a thread clock by adv.
func (p *Probe) note(adv uint64) {
	p.cycles.Add(adv)
	p.ops.Add(1)
}

// Op is a simulated operation posted by a thread. Concrete op types are
// defined by the machine layer; the engine treats them opaquely.
type Op interface{}

// LocalOp marks an op as thread-local: executing it reads and writes only
// state owned by the issuing thread (its clock, its store buffer, its
// private counters) and never shared simulator state. The PDES scheduler
// (see SetPDES) executes LocalOps concurrently on host threads inside an
// epoch window; everything else is serialized in exact (clock, id) order.
// Ops that do not implement LocalOp are global. The sequential scheduler
// ignores the marker entirely.
type LocalOp interface{ EngineLocal() }

// Handler executes op on behalf of t and returns how many cycles t's local
// clock advances. Handlers run while every other thread is parked and may
// freely mutate simulator state; the goroutine they run on varies (the
// issuing thread's coroutine on the inline path, Run's hub otherwise) but
// is always the only one running.
type Handler func(t *Thread, op Op) (advance uint64)

// Thread is one simulated hardware thread.
type Thread struct {
	id      int
	now     uint64
	eng     *Engine
	body    func(*Thread)
	pending Op // parked operation awaiting execution

	// Coroutine hosting the body under the sequential scheduler: the hub
	// resumes it with next and cancels it with stop; park suspends it
	// through yield.
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool

	// Inline-execution lease: the smallest (clock, id) among all *other*
	// parked threads, refreshed by the scheduler before each wake. While
	// (now, id) precedes (horizonNow, horizonID) this thread is the one the
	// scheduler would pick, so Call runs the handler inline with no
	// switch. The PDES serial drain reuses the same pair as its global
	// lease (see pdes.go).
	horizonNow uint64
	horizonID  int

	// PDES state (unused by the sequential scheduler). res wakes the
	// thread's goroutine; limit is the current epoch horizon H: local ops
	// execute only while now < limit. serial is set while the thread holds
	// the phase-2 drain lease, allowing global ops to run inline under
	// (horizonNow, horizonID).
	res    chan struct{}
	limit  uint64
	serial bool
}

// ID returns the hardware thread id (dense, starting at 0).
func (t *Thread) ID() int { return t.id }

// Now returns the thread's local clock in cycles.
func (t *Thread) Now() uint64 { return t.now }

// Call posts op and returns once it has executed (advancing the thread's
// clock by the handler's result). It must only be called from the thread's
// own body. While the thread holds the inline lease — its clock strictly
// precedes every other parked thread's — the handler runs immediately on
// this coroutine; otherwise the thread parks and the hub runs the thread
// with the smallest clock.
func (t *Thread) Call(op Op) {
	e := t.eng
	if e.pdes != nil {
		t.callPDES(op)
		return
	}
	if (t.now < t.horizonNow || (t.now == t.horizonNow && t.id < t.horizonID)) &&
		(e.MaxCycles == 0 || t.now <= e.MaxCycles) {
		// This thread is the scheduler's next pick: executing inline is
		// bit-identical to parking and being rescheduled, minus the
		// switch. (Past MaxCycles, fall through so the scheduler raises
		// ErrMaxCycles exactly as a centralized engine would.)
		adv := e.handler(t, op)
		t.now += adv
		if p := e.probe; p != nil {
			p.note(adv)
		}
		return
	}
	t.park(op)
}

// errStopped unwinds a coroutine that Run cancelled while it was parked.
var errStopped = errors.New("engine: thread stopped")

// park is Call's slow path: enqueue op and suspend until the hub has
// executed it. A false yield means Run is abandoning the thread; unwinding
// the body then releases its goroutine (see run).
func (t *Thread) park(op Op) {
	t.pending = op
	t.eng.heap.push(t)
	if !t.yield(struct{}{}) {
		panic(errStopped)
	}
}

// run is the coroutine function hosting t's body.
func (t *Thread) run(yield func(struct{}) bool) {
	defer func() {
		if r := recover(); r != nil && r != any(errStopped) {
			panic(r)
		}
	}()
	t.yield = yield
	t.body(t)
}

// Engine runs a set of threads to completion. Create with New.
type Engine struct {
	threads []*Thread
	handler Handler

	heap  clockHeap
	final uint64 // maximum clock observed (the global clock)

	// MaxCycles aborts the run when every runnable thread's clock exceeds
	// it — a guard against deadlocked simulated programs. Zero means no
	// limit.
	MaxCycles uint64

	// probe, if set, receives per-op progress (see Probe). Nil costs one
	// predictable branch per op.
	probe *Probe

	// ran guards Run against double invocation (the coroutines and heap are
	// single-use; a second Run would silently corrupt them).
	ran bool

	// PDES scheduler state (nil selects the sequential scheduler).
	pdes  *PDESConfig
	parkc chan pdesMsg // running threads report park/exit/panic here

	// Serial-drain state for the current epoch, owned by whichever
	// goroutine holds the drain baton: the one live serial thread, or the
	// coordinator when none is live (ownership passes through the parkc/
	// res handoffs, which also order the accesses). See wakeNextDrain.
	drainHeap clockHeap
	drainH    uint64
	procs     int // host procs available to this run (GOMAXPROCS at Run)
}

// SetProbe attaches a live progress probe. Call before Run; the probe may
// be shared across engines.
func (e *Engine) SetProbe(p *Probe) { e.probe = p }

// ErrMaxCycles is returned by Run when the cycle guard trips. The returned
// error wraps it with the offending thread and its pending op; match it
// with errors.Is.
var ErrMaxCycles = errors.New("engine: exceeded MaxCycles (simulated program deadlocked or runaway)")

// maxCyclesError reports a tripped cycle guard at t, the parked thread
// with the smallest (clock, id).
func maxCyclesError(t *Thread) error {
	return fmt.Errorf("%w: thread %d at cycle %d, pending %T", ErrMaxCycles, t.id, t.now, t.pending)
}

// New creates an engine with n threads whose operations are executed by
// handler.
func New(n int, handler Handler) *Engine {
	if n <= 0 {
		panic(fmt.Sprintf("engine: need at least one thread, got %d", n))
	}
	e := &Engine{handler: handler}
	for i := 0; i < n; i++ {
		e.threads = append(e.threads, &Thread{id: i, eng: e})
	}
	return e
}

// Threads returns the number of hardware threads.
func (e *Engine) Threads() int { return len(e.threads) }

// SetBody sets the code thread id runs. Every thread must have a body
// before Run.
func (e *Engine) SetBody(id int, body func(*Thread)) {
	e.threads[id].body = body
}

// Run executes all thread bodies to completion and returns the final global
// clock (the maximum thread-local clock). It can only be called once:
// the coroutines and parked-thread structures are single-use, so a second
// call panics rather than silently corrupting them.
func (e *Engine) Run() (uint64, error) {
	if e.ran {
		panic("engine: Run called twice on the same Engine (create a new Engine per run)")
	}
	e.ran = true
	for _, t := range e.threads {
		if t.body == nil {
			panic(fmt.Sprintf("engine: thread %d has no body", t.id))
		}
	}
	if e.pdes != nil {
		return e.runPDES()
	}
	// On a tripped guard or a panic, cancel every coroutine still parked.
	// After a clean run all have returned and this is a no-op.
	defer func() {
		for _, t := range e.threads {
			if t.stop != nil {
				t.stop()
			}
		}
	}()
	e.heap.a = make([]*Thread, 0, len(e.threads))

	// Start threads one at a time, in id order; each runs until its first
	// op (or exit). The inline lease stays revoked (horizon (0, -1)) until
	// the full parked set is known.
	for _, t := range e.threads {
		t.horizonNow, t.horizonID = 0, -1
		t.next, t.stop = iter.Pull(t.run)
		e.resume(t)
	}

	// The hub: execute the smallest (clock, id) thread's pending op, grant
	// it a fresh inline lease, and resume its body.
	for e.heap.len() > 0 {
		u := e.heap.pop()
		if e.MaxCycles > 0 && u.now > e.MaxCycles {
			return u.now, maxCyclesError(u)
		}
		op := u.pending
		u.pending = nil
		adv := e.handler(u, op)
		u.now += adv
		if p := e.probe; p != nil {
			p.note(adv)
		}
		if e.heap.len() > 0 {
			r := e.heap.a[0]
			u.horizonNow, u.horizonID = r.now, r.id
		} else {
			u.horizonNow, u.horizonID = ^uint64(0), int(^uint(0)>>1)
		}
		e.resume(u)
	}
	return e.final, nil
}

// resume runs t's body until it parks or returns. A body panic propagates
// from here out of Run.
func (e *Engine) resume(t *Thread) {
	if _, parked := t.next(); !parked && t.now > e.final {
		e.final = t.now
	}
}

// clockHeap is a binary min-heap of parked threads ordered by (now, id) —
// the scheduler's pick order. Threads are only pushed when they park and
// popped when resumed, so no decrease-key is needed.
type clockHeap struct {
	a []*Thread
}

func clockLess(x, y *Thread) bool {
	return x.now < y.now || (x.now == y.now && x.id < y.id)
}

func (h *clockHeap) len() int { return len(h.a) }

func (h *clockHeap) push(t *Thread) {
	h.a = append(h.a, t)
	i := len(h.a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !clockLess(h.a[i], h.a[p]) {
			break
		}
		h.a[i], h.a[p] = h.a[p], h.a[i]
		i = p
	}
}

func (h *clockHeap) pop() *Thread {
	root := h.a[0]
	last := len(h.a) - 1
	h.a[0] = h.a[last]
	h.a[last] = nil
	h.a = h.a[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		if l >= len(h.a) {
			break
		}
		c := l
		if r < len(h.a) && clockLess(h.a[r], h.a[l]) {
			c = r
		}
		if !clockLess(h.a[c], h.a[i]) {
			break
		}
		h.a[i], h.a[c] = h.a[c], h.a[i]
		i = c
	}
	return root
}
