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
// Each thread body runs as an iter.Pull coroutine. Run is the hub. It keeps
// every live thread in a binary min-heap of packed keys now<<16 | id, so
// one integer compare orders two threads by (clock, id). The heap root is
// the thread rule 2 picks; it stays at the root while it runs. The hub
// executes the root's pending operation and resumes the thread, which runs
// until its next park (or its body returns). When it parks, the hub re-keys
// the root and sifts it down once; when it exits, the hub pops it.
//
// A coroutine switch is a direct runtime handoff between two goroutines
// with no scheduler queue in between. On top of it the inline lease removes
// most switches entirely. Before resuming a thread, the hub computes its
// leaseEnd: the first clock at which the thread no longer precedes every
// other live thread. The other threads' minimum is the smaller of the
// root's two children, and leaseEnd also folds in the MaxCycles guard.
// While the thread's clock stays below leaseEnd, its next operation is by
// definition the one rule 2 would pick, so Thread.Call executes the handler
// inline on the thread's own coroutine — a single compare, no switch, no
// heap touched. The lease cannot go stale: other threads' clocks only move
// while this thread is parked.
//
// Thread.Spin removes the remaining switches for loops whose body code
// between operations is small (a busy-wait, a steal loop). Its meaning is
// defined as
//
//	for op := step(); op != nil; op = step() { t.Call(op) }
//
// but when the thread parks inside Spin, the hub calls step itself, right
// after each operation's handler: the serialized position where the
// coroutine would have resumed. While the thread still precedes every
// other live thread the hub executes the returned op at once; otherwise it
// sifts the thread down and moves on. The coroutine resumes only when step
// returns nil. A step function must build and return its ops, never call
// them: Thread.Call from inside step panics once the call would park.
//
// Every path executes handlers in exactly the (clock, id) serialized order,
// and the body code between two of a thread's operations always runs
// immediately after the first operation's handler — identical to a
// centralized engine, so simulated results are unchanged to the bit.
//
// A run that ends early — a tripped cycle guard or a panic in a body or a
// step — stops every suspended coroutine before Run returns, so no
// goroutine outlives the run.
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

// Heap keys pack a thread's (clock, id) as now<<keyIDBits | id, so that
// integer order is the scheduler's pick order. Clocks above maxKeyClock
// saturate there; the cycle guard never lets a thread run past
// clockCeiling, so a saturated key only ever marks a thread about to trip
// it.
const (
	keyIDBits    = 16
	keyIDMask    = 1<<keyIDBits - 1
	maxThreads   = 1 << keyIDBits
	maxKeyClock  = 1<<(64-keyIDBits) - 1
	clockCeiling = maxKeyClock - 1 // the cycle guard when MaxCycles is 0
)

// Thread is one simulated hardware thread.
type Thread struct {
	id      int
	now     uint64
	eng     *Engine
	body    func(*Thread)
	pending Op // parked operation awaiting execution

	// Inline-execution lease under the sequential scheduler: the first
	// clock at which this thread no longer precedes every other live
	// thread, or passes the cycle guard. Set by the hub before each wake
	// and zero otherwise, so Call's fast path is the single compare
	// now < leaseEnd (never true under PDES).
	leaseEnd uint64

	// spin is the step function the hub drives while the thread is parked
	// inside Spin (nil otherwise); stepping is set while a step runs, so a
	// Call from inside it is caught before it parks.
	spin     func() Op
	stepping bool

	// Coroutine hosting the body under the sequential scheduler: the hub
	// resumes it with next and cancels it with stop; park suspends it
	// through yield.
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool

	// PDES state (unused by the sequential scheduler). res wakes the
	// thread's goroutine; limit is the current epoch horizon H: local ops
	// execute only while now < limit. serial is set while the thread holds
	// the phase-2 drain lease, allowing global ops to run inline while
	// (now, id) precedes (horizonNow, horizonID), the smallest (clock, id)
	// among the other parked threads (see pdes.go).
	res        chan struct{}
	limit      uint64
	serial     bool
	horizonNow uint64
	horizonID  int
}

// ID returns the hardware thread id (dense, starting at 0).
func (t *Thread) ID() int { return t.id }

// Now returns the thread's local clock in cycles.
func (t *Thread) Now() uint64 { return t.now }

// Call posts op and returns once it has executed (advancing the thread's
// clock by the handler's result). It must only be called from the thread's
// own body. While the thread holds the inline lease — its clock strictly
// precedes every other live thread's — the handler runs immediately on
// this coroutine; otherwise the thread parks and the hub runs the thread
// with the smallest clock.
func (t *Thread) Call(op Op) {
	if t.now < t.leaseEnd {
		// This thread is the scheduler's next pick: executing inline is
		// bit-identical to parking and being rescheduled, minus the
		// switch. (leaseEnd stops at the cycle guard, so a runaway thread
		// falls through and the hub raises ErrMaxCycles exactly as a
		// centralized engine would.) The body of exec is repeated here
		// so that this hot path makes no further call.
		e := t.eng
		adv := e.handler(t, op)
		t.now += adv
		if p := e.probe; p != nil {
			p.note(adv)
		}
		return
	}
	if t.eng.pdes != nil {
		t.callPDES(op)
		return
	}
	t.park(op)
}

// Spin runs the loop
//
//	for op := step(); op != nil; op = step() { t.Call(op) }
//
// with the same ops, clocks and serialized order, but without resuming the
// thread's coroutine between ops: once the thread parks, the hub calls
// step right after each op's handler and executes the returned op while
// the thread still holds the lease. step runs in serialized context (like
// body code after an op) and may read the results of the op before it,
// but it must not call Call itself. Under PDES, Spin runs the loop as
// written.
func (t *Thread) Spin(step func() Op) {
	e := t.eng
	if e.pdes != nil {
		for op := step(); op != nil; op = step() {
			t.Call(op)
		}
		return
	}
	for {
		t.stepping = true
		op := step()
		t.stepping = false
		if op == nil {
			return
		}
		if t.now >= t.leaseEnd {
			// Hand the rest of the loop to the hub: it executes op, keeps
			// stepping, and resumes this coroutine once step returns nil.
			t.spin = step
			t.park(op)
			return
		}
		e.exec(t, op)
	}
}

// errStopped unwinds a coroutine that Run cancelled while it was parked.
var errStopped = errors.New("engine: thread stopped")

// park is Call's slow path: record op and suspend until the hub has
// executed it. A false yield means Run is abandoning the thread; unwinding
// the body then releases its goroutine (see run).
func (t *Thread) park(op Op) {
	if t.stepping {
		panic("engine: Thread.Call inside a Spin step function (a step must return its op, not call it)")
	}
	t.pending = op
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

// key is t's heap key: its (clock, id) packed into one integer.
func (t *Thread) key() uint64 {
	now := t.now
	if now > maxKeyClock {
		now = maxKeyClock
	}
	return now<<keyIDBits | uint64(t.id)
}

// Engine runs a set of threads to completion. Create with New.
type Engine struct {
	threads []*Thread
	handler Handler

	heap  keyHeap // live threads under the sequential scheduler
	guard uint64  // effective cycle guard for this Run (see MaxCycles)
	final uint64  // maximum clock observed (the global clock)

	// MaxCycles aborts the run when every runnable thread's clock exceeds
	// it — a guard against deadlocked simulated programs. Zero means no
	// limit below the sequential scheduler's clock ceiling of 2^48−2
	// cycles, which also caps larger values.
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
// handler. n may not exceed 65,536, the ids a heap key can hold.
func New(n int, handler Handler) *Engine {
	if n <= 0 || n > maxThreads {
		panic(fmt.Sprintf("engine: need 1 to %d threads, got %d", maxThreads, n))
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

// exec runs op's handler for t and advances t's clock.
func (e *Engine) exec(t *Thread, op Op) {
	adv := e.handler(t, op)
	t.now += adv
	if p := e.probe; p != nil {
		p.note(adv)
	}
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
	e.guard = clockCeiling
	if e.MaxCycles > 0 && e.MaxCycles < e.guard {
		e.guard = e.MaxCycles
	}
	e.heap = make(keyHeap, 0, len(e.threads))

	// Start threads one at a time, in id order; each runs until its first
	// op (or exit). The inline lease stays revoked (leaseEnd 0) until the
	// full set of live threads is known.
	for _, t := range e.threads {
		t.next, t.stop = iter.Pull(t.run)
		if e.resume(t) {
			e.heap.push(t.key())
		}
	}

	// The hub: the root is the smallest (clock, id) thread. Execute its
	// pending op (and, inside Spin, every op it goes on to post while it
	// keeps the lease), then either resume its body or leave it parked,
	// and restore the heap order under its new key.
	for len(e.heap) > 0 {
		u := e.threads[e.heap[0]&keyIDMask]
		if u.now > e.guard {
			return u.now, maxCyclesError(u)
		}
		if e.drive(u) && !e.resume(u) {
			e.heap.pop()
			continue
		}
		e.heap[0] = u.key()
		e.heap.down(0)
	}
	return e.final, nil
}

// drive executes the root thread u's pending op and grants u a fresh
// lease. If u parked inside Spin, drive keeps calling its step function
// and executing the ops it returns while u holds the lease. It reports
// whether u's body must resume: false when u is left parked on the next
// op of its Spin.
func (e *Engine) drive(u *Thread) bool {
	op := u.pending
	u.pending = nil
	for {
		e.exec(u, op)
		u.leaseEnd = e.leaseEnd(u)
		if u.spin == nil {
			return true
		}
		u.stepping = true
		op = u.spin()
		u.stepping = false
		if op == nil {
			u.spin = nil
			return true
		}
		if u.now >= u.leaseEnd {
			u.pending = op
			return false
		}
	}
}

// leaseEnd computes the lease of u, the thread at the heap root: u
// precedes every other live thread while its clock is below the smaller
// of the root's children's clocks (plus one if u wins the id tie), and
// may run inline only up to the cycle guard.
func (e *Engine) leaseEnd(u *Thread) uint64 {
	end := e.guard + 1
	h := e.heap
	if len(h) > 1 {
		c := h[1]
		if len(h) > 2 && h[2] < c {
			c = h[2]
		}
		b := c >> keyIDBits
		if uint64(u.id) < c&keyIDMask {
			b++
		}
		if b < end {
			end = b
		}
	}
	return end
}

// resume runs t's body until it parks or returns, reporting whether it
// parked. A panic in the body propagates from here out of Run.
func (e *Engine) resume(t *Thread) (parked bool) {
	if _, parked = t.next(); !parked && t.now > e.final {
		e.final = t.now
	}
	return parked
}

// keyHeap is a binary min-heap of packed thread keys (see Thread.key).
// Keys are distinct (ids are), so the order is total.
type keyHeap []uint64

func (h *keyHeap) push(k uint64) {
	*h = append(*h, k)
	a := *h
	i := len(a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if a[p] < k {
			break
		}
		a[i] = a[p]
		i = p
	}
	a[i] = k
}

// pop removes the root.
func (h *keyHeap) pop() {
	a := *h
	last := len(a) - 1
	a[0] = a[last]
	*h = a[:last]
	if last > 0 {
		h.down(0)
	}
}

// down restores the heap order below i after a[i]'s key grew.
func (h keyHeap) down(i int) {
	k := h[i]
	n := len(h)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r] < h[c] {
			c = r
		}
		if k < h[c] {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = k
}
