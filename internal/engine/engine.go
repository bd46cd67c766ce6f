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
// Each thread body runs as an iter.Pull coroutine. Run is the hub. It
// orders the threads by packed keys now<<16 | id, so one integer compare
// orders two threads by (clock, id), and keeps the keys in a loser
// (tournament) tree: one leaf per thread, padded to a power of two with
// the sentinel key ^0, and at each internal node the key that lost the
// match played there. The winner at the top is the thread rule 2 picks; it
// stays the winner while it runs. The hub executes the winner's pending
// operation and resumes the thread, which runs until its next park (or
// its body returns). Then the hub replays the thread's leaf-to-root path
// under its new key (the sentinel once it has exited): a fixed log2 of the
// padded thread count of steps, each a min and a max with no
// data-dependent branch. Run ends when no live thread is left.
//
// A coroutine switch is a direct runtime handoff between two goroutines
// with no scheduler queue in between. On top of it the inline lease removes
// most switches entirely. Before resuming a thread, the hub computes its
// leaseEnd: the first clock at which the thread no longer precedes every
// other live thread. The runner-up always lost its match directly to the
// winner, so the other threads' minimum is the smallest loser on the
// winner's path; leaseEnd also folds in the MaxCycles guard. While the
// thread's clock stays below leaseEnd, its next operation is by
// definition the one rule 2 would pick, so Thread.Call executes the handler
// inline on the thread's own coroutine — a single compare, no switch, no
// tree touched. The lease cannot go stale: other threads' clocks only move
// while this thread is parked.
//
// Local-op run-ahead (SetRunAhead) lets a thread go on past its lease. A
// LocalOp reads and writes only its own thread's state, so with run-ahead
// on, Call executes it in place even when the lease has run out (up to the
// cycle guard, the lease's own cap), and the thread parks only at its next
// global op. It parks there under exactly the key it would have had, so
// every global op still executes at its exact (clock, id) position; only
// host order changes: body code after a LocalOp may run before other
// threads' ops that precede it in (clock, id) order. Such code must reach
// shared host state through a global op, the contract the PDES scheduler
// already imposes. The machine turns run-ahead on when no event sink is
// attached, since a sink must see every op in serialized order.
//
// Thread.Spin removes the remaining switches for loops whose body code
// between operations is small (a busy-wait, a steal loop). Its meaning is
// defined as
//
//	for op := step(); op != nil; op = step() { t.Call(op) }
//
// but when the thread parks inside Spin, the hub calls step itself, right
// after each operation's handler: the position where the coroutine would
// have resumed. While the thread still precedes every other live thread
// (or, with run-ahead on, the returned op is a LocalOp) the hub executes
// the returned op at once; otherwise it replays the thread's path and
// moves on. The coroutine resumes only when step returns nil. A step
// function must build and return its ops, never call them: Thread.Call
// from inside step panics once the call leaves the inline lease.
//
// Every path executes global ops' handlers in exactly the (clock, id)
// serialized order (and, with run-ahead off, LocalOps' too), and the body
// code between two of a thread's operations always runs immediately after
// the first operation's handler — identical to a centralized engine, so
// simulated results are unchanged to the bit.
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
// private counters, or shared counters whose adds commute) and never
// shared simulator state another op reads. Ops that do not implement
// LocalOp are global and always execute in exact (clock, id) order. The
// sequential scheduler with run-ahead on (see SetRunAhead) executes a
// LocalOp in place even past the thread's lease; the PDES scheduler (see
// SetPDES) executes LocalOps concurrently on host threads inside an epoch
// window. Either way, body and step code that follows a LocalOp may run
// before other threads' ops that precede it in (clock, id) order, so it
// must not touch shared host state except through a global op.
type LocalOp interface{ EngineLocal() }

// Handler executes op on behalf of t and returns how many cycles t's local
// clock advances. Handlers run while every other thread is parked and may
// freely mutate simulator state; the goroutine they run on varies (the
// issuing thread's coroutine on the inline path, Run's hub otherwise) but
// is always the only one running.
type Handler func(t *Thread, op Op) (advance uint64)

// Scheduler keys pack a thread's (clock, id) as now<<keyIDBits | id, so
// that integer order is the scheduler's pick order. Clocks above maxKeyClock
// saturate there; the cycle guard never lets a thread run past
// clockCeiling, so a saturated key only ever marks a thread about to trip
// it.
const (
	keyIDBits    = 16
	keyIDMask    = 1<<keyIDBits - 1
	maxThreads   = 1 << keyIDBits
	maxKeyClock  = 1<<(64-keyIDBits) - 1
	clockCeiling = maxKeyClock - 1 // the cycle guard when MaxCycles is 0
	noKey        = ^uint64(0)      // padding leaves and exited threads
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
// this coroutine. So does a LocalOp under run-ahead (see SetRunAhead).
// Otherwise the thread parks and the hub runs the thread with the smallest
// clock.
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
	e := t.eng
	if e.pdes != nil {
		t.callPDES(op)
		return
	}
	if t.stepping {
		panic("engine: Thread.Call inside a Spin step function (a step must return its op, not call it)")
	}
	if e.runsAhead(t, op) {
		e.exec(t, op)
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
// the thread still holds the lease (or, with run-ahead on, while the op is
// a LocalOp). step runs where body code after the op before it would run,
// in serialized context after a global op, and may read that op's results,
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
		if t.now >= t.leaseEnd && !e.runsAhead(t, op) {
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

// key is t's scheduler key: its (clock, id) packed into one integer.
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

	// tree is the sequential scheduler's loser tree over the threads' keys:
	// tree[0] is the winner and tree[i], 0 < i < len(tree), the loser of
	// the match between the subtrees 2i and 2i+1. Thread id's leaf is the
	// implicit node len(tree)+id.
	tree  []uint64
	guard uint64 // effective cycle guard for this Run (see MaxCycles)
	final uint64 // maximum clock observed (the global clock)

	// MaxCycles aborts the run when every runnable thread's clock exceeds
	// it — a guard against deadlocked simulated programs. Zero means no
	// limit below the sequential scheduler's clock ceiling of 2^48−2
	// cycles, which also caps larger values.
	MaxCycles uint64

	// probe, if set, receives per-op progress (see Probe). Nil costs one
	// predictable branch per op.
	probe *Probe

	// runAhead lets a thread past its lease execute LocalOps in place (see
	// SetRunAhead).
	runAhead bool

	// ran guards Run against double invocation (the coroutines and tree are
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

// SetRunAhead turns local-op run-ahead on or off; it is off by default
// (see the package comment and LocalOp). Leave it off while an observer
// needs every op in serialized order. The PDES scheduler ignores it. Call
// before Run.
func (e *Engine) SetRunAhead(on bool) { e.runAhead = on }

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
// handler. n may not exceed 65,536, the ids a scheduler key can hold.
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

	// Start threads one at a time, in id order; each runs until its first
	// op (or exit). The inline lease stays revoked (leaseEnd 0) until the
	// full set of live threads is known.
	p := 1
	for p < len(e.threads) {
		p *= 2
	}
	live := 0                // threads whose bodies have not returned
	w := make([]uint64, 2*p) // the tree's nodes, then one leaf per thread
	leaves := w[p:]
	for i := range leaves {
		leaves[i] = noKey
	}
	for _, t := range e.threads {
		t.next, t.stop = iter.Pull(t.run)
		if e.resume(t) {
			leaves[t.id] = t.key()
			live++
		}
	}
	e.tree = playTournament(w)

	// The hub: the winner is the smallest (clock, id) thread. Execute its
	// pending op (and, inside Spin, every op it goes on to post while it
	// keeps the lease), then either resume its body or leave it parked,
	// and replay its path under its new key. A live thread can hold the
	// sentinel's key (id 65535 at a saturated clock), so the loop counts
	// live threads rather than testing the winner for the sentinel.
	for live > 0 {
		u := e.threads[e.tree[0]&keyIDMask]
		if u.now > e.guard {
			return u.now, maxCyclesError(u)
		}
		k := noKey
		if !e.drive(u) || e.resume(u) {
			k = u.key()
		} else {
			live--
		}
		e.replay(u.id, k)
	}
	return e.final, nil
}

// drive executes the winner u's pending op and grants u a fresh lease.
// If u parked inside Spin, drive keeps calling its step function and
// executing the ops it returns while u holds the lease. It reports whether
// u's body must resume: false when u is left parked on the next op of its
// Spin. Nothing touches the tree while u runs, so one lease serves the
// whole wake.
func (e *Engine) drive(u *Thread) bool {
	op := u.pending
	u.pending = nil
	u.leaseEnd = e.leaseEnd(u)
	for {
		e.exec(u, op)
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
		if u.now >= u.leaseEnd && !e.runsAhead(u, op) {
			u.pending = op
			return false
		}
	}
}

// runsAhead reports whether t, past its lease, executes op in place
// anyway: op is a LocalOp, run-ahead is on, and t has not passed the
// cycle guard, the same cap the lease has.
func (e *Engine) runsAhead(t *Thread, op Op) bool {
	if !e.runAhead {
		return false
	}
	_, local := op.(LocalOp)
	return local && t.now <= e.guard
}

// leaseEnd computes the lease of u, the winner: u precedes every other
// live thread while its clock is below the smallest loser on its path
// (plus one if u wins the id tie), and may run inline only up to the
// cycle guard.
func (e *Engine) leaseEnd(u *Thread) uint64 {
	t := e.tree
	c := noKey
	for i := (len(t) + u.id) >> 1; i > 0; i >>= 1 {
		c = min(c, t[i])
	}
	b := c >> keyIDBits
	if uint64(u.id) < c&keyIDMask {
		b++
	}
	return min(b, e.guard+1)
}

// replay re-plays the matches on thread id's leaf-to-root path after the
// winner, thread id, takes key k: each node keeps the larger key and sends
// the smaller one up. Only the winner's path may be replayed, since its
// nodes hold exactly the keys that lost to it.
func (e *Engine) replay(id int, k uint64) {
	t := e.tree
	for i := (len(t) + id) >> 1; i > 0; i >>= 1 {
		n := t[i]
		t[i] = max(n, k)
		k = min(n, k)
	}
	t[0] = k
}

// resume runs t's body until it parks or returns, reporting whether it
// parked. A panic in the body propagates from here out of Run.
func (e *Engine) resume(t *Thread) (parked bool) {
	if _, parked = t.next(); !parked && t.now > e.final {
		e.final = t.now
	}
	return parked
}

// playTournament builds a loser tree from w, whose second half holds the
// leaf keys and whose length is a power of two at least 2. It plays every
// match bottom-up, storing winners in w[1:len(w)/2], then walks the
// internal nodes top-down, replacing each winner by the loser of its match
// (both of whose players its children still hold). It returns the tree,
// w[:len(w)/2], with the overall winner at index 0.
func playTournament(w []uint64) []uint64 {
	p := len(w) / 2
	for i := p - 1; i > 0; i-- {
		w[i] = min(w[2*i], w[2*i+1])
	}
	w[0] = w[1]
	for i := 1; i < p; i++ {
		w[i] = max(w[2*i], w[2*i+1])
	}
	return w[:p]
}
