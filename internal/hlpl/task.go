package hlpl

import (
	"sync/atomic"

	"warden/internal/engine"
	"warden/internal/machine"
	"warden/internal/mem"
)

// Runtime-emitted phase names. Every fork/join scope is bracketed by
// EvPhaseBegin/EvPhaseEnd markers through the machine's event sink (zero
// simulated cost, nothing emitted without a sink): the root task, each
// child task run inline by Join2, and each stolen task executed by a thief
// worker. Benchmarks can add their own named phases with Task.Phase.
const (
	RootPhase  = "root"
	TaskPhase  = "task"
	StealPhase = "steal"
)

// Task is a node of the spawn tree. A task runs on exactly one worker at a
// time and owns a leaf heap for its allocations; Join2/ParallelFor suspend
// it while children run. Task methods proxy memory operations to the
// executing worker's hardware thread.
type Task struct {
	w       *worker
	heap    *Heap
	scratch *Heap // task-local temporary space, recycled at completion
	discard bool  // release (rather than merge) the heap at completion
}

// DiscardHeap declares that nothing allocated in this task's heap escapes
// the task: at completion the heap's pages are reclaimed instead of merged
// into the parent. This stands in for the generational collection MPL's GC
// performs — short-lived allocations are recycled across tasks and workers,
// which is precisely the memory churn WARDen absorbs. Using it on a task
// whose results are read later is a caller bug (the data is recycled).

// Ctx returns the hardware-thread context currently executing the task.
func (t *Task) Ctx() *machine.Ctx { return t.w.ctx }

// RT returns the runtime.
func (t *Task) RT() *RT { return t.w.rt }

// Alloc bump-allocates size bytes (align-aligned) in the task's leaf heap.
// The data survives the task: at join, the heap merges into the parent.
func (t *Task) Alloc(size, align uint64) mem.Addr {
	return t.heap.alloc(t.w, size, align)
}

// AllocScratch allocates task-local temporary space. Scratch pages return
// to the global pool when the task completes, so they are recycled across
// tasks — the main source of allocation-driven coherence traffic.
func (t *Task) AllocScratch(size, align uint64) mem.Addr {
	if t.scratch == nil {
		t.scratch = t.w.rt.newHeap(nil)
	}
	return t.scratch.alloc(t.w, size, align)
}

// DiscardHeap marks the task's heap for reclamation at completion.
func (t *Task) DiscardHeap() { t.discard = true }

func (t *Task) releaseScratch() {
	if t.scratch == nil {
		return
	}
	t.scratch.unmark(t.w.ctx)
	t.scratch.release(t.w)
	t.scratch = nil
}

// Phase runs body inside a named phase: telemetry sinks see an
// EvPhaseBegin/EvPhaseEnd pair bracketing every simulated operation body
// performs on this thread. Phases nest (LIFO per thread) and cost nothing:
// no instruction is executed and no cycle advances, so marked and unmarked
// runs are byte-identical. Forked children started inside body open their
// own task/steal phases on whichever worker runs them.
func (t *Task) Phase(name string, body func()) {
	t.w.ctx.PhaseBegin(name)
	body()
	t.w.ctx.PhaseEnd(name)
}

// Compute advances the task by n single-cycle instructions of local work.
func (t *Task) Compute(n uint64) { t.w.ctx.Compute(n) }

// Load performs a size-byte load.
func (t *Task) Load(a mem.Addr, size int) uint64 { return t.w.ctx.Load(a, size) }

// Store performs a size-byte store.
func (t *Task) Store(a mem.Addr, size int, v uint64) { t.w.ctx.Store(a, size, v) }

// Join2 runs a and b as parallel children of the task (fork-join). Per
// §4.2 the scheduler unmarks the current heap's WARD regions before the
// fork; each child runs in a fresh leaf heap that is unmarked and merged
// into this task's heap when it completes (Fig. 2).
func (t *Task) Join2(a, b func(*Task)) {
	w := t.w
	rt := w.rt
	// This segment may run ahead of its serialized position (local-op
	// run-ahead), or concurrently under the PDES engine; the fork count is
	// commutative, so an atomic add keeps it exact and race-free.
	atomic.AddUint64(&rt.Forks, 1)
	w.ctx.Compute(forkSetupCycles)

	// Write the fork record for b into the current heap, then unmark it:
	// the record (and anything else the children will read) flushes to the
	// shared cache ahead of the children's first accesses (§5.3).
	desc := t.heap.alloc(w, 16, 8)
	w.ctx.Store(desc, 8, uint64(uintptr(t.w.id))) // stand-ins for fn pointer
	w.ctx.Store(desc+8, 8, uint64(len(w.items)))  // and argument word
	t.heap.unmark(w.ctx)

	// The cell free list is shared host state and the cell address is
	// simulation-visible: draw it at this thread's serialized position.
	var join mem.Addr
	w.ctx.Host(func() { join = rt.allocCell() })
	w.ctx.Store(join, 8, 0)
	td := &taskDesc{fn: b, parent: t.heap, desc: desc, join: join}
	w.push(td)

	// Run a inline in a fresh child heap.
	ta := &Task{w: w, heap: rt.newHeap(t.heap)}
	w.ctx.PhaseBegin(TaskPhase)
	a(ta)
	ta.finish(t.heap)
	w.ctx.PhaseEnd(TaskPhase)

	if w.popIf(td) {
		// b was not stolen: run it inline too.
		w.ctx.Load(desc, 8)
		w.ctx.Load(desc+8, 8)
		tb := &Task{w: w, heap: rt.newHeap(t.heap)}
		w.ctx.PhaseBegin(TaskPhase)
		b(tb)
		tb.finish(t.heap)
		w.ctx.PhaseEnd(TaskPhase)
	} else {
		// b was stolen: help with other work while waiting for the thief's
		// completion signal (busy-wait synchronization, as in the PBBS
		// runtime the paper describes in §7.2). The check op loads the
		// join cell; the wait ends once the thief has set it.
		check := func() engine.Op { return w.ctx.LoadOp(join, 8) }
		stop := func() bool { return w.ctx.Loaded(8) != 0 }
		for other := w.idle(check, stop); other != nil; other = w.idle(check, stop) {
			w.runTask(other)
		}
	}
	w.ctx.Host(func() { rt.freeCell(join) })
}

// finish completes a child task: scratch is recycled, the heap's WARD
// regions reconcile, and the heap merges into parent (or is reclaimed for a
// discarded task).
func (t *Task) finish(parent *Heap) {
	t.releaseScratch()
	t.heap.unmark(t.w.ctx)
	if t.discard {
		t.heap.release(t.w)
		return
	}
	t.heap.mergeInto(t.w.ctx, parent)
}

// ParallelFor runs body(i) for lo <= i < hi in parallel, splitting the
// range binarily down to grain iterations (the runtime default when grain
// <= 0). The body receives the leaf task executing its chunk.
func (t *Task) ParallelFor(lo, hi, grain int, body func(leaf *Task, i int)) {
	if grain <= 0 {
		grain = t.w.rt.opts.Grain
	}
	if hi-lo <= grain {
		for i := lo; i < hi; i++ {
			body(t, i)
		}
		return
	}
	mid := lo + (hi-lo)/2
	t.Join2(
		func(a *Task) { a.ParallelFor(lo, mid, grain, body) },
		func(b *Task) { b.ParallelFor(mid, hi, grain, body) },
	)
}

// ParallelRange is ParallelFor over chunks: body receives each leaf
// subrange [lo, hi) whole, for algorithms that want to process runs.
func (t *Task) ParallelRange(lo, hi, grain int, body func(leaf *Task, lo, hi int)) {
	if grain <= 0 {
		grain = t.w.rt.opts.Grain
	}
	if hi-lo <= grain {
		body(t, lo, hi)
		return
	}
	mid := lo + (hi-lo)/2
	t.Join2(
		func(a *Task) { a.ParallelRange(lo, mid, grain, body) },
		func(b *Task) { b.ParallelRange(mid, hi, grain, body) },
	)
}

// Reduce computes the combination of leaf(lo', hi') over [lo, hi) in
// parallel. combine must be associative.
func (t *Task) Reduce(lo, hi, grain int, leaf func(*Task, int, int) uint64, combine func(uint64, uint64) uint64) uint64 {
	if grain <= 0 {
		grain = t.w.rt.opts.Grain
	}
	if hi-lo <= grain {
		return leaf(t, lo, hi)
	}
	mid := lo + (hi-lo)/2
	var va, vb uint64
	t.Join2(
		func(a *Task) { va = a.Reduce(lo, mid, grain, leaf, combine) },
		func(b *Task) { vb = b.Reduce(mid, hi, grain, leaf, combine) },
	)
	return combine(va, vb)
}
