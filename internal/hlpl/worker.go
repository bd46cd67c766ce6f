package hlpl

import (
	"warden/internal/engine"
	"warden/internal/machine"
	"warden/internal/mem"
)

// taskDesc describes a forked task sitting in a deque. The Go-side struct
// carries the closure; the simulated side carries the fork record the
// parent wrote into its heap (function pointer + argument words) that the
// executing worker must read, and the join cell it must signal.
type taskDesc struct {
	fn     func(*Task)
	parent *Heap
	desc   mem.Addr // fork record in the parent's heap (16 bytes)
	join   mem.Addr // join cell in runtime memory
}

// worker is one scheduler participant, pinned to a hardware thread. Its
// deque holds Go task descriptors; a pair of simulated control words (top
// and bottom indices, in runtime memory on separate blocks) carries the
// coherence traffic a Chase-Lev deque would generate.
type worker struct {
	rt  *RT
	id  int
	ctx *machine.Ctx

	items []*taskDesc
	head  int

	topCell    mem.Addr // stolen-from end: thieves FetchAdd here
	bottomCell mem.Addr // owner end: owner loads/stores here

	runPool map[int][]mem.Addr // worker-local free page runs by size

	rng uint64
}

func newWorker(rt *RT, id int) *worker {
	return &worker{
		rt:         rt,
		id:         id,
		topCell:    rt.allocCell(),
		bottomCell: rt.allocCell(),
		runPool:    make(map[int][]mem.Addr),
		rng:        uint64(id)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d,
	}
}

func (w *worker) nextRand() uint64 {
	w.rng ^= w.rng << 13
	w.rng ^= w.rng >> 7
	w.rng ^= w.rng << 17
	return w.rng
}

// push makes td stealable. The owner publishes the new bottom index.
func (w *worker) push(td *taskDesc) {
	w.items = append(w.items, td)
	w.ctx.Store(w.bottomCell, 8, uint64(len(w.items)))
}

// popIf removes td from the owner's end if it was not stolen, performing
// the owner side of the deque protocol (load top, move bottom).
func (w *worker) popIf(td *taskDesc) bool {
	w.ctx.Load(w.topCell, 8)
	if len(w.items) > w.head && w.items[len(w.items)-1] == td {
		w.items = w.items[:len(w.items)-1]
		w.ctx.Store(w.bottomCell, 8, uint64(len(w.items)))
		return true
	}
	return false
}

// Idle-loop states: which op the idle step function issued last.
const (
	idleStart   = iota // nothing yet: issue the check op
	idleChecked        // the check op executed: stop, or start probing
	idleProbed         // a victim's bottom cell was loaded: steal or probe on
	idleStole          // the steal's FetchAdd executed: return the task
)

// idle busy-waits until stop reports true (returning nil) or a steal
// succeeds (returning the stolen task, which the caller runs before
// idling again). One round issues the check op, then probes up to
// stealProbeLimit random victims by loading each one's bottom cell and
// takes the oldest task of the first victim with work — committing with a
// simulated FetchAdd on the victim's top cell, the classic steal-side
// contention — and otherwise backs off for idleProbeCycles.
//
// The loop runs as a Spin step function: the engine calls it right after
// each of its ops executes, so every decision is made on the post-op
// state (other workers may have mutated the victim's deque while this
// worker's load was pending) without resuming this worker's coroutine.
// check must build a fresh op on every call; stop reads its result.
func (w *worker) idle(check func() engine.Op, stop func() bool) *taskDesc {
	ctx := w.ctx
	workers := w.rt.workers
	n := uint64(len(workers))
	var (
		state  = idleStart
		probes int
		victim *worker
		stolen *taskDesc
	)
	ctx.Spin(func() engine.Op {
		switch state {
		case idleStart:
			state = idleChecked
			return check()
		case idleChecked:
			if stop() {
				return nil
			}
			probes = 0
		case idleProbed:
			if v := victim; len(v.items) > v.head {
				stolen = v.items[v.head]
				v.head++
				if v.head == len(v.items) {
					v.items = v.items[:0]
					v.head = 0
				}
				w.rt.Steals++
				state = idleStole
				return ctx.FetchAddOp(v.topCell, 8, 1)
			}
		case idleStole:
			return nil
		}
		// Probe the next victim, or back off once the round is spent.
		for n > 1 && probes < stealProbeLimit {
			probes++
			if v := workers[w.nextRand()%n]; v != w {
				victim = v
				state = idleProbed
				return ctx.LoadOp(v.bottomCell, 8)
			}
		}
		state = idleStart
		return ctx.ComputeOp(idleProbeCycles)
	})
	return stolen
}

// runTask executes a (typically stolen) task: read the fork record the
// parent wrote into its heap, run the task in a fresh leaf heap, unmark and
// merge the heap, and signal the join cell.
func (w *worker) runTask(td *taskDesc) {
	w.ctx.Compute(taskSetupCycles)
	w.ctx.Load(td.desc, 8)
	w.ctx.Load(td.desc+8, 8)
	h := w.rt.newHeap(td.parent)
	t := &Task{w: w, heap: h}
	w.ctx.PhaseBegin(StealPhase)
	td.fn(t)
	t.finish(td.parent)
	w.ctx.Store(td.join, 8, 1)
	w.ctx.PhaseEnd(StealPhase)
}

// loop is the body of every non-root worker: steal until the computation
// finishes. The done flag is host-side state shared with the root thread,
// so it is read through a host op (Ctx.HostOp) — pinning each check to
// this worker's serialized position, which keeps the number of idle
// iterations (and so the instruction stream) identical across engine
// modes. The check closures are built once per worker.
func (w *worker) loop() {
	var done bool
	readDone := func() { done = w.rt.done }
	check := func() engine.Op { return w.ctx.HostOp(readDone) }
	stop := func() bool { return done }
	for {
		td := w.idle(check, stop)
		if td == nil {
			return
		}
		w.runTask(td)
	}
}
