// PDES integration for the machine layer: the thread-local fast-path
// handler and the speculative event buffers published in serialized order.
// Which ops are local is decided in machine.go, next to the op types. The
// epoch window (topology.MinVisibilityLatency) is purely a batching
// parameter for the paper's compute-heavy disentangled phases, where long
// runs of compute/fence between memory ops are the common case.
package machine

import (
	"fmt"

	"warden/internal/core"
	"warden/internal/engine"
)

// EngineMode selects the simulation scheduler.
type EngineMode int

const (
	// EngineSequential is the default lease/coroutine scheduler: one
	// thread live at a time, the determinism ground truth.
	EngineSequential EngineMode = iota
	// EnginePDES is the conservative epoch-window parallel scheduler;
	// byte-identical results to EngineSequential, potentially using all
	// host cores.
	EnginePDES
)

// String returns the flag spelling of the mode.
func (m EngineMode) String() string {
	switch m {
	case EngineSequential:
		return "seq"
	case EnginePDES:
		return "pdes"
	}
	return fmt.Sprintf("EngineMode(%d)", int(m))
}

// ParseEngineMode parses the -engine flag values "seq" and "pdes".
func ParseEngineMode(s string) (EngineMode, error) {
	switch s {
	case "", "seq", "sequential":
		return EngineSequential, nil
	case "pdes", "parallel":
		return EnginePDES, nil
	}
	return EngineSequential, fmt.Errorf("machine: unknown engine mode %q (want seq or pdes)", s)
}

// localEvent is one buffered thread-local event awaiting publication.
// sortCycle is its position key in the serialized stream: the issuing
// thread's clock at emission (phase markers inherit the key of the event
// they follow; see emitMarker).
type localEvent struct {
	sortCycle uint64
	ev        core.Event
}

// threadLocal is the per-thread speculative state PDES local execution
// writes to: a private counter set merged into the machine's counters
// after the run, and an event buffer flushed in serialized order.
type threadLocal struct {
	ctr    localCounters
	events []localEvent
	head   int
}

// localCounters are the counter fields local ops touch. Kept separate
// from stats.Counters so a new counter on a global path can't silently
// miss the merge.
type localCounters struct {
	instructions  uint64
	computeCycles uint64
	fenceDrains   uint64
	storeCycles   uint64 // unused today; fences charge drains, stores are global
}

// pdesWindowScale multiplies the topology's minimum cross-thread
// visibility latency to form the epoch window. Any width gives identical
// results (see the engine package comment) — the window is pure batching
// — so it is sized to amortize the per-epoch coordinator round trip
// (open, phase-1 barrier, drain seed) over many ops. 8x the visibility
// latency keeps single-core overhead within a few percent of the
// sequential engine while bounding run-ahead to well under a microsecond
// of simulated time.
const pdesWindowScale = 8

// SetEngineMode selects the scheduler. Call before Run; the default is
// EngineSequential.
func (m *Machine) SetEngineMode(mode EngineMode) {
	m.emode = mode
	if mode != EnginePDES {
		return
	}
	m.locals = make([]threadLocal, m.cfg.Threads())
	m.eng.SetPDES(engine.PDESConfig{
		Window: pdesWindowScale * m.cfg.MinVisibilityLatency(),
		Local:  m.execLocal,
		Flush:  m.flushLocal,
	})
}

// EngineMode returns the scheduler selected for this machine.
func (m *Machine) EngineMode() EngineMode { return m.emode }

// execLocal is the PDES local handler: it executes compute and fence ops
// against thread-private state only, buffering the would-be event. It runs
// concurrently with other threads' execLocal calls, so it must not touch
// m.ctr, m.sys, or any shared structure.
func (m *Machine) execLocal(t *engine.Thread, op engine.Op) uint64 {
	tl := &m.locals[t.ID()]
	var adv, arg uint64
	var kind core.EventKind
	switch o := op.(type) {
	case *computeOp:
		tl.ctr.instructions += o.cycles
		adv = (o.cycles + superscalarWidth - 1) / superscalarWidth
		tl.ctr.computeCycles += adv
		kind, arg = core.EvCompute, o.cycles
	case *fenceOp:
		tl.ctr.instructions++
		tl.ctr.fenceDrains++
		adv = 1 + m.sbufs[t.ID()].drain(t.Now())
		kind = core.EvFence
	default:
		panic(fmt.Sprintf("machine: op %T marked local but not handled", op))
	}
	if m.observing {
		// Build the event in place, in its buffer slot.
		tl.events = append(tl.events, localEvent{sortCycle: t.Now()})
		ev := &tl.events[len(tl.events)-1].ev
		ev.Kind, ev.Arg1 = kind, arg
		ev.Thread = t.ID()
		ev.Core = m.coreOf[t.ID()]
		ev.Cycle = t.Now()
		ev.Latency = adv
		ev.Advance = adv
		m.nbuffered.Add(1)
	}
	return adv
}

// flushLocal publishes buffered local events whose serialized position
// (sortCycle, thread) is at or before (maxCycle, maxID), in exactly the
// order the sequential engine would have emitted them: ascending
// (sortCycle, thread), via a k-way merge over the per-thread FIFO buffers.
// It runs only in serialized context (the PDES drain or coordinator).
func (m *Machine) flushLocal(maxCycle uint64, maxID int) {
	if m.nbuffered.Load() == 0 {
		return
	}
	for {
		best := -1
		var bestKey uint64
		for tid := range m.locals {
			tl := &m.locals[tid]
			if tl.head >= len(tl.events) {
				continue
			}
			k := tl.events[tl.head].sortCycle
			if k > maxCycle || (k == maxCycle && tid > maxID) {
				continue
			}
			if best < 0 || k < bestKey {
				best, bestKey = tid, k
			}
		}
		if best < 0 {
			return
		}
		tl := &m.locals[best]
		le := &tl.events[tl.head]
		m.sys.Emit(&le.ev)
		*le = localEvent{}
		tl.head++
		if tl.head == len(tl.events) {
			tl.events = tl.events[:0]
			tl.head = 0
		}
		m.nbuffered.Add(-1)
	}
}

// emitMarker emits a phase marker. Sequentially (and in PDES serialized
// contexts with an empty own buffer) it goes straight to the sink. Under
// PDES with buffered local events on this thread, the marker must stay
// FIFO-after them — the sequential engine emits a marker immediately after
// the thread's preceding op, before other threads' smaller-clock ops that
// execute later — so it inherits the sort key of the last buffered event.
func (m *Machine) emitMarker(t *engine.Thread, ev *core.Event) {
	if m.emode == EnginePDES {
		tl := &m.locals[t.ID()]
		if tl.head < len(tl.events) {
			key := tl.events[len(tl.events)-1].sortCycle
			tl.events = append(tl.events, localEvent{sortCycle: key, ev: *ev})
			m.nbuffered.Add(1)
			return
		}
		// Own buffer empty: this thread's preceding ops are all published,
		// and body code only runs here in serialized contexts (startup, or
		// after a global op whose flush cleared the buffer), so a direct
		// emit lands in exactly the sequential position.
	}
	m.sys.Emit(ev)
}

// mergeLocals folds the per-thread PDES counters into the machine's
// shared counters. Called once after the engine run, including on error
// returns, so counters match the sequential engine's in every outcome.
func (m *Machine) mergeLocals() {
	if m.locals == nil {
		return
	}
	for i := range m.locals {
		c := &m.locals[i].ctr
		m.ctr.Instructions += c.instructions
		m.ctr.ComputeCycles += c.computeCycles
		m.ctr.FenceDrains += c.fenceDrains
		m.ctr.StoreCycles += c.storeCycles
	}
}
