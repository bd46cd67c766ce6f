package core

// The structured coherence event stream. Every instruction and every
// coherence transaction in the simulator can be observed as one Event
// delivered to a Sink attached via SetSink. With no sink attached the
// access paths pay only a nil check: no snapshots are taken and no Event
// values are built, so nil-sink runs are byte-for-byte identical to a build
// without the event layer at all.
//
// Two layers emit events:
//
//   - internal/machine emits one instruction-level event per retired
//     memory-system instruction (EvLoad, EvStore, EvAtomic, EvCompute,
//     EvFence, EvRegionAdd, EvRegionRemove) plus one EvDrain after the
//     end-of-run DrainAll. These carry the hardware thread, the address
//     operands, and the counter deltas for the whole instruction.
//   - internal/core emits protocol-internal events from within those
//     instructions: EvTransaction for each directory transaction, EvEvict
//     for each L2 capacity eviction, and EvReconcile for each W-block
//     reconciliation. These carry the directory transition (state, owner,
//     sharer set before and after).
//
// Protocol-internal events therefore nest inside instruction-level events,
// and their counter deltas are subsets of the enclosing instruction's
// delta. Seq orders all events globally in simulated execution order.

import (
	"warden/internal/cache"
	"warden/internal/coherence"
	"warden/internal/mem"
	"warden/internal/stats"
)

// EventKind identifies what an Event describes.
type EventKind int

const (
	// Instruction-level events, emitted by internal/machine.
	EvLoad         EventKind = iota // a load instruction retired
	EvStore                         // a store instruction retired
	EvAtomic                        // an atomic RMW retired
	EvCompute                       // a compute delay elapsed
	EvFence                         // a fence (store-buffer drain) retired
	EvRegionAdd                     // an Add Region instruction retired
	EvRegionRemove                  // a Remove Region instruction retired
	EvDrain                         // the end-of-run DrainAll completed

	// Protocol-internal events, emitted by internal/core.
	EvTransaction // one directory transaction (miss or upgrade)
	EvEvict       // one private-L2 capacity eviction
	EvReconcile   // one W block reconciled

	// Phase markers, emitted by the HLPL runtime (and Ctx.PhaseBegin/
	// PhaseEnd callers) around fork/join task scopes and user-named program
	// phases. They execute no simulated instruction and cost zero cycles:
	// with no sink attached they are not emitted at all, so attaching a sink
	// still cannot change simulated behaviour.
	EvPhaseBegin // a named phase opened on Thread at Cycle
	EvPhaseEnd   // the innermost open phase on Thread closed
)

// String names the event kind (used by the JSONL encoder and reports).
func (k EventKind) String() string {
	switch k {
	case EvLoad:
		return "load"
	case EvStore:
		return "store"
	case EvAtomic:
		return "atomic"
	case EvCompute:
		return "compute"
	case EvFence:
		return "fence"
	case EvRegionAdd:
		return "region_add"
	case EvRegionRemove:
		return "region_remove"
	case EvDrain:
		return "drain"
	case EvTransaction:
		return "transaction"
	case EvEvict:
		return "evict"
	case EvReconcile:
		return "reconcile"
	case EvPhaseBegin:
		return "phase_begin"
	case EvPhaseEnd:
		return "phase_end"
	}
	return "unknown"
}

// Instruction reports whether k is an instruction-level event (emitted by
// the machine layer, safe points for whole-system invariant checks) rather
// than a protocol-internal one (which may observe mid-transaction state).
func (k EventKind) Instruction() bool { return k <= EvDrain }

// RMWKind distinguishes the atomic operations an EvAtomic event can carry.
type RMWKind int

const (
	RMWNone     RMWKind = iota
	RMWFetchAdd         // Arg1 = delta
	RMWCAS              // Arg1 = expected old, Arg2 = new
)

// String names the RMW kind.
func (k RMWKind) String() string {
	switch k {
	case RMWFetchAdd:
		return "fetch_add"
	case RMWCAS:
		return "cas"
	}
	return "none"
}

// Event is one observation from the simulated memory system. Which fields
// are meaningful depends on Kind; unused fields are zero. Events are valid
// only for the duration of the Sink.Event call — sinks that retain data
// must copy what they need (Data in particular aliases machine-owned
// scratch space).
type Event struct {
	Seq    uint64    // global sequence number, dense from 0
	Kind   EventKind // what happened
	Thread int       // hardware thread driving the op (-1: none/system)
	Core   int       // core performing the op (-1 for EvReconcile/EvDrain)
	Cycle  uint64    // issuing thread's local clock when the op was issued
	Label  string    // phase name (EvPhaseBegin/EvPhaseEnd only)

	// Operands (instruction-level kinds, and Addr/Block for all).
	Addr  mem.Addr // instruction address operand; block address for internal events
	Block mem.Addr // cache-block address of Addr
	Size  int      // access size in bytes (loads/stores/atomics)

	Mode AccessMode // permission the access needed (EvLoad/EvStore/EvAtomic/EvTransaction)
	RMW  RMWKind    // EvAtomic: which atomic op
	Arg1 uint64     // EvStore: value (Size<=8); EvAtomic: old/delta; EvCompute: cycles; EvReconcile: writers
	Arg2 uint64     // EvAtomic (CAS): new value; EvReconcile: merged sector mask
	Data []byte     // EvStore with Size>8: the stored bytes (borrowed, copy to keep)

	// Region instructions (EvRegionAdd/EvRegionRemove) and W-state events.
	Lo, Hi   mem.Addr // EvRegionAdd: requested interval
	Region   RegionID // region id involved (NullRegion if none)
	RegionOK bool     // EvRegionAdd: whether the region table accepted it

	// Directory transition (EvTransaction/EvEvict/EvReconcile). Before is
	// the entry state on entry (Invalid if absent), After on exit.
	DirBefore, DirAfter         cache.State
	OwnerBefore, OwnerAfter     int // -1 when the entry is absent
	SharersBefore, SharersAfter coherence.Bitset

	LineState cache.State // EvEvict: state of the victim line

	Latency uint64         // cycles charged to the requester (where defined)
	Ctrs    stats.Snapshot // counter deltas attributable to this event

	// Advance is the exact clock advance the engine charged the issuing
	// thread for this instruction — the value the machine's op handler
	// returned, which is the only quantity ever added to a thread clock.
	// Summing Advance over one thread's instruction-level events therefore
	// reconstructs that thread's final clock exactly, and the run's cycle
	// count is the maximum over threads; internal/attrib builds its
	// zero-residue reconciliation on this identity. Zero for
	// protocol-internal events, phase markers, and EvDrain (none of which
	// advance any thread clock). Advance can differ from Latency: a store
	// charges issue+stall to the clock while Latency reports the memory
	// latency the store buffer will absorb.
	Advance uint64
}

// Sink receives events. Implementations must not retain ev or ev.Data past
// the call. Sinks run synchronously on the simulation's single thread, so
// they need no locking, but everything they do is pure observation: a sink
// must not mutate the system.
type Sink interface {
	Event(ev *Event)
}

// multiSink fans one event out to several sinks in order.
type multiSink []Sink

func (m multiSink) Event(ev *Event) {
	for _, s := range m {
		s.Event(ev)
	}
}

// Sinks combines several sinks into one; nil entries are dropped. Returns
// nil if none remain (keeping the nil-sink fast path intact).
func Sinks(sinks ...Sink) Sink {
	var m multiSink
	for _, s := range sinks {
		if s != nil {
			m = append(m, s)
		}
	}
	switch len(m) {
	case 0:
		return nil
	case 1:
		return m[0]
	}
	return m
}

// SetSink attaches sink to the system (nil detaches). The sequence counter
// continues across re-attachments so Seq stays globally unique.
func (s *System) SetSink(sink Sink) { s.sink = sink }

// Sink returns the currently attached sink (nil if none). The machine layer
// uses this to decide whether to build instruction-level events.
func (s *System) Sink() Sink { return s.sink }

// SetEventThread records the hardware thread about to drive accesses, for
// attribution in emitted events. The machine layer calls this only when a
// sink is attached; -1 means "no thread" (system activity such as DrainAll).
func (s *System) SetEventThread(t int) { s.evThread = t }

// EventThread returns the thread set by SetEventThread (-1 if none).
func (s *System) EventThread() int { return s.evThread }

// SetEventCycle records the issuing thread's local clock, stamped onto the
// protocol-internal events the current instruction causes. Like
// SetEventThread it is only called by the machine layer when a sink is
// attached; with no sink the field is never read.
func (s *System) SetEventCycle(c uint64) { s.evCycle = c }

// EventCycle returns the cycle set by SetEventCycle.
func (s *System) EventCycle() uint64 { return s.evCycle }

// Emit stamps ev with the next sequence number and delivers it to the
// attached sink, if any. The machine layer emits its instruction-level
// events through this so core- and machine-emitted events share one
// ordering.
func (s *System) Emit(ev *Event) {
	if s.sink == nil {
		return
	}
	s.emit(ev)
}

func (s *System) emit(ev *Event) {
	ev.Seq = s.evSeq
	s.evSeq++
	s.sink.Event(ev)
}

// dirPeek reports block's directory transition triple: its entry state
// (Invalid if absent), owner (-1 if absent), and sharer set.
func (s *System) dirPeek(block mem.Addr) (cache.State, int, coherence.Bitset) {
	if e := s.dir.Lookup(block); e != nil {
		return e.State, e.Owner, e.Sharers
	}
	return cache.Invalid, -1, 0
}

// dirTransaction wraps dirTransact with EvTransaction emission. With no
// sink attached it is a direct tail call — the hot path pays one nil check.
func (s *System) dirTransaction(core int, block mem.Addr, mode AccessMode) (cache.State, uint64) {
	if s.sink == nil {
		return s.dirTransact(core, block, mode)
	}
	var before stats.Snapshot
	s.ctr.SnapInto(&before)
	db, ob, sb := s.dirPeek(block)
	st, lat := s.dirTransact(core, block, mode)
	ev := &s.ev
	*ev = Event{}
	ev.Kind = EvTransaction
	ev.Thread = s.evThread
	ev.Core = core
	ev.Cycle = s.evCycle
	ev.Addr, ev.Block = block, block
	ev.Mode = mode
	ev.DirBefore, ev.OwnerBefore, ev.SharersBefore = db, ob, sb
	ev.Latency = lat
	s.ctr.DeltaInto(&ev.Ctrs, &before)
	ev.DirAfter, ev.OwnerAfter, ev.SharersAfter = s.dirPeek(block)
	if ev.DirAfter == cache.Ward {
		if e := s.dir.Lookup(block); e != nil {
			ev.Region = RegionID(e.Region)
		}
	}
	s.emit(ev)
	return st, lat
}
