// Package machine assembles the simulated computer: the discrete-event
// engine, the MESI/WARDen memory system, and the instruction set that
// simulated programs execute (loads, stores, compute, fences, atomics, and
// WARDen's Add/Remove Region instructions).
//
// Programs are ordinary Go functions receiving a *Ctx per hardware thread;
// every Ctx method is one or more simulated instructions whose timing and
// coherence behaviour flow through the memory system. Stores retire through
// a finite store buffer and only stall the core when it fills, while loads
// block — the asymmetry behind the paper's observation that avoided
// downgrades matter more than avoided invalidations (Fig. 10).
package machine

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"warden/internal/core"
	"warden/internal/engine"
	"warden/internal/mem"
	"warden/internal/stats"
	"warden/internal/topology"
)

// Machine is a full simulated system. Create with New, install one Body per
// hardware thread, then Run.
type Machine struct {
	cfg   topology.Config
	proto core.Protocol
	mem   *mem.Memory
	sys   *core.System
	ctr   *stats.Counters
	eng   *engine.Engine
	sbufs []*storeBuffer

	// coreOf maps a hardware thread to its core (topology.Config.CoreOf,
	// precomputed: the op path neither divides nor copies the Config).
	coreOf []int

	cycles uint64 // final clock after Run

	// syncFences marks fences as protocol synchronization points (the
	// protocol descriptor's SyncFences): Ctx.Fence then issues the global
	// syncFenceOp, which runs System.SyncPoint on the serialized path,
	// instead of the thread-local fenceOp.
	syncFences bool

	// ev is the scratch event of execObserved and the EvDrain emit, reset
	// and refilled in place for every instruction (sinks must not retain
	// it), so observation allocates and copies nothing per op. before is
	// the counter snapshot taken ahead of the instruction; the delta is
	// written from it straight into ev.Ctrs.
	ev     core.Event
	before stats.Snapshot

	// marks holds each thread's scratch phase-marker event (Ctx.marker).
	// Run allocates it only when a sink is attached.
	marks []core.Event

	// PDES state (see pdes.go). locals is non-nil iff emode is EnginePDES;
	// observing caches Sink() != nil at Run for the concurrent local
	// handler, which must not read the (mutable) sink field itself, and
	// keeps the sequential engine's local-op run-ahead off.
	emode     EngineMode
	locals    []threadLocal
	nbuffered atomic.Int64
	observing bool
}

// New builds a machine with the given topology and protocol.
func New(cfg topology.Config, proto core.Protocol) *Machine {
	m := &Machine{
		cfg:        cfg,
		proto:      proto,
		mem:        mem.New(0),
		ctr:        &stats.Counters{},
		syncFences: core.Describe(proto).SyncFences,
	}
	m.sys = core.NewSystem(cfg, proto, m.mem, m.ctr)
	m.eng = engine.New(cfg.Threads(), m.exec)
	m.eng.MaxCycles = 50_000_000_000
	for i := 0; i < cfg.Threads(); i++ {
		m.sbufs = append(m.sbufs, newStoreBuffer(cfg.StoreBufferEntries))
		m.coreOf = append(m.coreOf, cfg.CoreOf(i))
	}
	return m
}

// Config returns the machine's topology.
func (m *Machine) Config() topology.Config { return m.cfg }

// Protocol returns the coherence protocol in use.
func (m *Machine) Protocol() core.Protocol { return m.proto }

// Mem returns the simulated physical memory (host-side access, no timing).
func (m *Machine) Mem() *mem.Memory { return m.mem }

// System returns the memory system, for stats and invariant checks.
func (m *Machine) System() *core.System { return m.sys }

// Counters returns the machine's architectural counters.
func (m *Machine) Counters() *stats.Counters { return m.ctr }

// Cycles returns the total simulated execution time after Run.
func (m *Machine) Cycles() uint64 { return m.cycles }

// SetMaxCycles overrides the runaway guard.
func (m *Machine) SetMaxCycles(c uint64) { m.eng.MaxCycles = c }

// SetProbe attaches a live progress probe to the machine's engine. The
// probe is host-visible only (lock-free atomic counters read by the
// observability server); attaching one cannot change simulated results.
// Call before Run.
func (m *Machine) SetProbe(p *engine.Probe) { m.eng.SetProbe(p) }

// Run executes bodies (one per hardware thread; len must equal
// Config().Threads()) to completion, drains all caches so memory is
// coherent, and returns total cycles.
func (m *Machine) Run(bodies []func(*Ctx)) (uint64, error) {
	if len(bodies) != m.cfg.Threads() {
		return 0, fmt.Errorf("machine: %d bodies for %d hardware threads", len(bodies), m.cfg.Threads())
	}
	for i, body := range bodies {
		body := body
		core := m.coreOf[i]
		m.eng.SetBody(i, func(t *engine.Thread) {
			body(&Ctx{m: m, t: t, core: core})
		})
	}
	m.observing = m.sys.Sink() != nil
	if m.observing {
		m.marks = make([]core.Event, len(bodies))
	}
	// A sink must see every op in serialized order, so local ops run ahead
	// of their turn only in bare sequential runs.
	m.eng.SetRunAhead(!m.observing && m.emode == EngineSequential)
	cycles, err := m.eng.Run()
	m.cycles = cycles
	// Fold PDES per-thread counters into the shared set before anything
	// reads them — on every outcome, so errors report the same counters
	// the sequential engine would.
	m.mergeLocals()
	if err != nil {
		return cycles, err
	}
	if m.sys.Sink() != nil {
		// The drain is system activity, not any thread's: attribute its
		// reconciliations, writebacks, and traffic to one EvDrain event.
		m.sys.SetEventThread(-1)
		m.sys.SetEventCycle(cycles)
		m.ctr.SnapInto(&m.before)
		m.sys.DrainAll()
		ev := &m.ev
		*ev = core.Event{}
		ev.Kind, ev.Thread, ev.Core, ev.Cycle = core.EvDrain, -1, -1, cycles
		m.ctr.DeltaInto(&ev.Ctrs, &m.before)
		m.sys.Emit(ev)
	} else {
		m.sys.DrainAll()
	}
	return cycles, nil
}

// ---------------------------------------------------------------------------
// Instruction set (ops posted to the engine)

type loadOp struct {
	addr mem.Addr
	buf  []byte
}

type storeOp struct {
	addr mem.Addr
	data []byte
	lat  uint64 // memory-system latency (the buffer hides it from the core)
}

type rmwOp struct {
	addr mem.Addr
	size int
	old  uint64

	kind core.RMWKind // which atomic this is
	a, b uint64       // CAS: expected/new; FetchAdd: delta in a
	lat  uint64       // memory-system latency (excludes the drain stall)
}

// apply returns the value the atomic leaves in memory when it finds cur
// there.
func (o *rmwOp) apply(cur uint64) uint64 {
	if o.kind == core.RMWCAS {
		if cur == o.a {
			return o.b
		}
		return cur
	}
	return cur + o.a
}

// superscalarWidth is how many ALU instructions retire per cycle.
const superscalarWidth = 2

type computeOp struct{ cycles uint64 }

type fenceOp struct{}

// Local-op markers (engine.LocalOp). The engine executes a local op past
// its thread's lease when run-ahead is on, and concurrently under PDES.
//
// Classification is deliberately conservative. Only compute and fence are
// local: both read and write nothing beyond the issuing thread's clock,
// its private store buffer, and counters whose adds commute. Every
// memory-system op — loads included — is global, because this simulator's
// coherence state changes are instantaneous at the issuing clock: another
// thread's store with a smaller timestamp changes an L1 "hit" into a miss,
// so shared state has zero usable lookahead and classifying L1 hits as
// local would break bit-identity.
func (*computeOp) EngineLocal() {}
func (*fenceOp) EngineLocal()   {}

// syncFenceOp is the fence of a protocol whose descriptor sets
// SyncFences: beyond draining the store buffer it runs the protocol's
// SyncPoint hook against the shared memory system, so — unlike fenceOp —
// it is a global op (no EngineLocal marker).
type syncFenceOp struct{}

type addRegionOp struct {
	lo, hi mem.Addr
	id     core.RegionID
	ok     bool
}

type removeRegionOp struct{ id core.RegionID }

// hostOp runs a host callback at the thread's exact serialized position.
// It is global (not a LocalOp) and advances no clock, emits no event, and
// touches no counter — simulated results with and without Host calls are
// identical; only host-side bookkeeping happens inside fn.
type hostOp struct{ fn func() }

// exec is the engine handler: it executes one op and returns the clock
// advance for the issuing thread. With a sink attached it also emits one
// instruction-level event per op (execObserved); without one, the only
// overhead versus the pre-event-stream machine is this nil check.
func (m *Machine) exec(t *engine.Thread, op engine.Op) uint64 {
	if h, ok := op.(*hostOp); ok {
		// Host callback: serialized host-side bookkeeping only — no event,
		// no counters, no clock advance (see Ctx.Host).
		h.fn()
		return 0
	}
	if m.sys.Sink() == nil {
		return m.execOp(t, op)
	}
	return m.execObserved(t, op)
}

// execObserved wraps execOp with instruction-level event emission: it
// attributes the op to its hardware thread, snapshots the counters around
// it, and emits the matching event carrying operands and deltas.
func (m *Machine) execObserved(t *engine.Thread, op engine.Op) uint64 {
	id, now := t.ID(), t.Now()
	m.sys.SetEventThread(id)
	m.sys.SetEventCycle(now)
	m.ctr.SnapInto(&m.before)
	adv := m.execOp(t, op)
	// Reset and fill the scratch event field by field: a composite
	// literal would be built in a temporary and copied whole.
	ev := &m.ev
	*ev = core.Event{}
	ev.Thread = id
	ev.Core = m.coreOf[id]
	ev.Cycle = now
	ev.Latency = adv
	ev.Advance = adv
	m.ctr.DeltaInto(&ev.Ctrs, &m.before)
	switch o := op.(type) {
	case *loadOp:
		ev.Kind = core.EvLoad
		ev.Addr = o.addr
		ev.Block = o.addr.Block(m.cfg.BlockSize)
		ev.Size = len(o.buf)
		ev.Mode = core.ModeRead
	case *storeOp:
		ev.Kind = core.EvStore
		ev.Addr = o.addr
		ev.Block = o.addr.Block(m.cfg.BlockSize)
		ev.Size = len(o.data)
		ev.Mode = core.ModeWrite
		ev.Latency = o.lat
		if len(o.data) <= 8 {
			for i := len(o.data) - 1; i >= 0; i-- {
				ev.Arg1 = ev.Arg1<<8 | uint64(o.data[i])
			}
		} else {
			ev.Data = o.data // borrowed: valid only during the sink call
		}
	case *rmwOp:
		ev.Kind = core.EvAtomic
		ev.Addr = o.addr
		ev.Block = o.addr.Block(m.cfg.BlockSize)
		ev.Size = o.size
		ev.Mode = core.ModeAtomic
		ev.RMW = o.kind
		ev.Arg1 = o.a
		ev.Arg2 = o.b
		ev.Latency = o.lat
	case *computeOp:
		ev.Kind = core.EvCompute
		ev.Arg1 = o.cycles
	case *fenceOp:
		ev.Kind = core.EvFence
	case *syncFenceOp:
		ev.Kind = core.EvFence
	case *addRegionOp:
		ev.Kind = core.EvRegionAdd
		ev.Lo, ev.Hi = o.lo, o.hi
		ev.Region = o.id
		ev.RegionOK = o.ok
	case *removeRegionOp:
		ev.Kind = core.EvRegionRemove
		ev.Region = o.id
	}
	m.sys.Emit(ev)
	m.sys.SetEventThread(-1)
	return adv
}

// execOp executes one op against the memory system.
func (m *Machine) execOp(t *engine.Thread, op engine.Op) uint64 {
	switch o := op.(type) {
	case *loadOp:
		m.ctr.Instructions++
		m.ctr.Loads++
		var lat uint64
		forEachBlockSpan(o.addr, len(o.buf), m.cfg.BlockSize, func(a mem.Addr, off, n int) {
			lat += m.sys.Read(m.coreOf[t.ID()], a, o.buf[off:off+n])
		})
		m.ctr.LoadCycles += lat
		return lat

	case *storeOp:
		m.ctr.Instructions++
		m.ctr.Stores++
		var lat uint64
		forEachBlockSpan(o.addr, len(o.data), m.cfg.BlockSize, func(a mem.Addr, off, n int) {
			lat += m.sys.Write(m.coreOf[t.ID()], a, o.data[off:off+n])
		})
		o.lat = lat
		// The store's state change is visible now; its latency drains
		// through the store buffer. The core advances by the issue cost
		// plus any stall the full buffer imposes.
		stall := m.sbufs[t.ID()].push(t.Now(), lat)
		if stall > 0 {
			m.ctr.StoreBufferStalls++
		}
		m.ctr.StoreCycles += 1 + stall
		return 1 + stall

	case *rmwOp:
		m.ctr.Instructions++
		m.ctr.Atomics++
		// Atomics order the store buffer (TSO): drain first.
		lat := m.sbufs[t.ID()].drain(t.Now())
		old, alat := m.sys.RMW(m.coreOf[t.ID()], o.addr, o.size, o.apply)
		o.old = old
		o.lat = alat
		m.ctr.AtomicCycles += lat + alat
		return lat + alat

	case *computeOp:
		// n ALU instructions retire at the core's superscalar width.
		m.ctr.Instructions += o.cycles
		adv := (o.cycles + superscalarWidth - 1) / superscalarWidth
		m.ctr.ComputeCycles += adv
		return adv

	case *fenceOp:
		m.ctr.Instructions++
		m.ctr.FenceDrains++
		return 1 + m.sbufs[t.ID()].drain(t.Now())

	case *syncFenceOp:
		m.ctr.Instructions++
		m.ctr.FenceDrains++
		lat := 1 + m.sbufs[t.ID()].drain(t.Now())
		return lat + m.sys.SyncPoint(m.coreOf[t.ID()])

	case *addRegionOp:
		m.ctr.Instructions++
		id, lat, ok := m.sys.AddRegion(m.coreOf[t.ID()], o.lo, o.hi)
		o.id, o.ok = id, ok
		m.ctr.RegionCycles += lat
		return lat

	case *removeRegionOp:
		m.ctr.Instructions++
		lat := m.sys.RemoveRegion(m.coreOf[t.ID()], o.id)
		m.ctr.RegionCycles += lat
		return lat
	}
	panic(fmt.Sprintf("machine: unknown op %T", op))
}

// forEachBlockSpan splits [addr, addr+n) into block-contained spans.
func forEachBlockSpan(addr mem.Addr, n int, blockSize uint64, fn func(a mem.Addr, off, n int)) {
	off := 0
	for n > 0 {
		a := addr + mem.Addr(off)
		room := int(blockSize - uint64(a)&(blockSize-1))
		if room > n {
			room = n
		}
		fn(a, off, room)
		off += room
		n -= room
	}
}

// ---------------------------------------------------------------------------
// Store buffer

// storeMSHRs is how many store misses can be outstanding at once: with the
// buffer draining in order but misses overlapping, the effective
// serialization between consecutive stores is lat/storeMSHRs.
const storeMSHRs = 4

// storeBuffer models a per-thread FIFO of in-flight stores. Entries hold
// completion times; pushing into a full buffer stalls until the oldest
// entry completes. Consecutive misses overlap (storeMSHRs outstanding), as
// in a real core's miss-handling architecture.
type storeBuffer struct {
	completions []uint64 // ring buffer
	head, size  int
	lastDone    uint64 // completion time of the most recent entry
}

func newStoreBuffer(entries int) *storeBuffer {
	return &storeBuffer{completions: make([]uint64, entries)}
}

func (b *storeBuffer) pop(now uint64) {
	for b.size > 0 && b.completions[b.head] <= now {
		if b.head++; b.head == len(b.completions) {
			b.head = 0
		}
		b.size--
	}
}

// push enqueues a store taking lat cycles in the memory system and returns
// the stall (beyond the 1-cycle issue cost) the core suffers.
func (b *storeBuffer) push(now, lat uint64) (stall uint64) {
	b.pop(now)
	if b.size == len(b.completions) {
		oldest := b.completions[b.head]
		stall = oldest - now
		now = oldest
		b.pop(now)
	}
	// Retirement stays in order (TSO) but misses overlap: a store finishes
	// no earlier than its own full latency and no earlier than a
	// pipelined step after its predecessor.
	done := now + lat
	if pipelined := b.lastDone + lat/storeMSHRs; pipelined > done {
		done = pipelined
	}
	b.lastDone = done
	tail := b.head + b.size
	if tail >= len(b.completions) {
		tail -= len(b.completions)
	}
	b.completions[tail] = done
	b.size++
	return stall
}

// drain blocks until every buffered store completes, returning the stall.
func (b *storeBuffer) drain(now uint64) (stall uint64) {
	b.pop(now)
	if b.size == 0 {
		return 0
	}
	stall = b.lastDone - now
	b.head, b.size = 0, 0
	return stall
}

// ---------------------------------------------------------------------------
// Ctx: the API simulated programs run against

// Ctx is a hardware thread's view of the machine. All methods execute
// simulated instructions; none are safe to call from any goroutine other
// than the thread's own body.
//
// The op structs below are reused across calls: every engine call is
// synchronous (the op is fully executed before the method returns), so a
// single scratch op per kind keeps the per-instruction host cost
// allocation-free.
type Ctx struct {
	m    *Machine
	t    *engine.Thread
	core int

	ld   loadOp
	st   storeOp
	cmp  computeOp
	fnc  fenceOp
	sfnc syncFenceOp
	rmw  rmwOp
	host hostOp
	radd addRegionOp
	rrem removeRegionOp
	buf  [8]byte // backing store for scalar Load/Store data
}

// ThreadID returns the hardware thread id.
func (c *Ctx) ThreadID() int { return c.t.ID() }

// CoreID returns the core this thread runs on.
func (c *Ctx) CoreID() int { return c.core }

// Now returns the thread's local clock.
func (c *Ctx) Now() uint64 { return c.t.Now() }

// Machine returns the underlying machine.
func (c *Ctx) Machine() *Machine { return c.m }

// Load performs a size-byte load (size 1, 2, 4, or 8) and returns the value.
func (c *Ctx) Load(a mem.Addr, size int) uint64 {
	c.t.Call(c.LoadOp(a, size))
	return c.Loaded(size)
}

// LoadOp builds the op Load(a, size) executes, for a Spin step to return.
// Loaded reads its value once the op has executed.
func (c *Ctx) LoadOp(a mem.Addr, size int) engine.Op {
	c.ld.addr = a
	c.ld.buf = c.buf[:size]
	return &c.ld
}

// Loaded returns the value of the last scalar load (Load or LoadOp) of
// size bytes. It reads c.buf with one load as wide as the value: the
// memory system has just filled c.buf with a store of that width, and a
// wider load straddling it could not be forwarded from the store buffer.
func (c *Ctx) Loaded(size int) uint64 {
	switch size {
	case 8:
		return binary.LittleEndian.Uint64(c.buf[:])
	case 4:
		return uint64(binary.LittleEndian.Uint32(c.buf[:]))
	case 2:
		return uint64(binary.LittleEndian.Uint16(c.buf[:]))
	case 1:
		return uint64(c.buf[0])
	}
	return binary.LittleEndian.Uint64(c.buf[:]) & (^uint64(0) >> (64 - 8*uint(size)))
}

// Store performs a size-byte store of v at a.
func (c *Ctx) Store(a mem.Addr, size int, v uint64) {
	for i := 0; i < size; i++ {
		c.buf[i] = byte(v)
		v >>= 8
	}
	c.st.addr = a
	c.st.data = c.buf[:size]
	c.t.Call(&c.st)
}

// LoadBytes fills buf from simulated memory starting at a, as a single
// load instruction per cache block touched.
func (c *Ctx) LoadBytes(a mem.Addr, buf []byte) {
	c.ld.addr = a
	c.ld.buf = buf
	c.t.Call(&c.ld)
	c.ld.buf = nil
}

// StoreBytes writes data to simulated memory starting at a.
func (c *Ctx) StoreBytes(a mem.Addr, data []byte) {
	c.st.addr = a
	c.st.data = data
	c.t.Call(&c.st)
	c.st.data = nil
}

// Compute advances the thread by n single-cycle ALU instructions. Like
// every op it goes through Thread.Call, whose inline lease executes it
// without a park/resume handshake whenever this thread is the one the
// scheduler would resume anyway.
func (c *Ctx) Compute(n uint64) {
	if n == 0 {
		return
	}
	c.t.Call(c.ComputeOp(n))
}

// ComputeOp builds the op Compute(n) executes, for a Spin step to return.
// Unlike Compute(0), ComputeOp(0) is an op: it advances no clock but
// still counts as one executed operation.
func (c *Ctx) ComputeOp(n uint64) engine.Op {
	c.cmp.cycles = n
	return &c.cmp
}

// Fence drains the store buffer (a full memory barrier under TSO). Under
// a protocol with SyncFences it is also the protocol's synchronization
// point: the memory system's SyncPoint hook runs (self-invalidation /
// self-downgrade protocols flush their shared data here).
func (c *Ctx) Fence() {
	if c.m.syncFences {
		c.t.Call(&c.sfnc)
		return
	}
	c.t.Call(&c.fnc)
}

// CAS atomically compares the size-byte value at a with old and, if equal,
// stores new. It reports whether the swap happened.
func (c *Ctx) CAS(a mem.Addr, size int, old, new uint64) bool {
	c.rmw.addr = a
	c.rmw.size = size
	c.rmw.kind = core.RMWCAS
	c.rmw.a, c.rmw.b = old, new
	c.t.Call(&c.rmw)
	return c.rmw.old == old
}

// FetchAdd atomically adds delta to the size-byte value at a and returns
// the previous value.
func (c *Ctx) FetchAdd(a mem.Addr, size int, delta uint64) uint64 {
	c.t.Call(c.FetchAddOp(a, size, delta))
	return c.rmw.old
}

// FetchAddOp builds the op FetchAdd(a, size, delta) executes, for a Spin
// step to return.
func (c *Ctx) FetchAddOp(a mem.Addr, size int, delta uint64) engine.Op {
	c.rmw.addr = a
	c.rmw.size = size
	c.rmw.kind = core.RMWFetchAdd
	c.rmw.a, c.rmw.b = delta, 0
	return &c.rmw
}

// Host executes fn at this thread's exact position in the serialized op
// order, with every other simulated thread quiescent. It advances no
// simulated clock, emits no event, and changes no counter — results are
// bit-identical with or without the call.
//
// Use it for host-side bookkeeping that is shared across threads (pools,
// flags, allocation that assigns simulation-visible addresses). Body code
// that follows a local op (Compute, a non-sync Fence) does not run at its
// serialized position: the sequential engine runs local ops ahead of the
// thread's turn whenever no sink is attached, so that code may run before
// other threads' ops that precede it in clock order, and under the PDES
// scheduler it may also run concurrently with other threads. Plain access
// to shared host state there is nondeterministic (and, under PDES, racy).
// Wrapping the access in Host serializes it at a deterministic point.
// Thread-private host state needs no wrapping.
func (c *Ctx) Host(fn func()) {
	c.t.Call(c.HostOp(fn))
	c.host.fn = nil
}

// HostOp builds the op Host(fn) executes, for a Spin step to return.
func (c *Ctx) HostOp(fn func()) engine.Op {
	c.host.fn = fn
	return &c.host
}

// Spin runs step's ops as the loop
//
//	for op := step(); op != nil; op = step() { <execute op> }
//
// with identical results, but lets the engine call step between ops
// without switching to this thread (see engine.Thread.Spin). step builds
// its ops with the *Op builders above, reads their results (Loaded, the
// state a Host callback wrote) on its next call, and must not call any
// synchronous Ctx method that executes an instruction. Each op is
// executed before step runs again, so the builders' scratch ops are safe
// to reuse.
func (c *Ctx) Spin(step func() engine.Op) { c.t.Spin(step) }

// PhaseBegin emits an EvPhaseBegin marker naming the program phase the
// thread is entering. Phase markers are pure observation: they execute no
// simulated instruction, advance no clock, and touch no counter, so with or
// without them the simulation is byte-identical. With no sink attached the
// call is a single nil check. Body code runs while every other thread is
// parked, so emitting from here is as serialized as emitting from an op
// handler.
func (c *Ctx) PhaseBegin(name string) {
	if !c.m.observing {
		return
	}
	c.marker(core.EvPhaseBegin, name)
}

// PhaseEnd emits the EvPhaseEnd marker closing the innermost open phase on
// this thread. The name is carried for validation; well-formed programs
// close phases in LIFO order per thread.
func (c *Ctx) PhaseEnd(name string) {
	if !c.m.observing {
		return
	}
	c.marker(core.EvPhaseEnd, name)
}

// marker emits a phase marker from the thread's own scratch event: body
// code of different threads may run concurrently under PDES, so markers
// cannot share one scratch event.
func (c *Ctx) marker(kind core.EventKind, name string) {
	ev := &c.m.marks[c.t.ID()]
	*ev = core.Event{}
	ev.Kind, ev.Thread, ev.Core = kind, c.t.ID(), c.core
	ev.Cycle, ev.Label = c.t.Now(), name
	c.m.emitMarker(c.t, ev)
}

// AddRegion executes WARDen's Add Region instruction for [lo, hi). Under
// MESI or when the region table is full it returns (core.NullRegion, false).
func (c *Ctx) AddRegion(lo, hi mem.Addr) (core.RegionID, bool) {
	c.radd = addRegionOp{lo: lo, hi: hi}
	c.t.Call(&c.radd)
	return c.radd.id, c.radd.ok
}

// RemoveRegion executes WARDen's Remove Region instruction, reconciling the
// region's W blocks. Removing core.NullRegion is a cheap no-op.
func (c *Ctx) RemoveRegion(id core.RegionID) {
	c.rrem.id = id
	c.t.Call(&c.rrem)
}
