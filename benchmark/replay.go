package main

// Layer replays. A traced cell runs once with a recorder attached to the
// machine's event stream, which captures every retired instruction with its
// operands, its clock advance and its memory-system latency, in the order
// the engine executed them. The recording is then replayed through three
// layers in isolation:
//
//   - engine: engine.New alone, each thread re-issuing its ops, with a
//     handler that returns the recorded advance. This is the scheduler's
//     host cost with no simulated work behind it.
//   - core: core.NewSystem alone, applying every memory-system op in the
//     recorded global order. This is the memory system's host cost.
//   - machine: machine.New + Machine.Run, each thread re-issuing its ops
//     through the Ctx instruction set. This is engine + machine + memory
//     system, without the hlpl runtime or the benchmark kernel.
//
// Each replay must reproduce the original run exactly (cycles, and the
// counters its layers own), which is what makes the time differences
// between them a sound split of the original run's host time.
//
// Host callbacks (machine.Ctx.Host) emit no event but are engine ops with a
// zero clock advance, and they decide where threads park. The recorder
// counts them with an engine.Probe, which counts every executed op: the ops
// executed between two instruction events are host ops, and since a zero-
// advance op has the same (clock, thread) key as its thread's next
// instruction, they belong to the thread of the next instruction event
// (except a thread's final host ops before it exits, which the replay
// issues from another thread; they change no clock either way).

import (
	"fmt"
	"time"

	"warden/internal/core"
	"warden/internal/engine"
	"warden/internal/machine"
	"warden/internal/mem"
	"warden/internal/stats"
	"warden/internal/topology"
)

// recOp is one recorded instruction.
type recOp struct {
	addr   mem.Addr
	a, b   uint64 // store value, CAS expected/new, FetchAdd delta, compute count, region bounds
	adv    uint64 // clock advance the engine charged
	lat    uint64 // memory-system latency of the access
	data   uint32 // offset in recording.data of a store wider than 8 bytes
	size   uint32
	host   uint32 // host ops the thread issued just before this op
	thread uint32
	region core.RegionID
	kind   core.EventKind
	rmw    core.RMWKind
}

// recording is a cell's instruction stream. It is a core.Sink.
type recording struct {
	cfg      topology.Config
	proto    core.Protocol
	ops      []recOp   // global execution order
	byThread [][]int32 // indices into ops, per thread in program order
	data     []byte    // payloads of wide stores
	tail     uint64    // host ops after the last instruction

	// advances is what the engine replay issues: per thread, the clock
	// advance of every engine op in program order, host ops included as
	// zeros. Kept apart from ops so the engine replay streams 8 bytes per
	// op rather than a whole recOp.
	advances [][]uint64

	probe *engine.Probe
	seen  uint64 // engine ops accounted for so far
}

func newRecording(cfg topology.Config, proto core.Protocol) *recording {
	return &recording{cfg: cfg, proto: proto, byThread: make([][]int32, cfg.Threads()), probe: &engine.Probe{}}
}

// attach wires the recorder to a fresh machine (for runCell).
func (r *recording) attach(m *machine.Machine) core.Sink {
	m.SetProbe(r.probe)
	return r
}

// Event implements core.Sink.
func (r *recording) Event(ev *core.Event) {
	if !ev.Kind.Instruction() || ev.Kind == core.EvDrain {
		return
	}
	_, done := r.probe.Sample() // ops completed before this one
	o := recOp{
		addr:   ev.Addr,
		adv:    ev.Advance,
		lat:    ev.Latency,
		size:   uint32(ev.Size),
		host:   uint32(done - r.seen),
		thread: uint32(ev.Thread),
		region: ev.Region,
		kind:   ev.Kind,
		rmw:    ev.RMW,
	}
	r.seen = done + 1
	switch ev.Kind {
	case core.EvStore:
		if ev.Size > 8 {
			o.data = uint32(len(r.data))
			r.data = append(r.data, ev.Data...)
		} else {
			o.a = ev.Arg1
		}
	case core.EvAtomic:
		o.a, o.b = ev.Arg1, ev.Arg2
	case core.EvCompute:
		o.a = ev.Arg1
	case core.EvRegionAdd:
		o.a, o.b = uint64(ev.Lo), uint64(ev.Hi)
	}
	r.byThread[ev.Thread] = append(r.byThread[ev.Thread], int32(len(r.ops)))
	r.ops = append(r.ops, o)
}

// finish accounts the host ops executed after the last instruction and
// builds the engine replay's input. Call it once the recorded run ends.
func (r *recording) finish() {
	_, done := r.probe.Sample()
	r.tail = done - r.seen
	r.advances = make([][]uint64, len(r.byThread))
	for i, ids := range r.byThread {
		var adv []uint64
		for _, k := range ids {
			o := &r.ops[k]
			adv = append(adv, make([]uint64, o.host)...)
			adv = append(adv, o.adv)
		}
		if i == r.tailThread() {
			adv = append(adv, make([]uint64, r.tail)...)
		}
		r.advances[i] = adv
	}
}

// engineOps is the number of ops the engine executed: instructions plus
// host callbacks.
func (r *recording) engineOps() uint64 {
	var n uint64
	for _, adv := range r.advances {
		n += uint64(len(adv))
	}
	return n
}

// tailThread is the thread that re-issues the trailing host ops.
func (r *recording) tailThread() int {
	if len(r.ops) == 0 {
		return 0
	}
	return int(r.ops[len(r.ops)-1].thread)
}

// storeData returns the bytes a recorded store wrote.
func (r *recording) storeData(o *recOp, scratch *[8]byte) []byte {
	if o.size > 8 {
		return r.data[o.data : o.data+o.size]
	}
	v := o.a
	for i := uint32(0); i < o.size; i++ {
		scratch[i] = byte(v)
		v >>= 8
	}
	return scratch[:o.size]
}

// rmwFn rebuilds a recorded atomic's update function.
func rmwFn(o *recOp) func(uint64) uint64 {
	if o.rmw == core.RMWCAS {
		old, new := o.a, o.b
		return func(cur uint64) uint64 {
			if cur == old {
				return new
			}
			return cur
		}
	}
	delta := o.a
	return func(cur uint64) uint64 { return cur + delta }
}

// replayEngine re-runs the recorded schedule on a bare engine and returns
// the final clock.
func replayEngine(r *recording) (uint64, error) {
	e := engine.New(r.cfg.Threads(), func(_ *engine.Thread, op engine.Op) uint64 {
		return *op.(*uint64)
	})
	for i, adv := range r.advances {
		adv := adv
		e.SetBody(i, func(t *engine.Thread) {
			for k := range adv {
				t.Call(&adv[k])
			}
		})
	}
	return e.Run()
}

// replayCore applies the recorded memory-system ops, in recorded order, to
// a bare memory system, drains it, and returns its counters. Every access
// must cost exactly the recorded latency.
func replayCore(r *recording) (stats.Counters, error) {
	var ctr stats.Counters
	sys := core.NewSystem(r.cfg, r.proto, mem.New(0), &ctr)
	syncFences := core.Describe(r.proto).SyncFences
	var buf []byte
	var scratch [8]byte
	for i := range r.ops {
		o := &r.ops[i]
		c := r.cfg.CoreOf(int(o.thread))
		var lat uint64
		switch o.kind {
		case core.EvLoad:
			if cap(buf) < int(o.size) {
				buf = make([]byte, o.size)
			}
			b := buf[:o.size]
			forEachBlockSpan(o.addr, len(b), r.cfg.BlockSize, func(a mem.Addr, off, n int) {
				lat += sys.Read(c, a, b[off:off+n])
			})
		case core.EvStore:
			d := r.storeData(o, &scratch)
			forEachBlockSpan(o.addr, len(d), r.cfg.BlockSize, func(a mem.Addr, off, n int) {
				lat += sys.Write(c, a, d[off:off+n])
			})
		case core.EvAtomic:
			_, lat = sys.RMW(c, o.addr, int(o.size), rmwFn(o))
		case core.EvFence:
			if syncFences {
				sys.SyncPoint(c)
			}
			continue
		case core.EvRegionAdd:
			var id core.RegionID
			id, lat, _ = sys.AddRegion(c, mem.Addr(o.a), mem.Addr(o.b))
			if id != o.region {
				return ctr, fmt.Errorf("core replay: op %d: region id %d, recorded %d", i, id, o.region)
			}
		case core.EvRegionRemove:
			lat = sys.RemoveRegion(c, o.region)
		default:
			continue
		}
		if lat != o.lat {
			return ctr, fmt.Errorf("core replay: op %d (%v at %#x): latency %d, recorded %d", i, o.kind, uint64(o.addr), lat, o.lat)
		}
	}
	sys.DrainAll()
	return ctr, nil
}

// replayMachine re-issues each thread's recorded ops through the machine's
// instruction set and returns the run's cycles and counters.
func replayMachine(r *recording) (uint64, stats.Counters, error) {
	m := machine.New(r.cfg, r.proto)
	tailThread := r.tailThread()
	nop := func() {}
	bodies := make([]func(*machine.Ctx), r.cfg.Threads())
	for i, ids := range r.byThread {
		ids := ids
		tail := uint64(0)
		if i == tailThread {
			tail = r.tail
		}
		bodies[i] = func(c *machine.Ctx) {
			var buf []byte
			var scratch [8]byte
			for _, k := range ids {
				o := &r.ops[k]
				for h := uint32(0); h < o.host; h++ {
					c.Host(nop)
				}
				switch o.kind {
				case core.EvLoad:
					if cap(buf) < int(o.size) {
						buf = make([]byte, o.size)
					}
					c.LoadBytes(o.addr, buf[:o.size])
				case core.EvStore:
					if o.size > 8 {
						c.StoreBytes(o.addr, r.storeData(o, &scratch))
					} else {
						c.Store(o.addr, int(o.size), o.a)
					}
				case core.EvAtomic:
					if o.rmw == core.RMWCAS {
						c.CAS(o.addr, int(o.size), o.a, o.b)
					} else {
						c.FetchAdd(o.addr, int(o.size), o.a)
					}
				case core.EvCompute:
					c.Compute(o.a)
				case core.EvFence:
					c.Fence()
				case core.EvRegionAdd:
					c.AddRegion(mem.Addr(o.a), mem.Addr(o.b))
				case core.EvRegionRemove:
					c.RemoveRegion(o.region)
				}
			}
			for h := uint64(0); h < tail; h++ {
				c.Host(nop)
			}
		}
	}
	cycles, err := m.Run(bodies)
	return cycles, *m.Counters(), err
}

// forEachBlockSpan splits [addr, addr+n) into block-contained spans, as
// the machine does for every load and store.
func forEachBlockSpan(addr mem.Addr, n int, blockSize uint64, fn func(a mem.Addr, off, n int)) {
	off := 0
	for n > 0 {
		a := addr + mem.Addr(off)
		room := int(blockSize - uint64(a)%blockSize)
		if room > n {
			room = n
		}
		fn(a, off, room)
		off += room
		n -= room
	}
}

// memorySystemCounters keeps only the counters the memory system (package
// core and below) maintains, zeroing the machine's instruction-mix,
// store-buffer and cycle-attribution counters.
func memorySystemCounters(c stats.Counters) stats.Counters {
	c.Instructions, c.Loads, c.Stores, c.Atomics = 0, 0, 0, 0
	c.StoreBufferStalls, c.FenceDrains = 0, 0
	c.LoadCycles, c.StoreCycles, c.AtomicCycles, c.ComputeCycles, c.RegionCycles = 0, 0, 0, 0, 0
	return c
}

// layerTimes is the host time of each replay of one recording.
type layerTimes struct {
	engine, core, machine time.Duration
}

// replayAll runs the three replays of rec, each inside span (which times
// it), and checks each against want, the original run: the engine and
// machine replays must reach its cycle count, the memory-system replay its
// memory-system counters, and the machine replay every counter.
func replayAll(rec *recording, want *cellRun, span func(name string, fn func())) (layerTimes, error) {
	var lt layerTimes
	var err error
	timed := func(name string, d *time.Duration, fn func() error) {
		if err != nil {
			return
		}
		span(name, func() {
			t0 := time.Now()
			err = fn()
			*d = time.Since(t0)
		})
	}
	timed("replay.engine", &lt.engine, func() error {
		cycles, err := replayEngine(rec)
		if err == nil && cycles != want.cycles {
			err = fmt.Errorf("engine replay: %d cycles, original %d", cycles, want.cycles)
		}
		return err
	})
	timed("replay.core", &lt.core, func() error {
		ctr, err := replayCore(rec)
		if err == nil && ctr != memorySystemCounters(want.counters) {
			err = fmt.Errorf("core replay: counters differ from the original run:\n got  %+v\n want %+v",
				ctr, memorySystemCounters(want.counters))
		}
		return err
	})
	timed("replay.machine", &lt.machine, func() error {
		cycles, ctr, err := replayMachine(rec)
		if err == nil && (cycles != want.cycles || ctr != want.counters) {
			err = fmt.Errorf("machine replay: %d cycles, original %d; counters equal: %v", cycles, want.cycles, ctr == want.counters)
		}
		return err
	})
	if err != nil {
		return lt, fmt.Errorf("%s: %w", want.cell, err)
	}
	return lt, nil
}
