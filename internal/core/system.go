package core

import (
	"fmt"
	"math/bits"

	"warden/internal/cache"
	"warden/internal/coherence"
	"warden/internal/mem"
	"warden/internal/stats"
	"warden/internal/topology"
)

// wardCopy is a core's private copy of a W-state block, with a sector mask
// recording which sectors this core wrote. This is the sectored-cache
// storage of §6.1 plus the private data that real hardware keeps in the
// cache's data array.
type wardCopy struct {
	data [64]byte
	mask cache.SectorMask
}

const (
	// regionOpCycles is the local cost of executing an Add/Remove Region
	// instruction (§6.1 expects the two new instructions to be cheap).
	regionOpCycles = 2
	// reconcileBlocksPerCycle is the directory's bulk-reconciliation rate
	// as seen by the removing core. Reconciliation is overlappable with
	// computation (§5.3) and parallelizable across directory banks (§6.1
	// suggests exactly that); the paper measures it at roughly one block
	// per 50k cycles in practice, so the core pays only a pipelined issue
	// cost.
	reconcileBlocksPerCycle = 4
	// forcedReconcileCycles is the critical-path cost of reconciling a
	// single block synchronously (an atomic hitting a W block must wait).
	forcedReconcileCycles = 8
	// rmwExtraCycles approximates the extra pipeline cost of an atomic
	// read-modify-write beyond obtaining write permission.
	rmwExtraCycles = 9
)

// System is the simulated memory system: per-core private L1/L2 caches,
// per-socket shared L3 slices, a full-map directory per the configured
// protocol, and the interconnect fabric. All methods are single-threaded;
// the simulation engine serializes cores.
//
// The implementation is layered across three files: this one holds the
// access paths (the instruction-facing API), protocol.go holds the
// directory transactions and private-cache maintenance (the protocol state
// machines), and event.go holds the structured event stream that observers
// subscribe to via SetSink.
type System struct {
	cfg    topology.Config
	proto  Protocol
	impl   ProtocolImpl // the registered state machine proto names
	mem    *mem.Memory
	ctr    *stats.Counters
	fabric *coherence.Fabric
	dir    *coherence.Directory

	l1, l2 []*cache.Cache // indexed by core
	l3     []*cache.Cache // indexed by socket

	regions     *regionTable
	wcopies     []map[mem.Addr]*wardCopy // indexed by core
	sectorShift uint                     // log2 of bytes per sector bit (default 0: byte sectoring)

	detectEntangle bool
	violations     []Violation

	// Event stream (see event.go). sink == nil is the fast path: no
	// snapshots are taken and no events are built.
	sink     Sink
	evSeq    uint64
	evThread int    // hardware thread driving the current op (-1 when unknown)
	evCycle  uint64 // issuing thread's local clock for the current op
	ev       Event  // scratch for protocol-internal events, reset and refilled in place per emit
}

// NewSystem builds a memory system for the given machine and protocol over
// the given backing store, recording events into ctr.
func NewSystem(cfg topology.Config, proto Protocol, m *mem.Memory, ctr *stats.Counters) *System {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if cfg.Cores() > coherence.MaxCores {
		panic(fmt.Sprintf("core: %d cores exceeds directory sharer-mask capacity %d", cfg.Cores(), coherence.MaxCores))
	}
	if cfg.BlockSize > 64 {
		panic("core: block sizes above 64 bytes are not supported by the sector mask")
	}
	s := &System{
		cfg:      cfg,
		proto:    proto,
		mem:      m,
		ctr:      ctr,
		fabric:   coherence.NewFabric(cfg, ctr),
		dir:      coherence.NewDirectory(),
		regions:  newRegionTable(cfg.WardRegionCapacity),
		evThread: -1,
	}
	for c := 0; c < cfg.Cores(); c++ {
		s.l1 = append(s.l1, cache.New(fmt.Sprintf("L1-%d", c), cfg.L1Size, cfg.L1Assoc, cfg.BlockSize))
		s.l2 = append(s.l2, cache.New(fmt.Sprintf("L2-%d", c), cfg.L2Size, cfg.L2Assoc, cfg.BlockSize))
		s.wcopies = append(s.wcopies, make(map[mem.Addr]*wardCopy))
	}
	for k := 0; k < cfg.Sockets; k++ {
		s.l3 = append(s.l3, cache.New(fmt.Sprintf("L3-%d", k), cfg.L3SizePerSocket(), cfg.L3Assoc, cfg.BlockSize))
	}
	// The registered state machine is built last: its constructor may
	// inspect the caches, directory, and fabric above.
	s.impl = Describe(proto).New(s)
	return s
}

// Protocol returns the protocol the system runs.
func (s *System) Protocol() Protocol { return s.proto }

// Config returns the machine configuration.
func (s *System) Config() topology.Config { return s.cfg }

// Mem returns the canonical backing store.
func (s *System) Mem() *mem.Memory { return s.mem }

// SetSectorSize overrides the sector granularity (bytes per write-mask bit).
// The default is 1 (byte sectoring, §6.1); the ablation harness uses 8
// (word) and BlockSize (whole-block). Must be called before any access.
func (s *System) SetSectorSize(n uint64) {
	if n == 0 || n&(n-1) != 0 || s.cfg.BlockSize/n > 64 || n > s.cfg.BlockSize {
		panic(fmt.Sprintf("core: invalid sector size %d for block size %d", n, s.cfg.BlockSize))
	}
	s.sectorShift = uint(bits.TrailingZeros64(n))
}

// ActiveRegions reports the number of registered WARD regions.
func (s *System) ActiveRegions() int { return s.regions.len() }

// PrivateCaches returns the per-core L1 and L2 caches for stats collection.
func (s *System) PrivateCaches() (l1, l2 []*cache.Cache) { return s.l1, s.l2 }

// ---------------------------------------------------------------------------
// Access paths

// AccessMode classifies what permission an access needs from the memory
// system. It is exported so event-stream consumers can tell event kinds
// apart without string matching.
type AccessMode int

const (
	ModeRead AccessMode = iota
	ModeWrite
	ModeAtomic // write permission, but never via the W state
)

// String names the access mode.
func (m AccessMode) String() string {
	switch m {
	case ModeWrite:
		return "write"
	case ModeAtomic:
		return "atomic"
	default:
		return "read"
	}
}

// Read performs a load of len(buf) bytes at a (which must not cross a cache
// block boundary) by core, fills buf, and returns the access latency in
// cycles.
func (s *System) Read(core int, a mem.Addr, buf []byte) uint64 {
	s.checkSpan(a, len(buf))
	block := a.Block(s.cfg.BlockSize)
	st, lat := s.acquire(core, block, ModeRead)
	if st == cache.Ward {
		s.ctr.WardAccesses++
		wc := s.wcopy(core, block)
		copy(buf, wc.data[a-block:int(a-block)+len(buf)])
		if s.detectEntangle {
			if e := s.dir.Lookup(block); e != nil && e.State == cache.Ward {
				s.checkEntangledRead(core, block, a, len(buf), e)
			}
		}
	} else {
		s.mem.Read(a, buf)
	}
	return lat
}

// Write performs a store of src at a (within one block) by core and returns
// the access latency; the store buffer in internal/machine decides how much
// of that latency stalls the core.
func (s *System) Write(core int, a mem.Addr, src []byte) uint64 {
	s.checkSpan(a, len(src))
	block := a.Block(s.cfg.BlockSize)
	st, lat := s.acquire(core, block, ModeWrite)
	if st == cache.Ward {
		s.ctr.WardAccesses++
		wc := s.wcopy(core, block)
		copy(wc.data[a-block:], src)
		lo := uint(a-block) >> s.sectorShift
		hi := (uint(a-block) + uint(len(src)) + 1<<s.sectorShift - 1) >> s.sectorShift
		wc.mask = wc.mask.Set(lo, hi-lo)
	} else {
		s.mem.Write(a, src)
	}
	return lat
}

// RMW performs an atomic read-modify-write of a size-byte integer at a.
// Atomics are synchronization, which the WARD property explicitly does not
// cover, so they always take the MESI path: a W-state block is first
// reconciled, then owned exclusively.
func (s *System) RMW(core int, a mem.Addr, size int, fn func(old uint64) uint64) (old uint64, lat uint64) {
	s.checkSpan(a, size)
	block := a.Block(s.cfg.BlockSize)
	st, lat := s.acquire(core, block, ModeAtomic)
	if st == cache.Ward {
		panic("core: atomic acquired a Ward line")
	}
	old = s.mem.ReadUint(a, size)
	s.mem.WriteUint(a, size, fn(old))
	return old, lat + rmwExtraCycles
}

func (s *System) checkSpan(a mem.Addr, n int) {
	if n <= 0 || uint64(a)&(s.cfg.BlockSize-1)+uint64(n) > s.cfg.BlockSize {
		panic(fmt.Sprintf("core: access at %#x size %d crosses a block boundary", uint64(a), n))
	}
}

func (s *System) wcopy(core int, block mem.Addr) *wardCopy {
	wc, ok := s.wcopies[core][block]
	if !ok {
		wc = &wardCopy{}
		s.mem.Read(block, wc.data[:s.cfg.BlockSize])
		s.wcopies[core][block] = wc
	}
	return wc
}

// acquire obtains block at core with permissions for the given mode and
// returns the line's resulting state and the latency. On return the block is
// present in the core's L1 and L2.
func (s *System) acquire(core int, block mem.Addr, mode AccessMode) (cache.State, uint64) {
	lat := s.cfg.L1Latency
	s.ctr.L1Accesses++
	if st := s.l1[core].Lookup(block); st != cache.Invalid {
		if ok, st := s.privHit(core, block, st, mode); ok {
			s.l1[core].Hits++
			s.ctr.L1Hits++
			return st, lat
		}
	} else {
		s.ctr.L2Accesses++
		lat += s.cfg.L2Latency
		if st := s.l2[core].Lookup(block); st != cache.Invalid {
			if ok, st := s.privHit(core, block, st, mode); ok {
				s.l2[core].Hits++
				s.ctr.L2Hits++
				s.fillL1(core, block, st)
				return st, lat
			}
		} else {
			s.l2[core].Misses++
		}
	}
	// Private miss (or S->M upgrade): go to the directory.
	st, dlat := s.dirTransaction(core, block, mode)
	return st, lat + dlat
}

// privHit decides whether a privately cached line in state st satisfies the
// access without a directory transaction, returning the (possibly silently
// upgraded) state. The decision is the protocol's.
func (s *System) privHit(core int, block mem.Addr, st cache.State, mode AccessMode) (bool, cache.State) {
	return s.impl.PrivHit(core, block, st, mode)
}

// SyncPoint runs the protocol's synchronization-point hook for core and
// returns the latency charged. The machine calls it on fences when the
// protocol's descriptor sets SyncFences (self-invalidation protocols);
// eagerly coherent protocols return 0 and never see the call.
func (s *System) SyncPoint(core int) uint64 { return s.impl.SyncPoint(core) }

// ---------------------------------------------------------------------------
// WARD region instructions

// AddRegion executes the "Add Region" instruction for [lo, hi) on behalf of
// core. Under MESI (legacy hardware) it is a cheap no-op. It returns the
// region id (NullRegion if not registered), the latency, and whether a
// region became active.
//
// The interval is rounded *inward* to cache-block boundaries: a block only
// partially inside a region cannot have coherence disabled, because its
// remaining bytes may hold unrelated data that other threads access
// coherently (the region's edge blocks therefore stay on the MESI paths).
// The paper's page-granular heap regions are always block-aligned; this
// matters for the library's byte-granular bulk-operation scopes.
func (s *System) AddRegion(core int, lo, hi mem.Addr) (RegionID, uint64, bool) {
	return s.impl.AddRegion(core, lo, hi)
}

// RemoveRegion executes the "Remove Region" instruction: it deactivates the
// region and reconciles every block it holds in the W state (§5.2),
// returning the latency charged to the removing core.
func (s *System) RemoveRegion(core int, id RegionID) uint64 {
	return s.impl.RemoveRegion(core, id)
}
