package core

// The protocol transition surface, extracted behind two narrow interfaces
// so that the simulator (internal/machine) and the explicit-state model
// checker (internal/modelcheck) drive the *same* transition implementation:
//
//   - ProtocolStep is the mutating surface: exactly the calls a core can
//     issue against the memory system, one atomic protocol transition each
//     (the engine serializes cores, so each call runs to completion).
//   - DirState is the read-only inspection surface: everything an external
//     verifier needs to canonicalize and validate protocol state without
//     perturbing it.
//
// *System implements both. The model checker accepts any implementation,
// which is how its mutation tests inject transition bugs: a test helper
// wraps a real System and corrupts one ProtocolStep method, and the checker
// must find a counterexample.

import (
	"warden/internal/cache"
	"warden/internal/coherence"
	"warden/internal/mem"
	"warden/internal/topology"
)

// ProtocolStep is the complete mutating transition surface of the memory
// system: every coherence-visible state change flows through one of these
// calls. Latencies are returned for the simulator's benefit; untimed
// clients (the model checker) ignore them.
type ProtocolStep interface {
	Protocol() Protocol
	Config() topology.Config

	// Read/Write/RMW perform one access by core within a single cache
	// block, driving a full directory transaction on a private miss.
	Read(core int, a mem.Addr, buf []byte) uint64
	Write(core int, a mem.Addr, src []byte) uint64
	RMW(core int, a mem.Addr, size int, fn func(old uint64) uint64) (old, lat uint64)

	// AddRegion/RemoveRegion are WARDen's region instructions (no-ops
	// under protocols without regions, per the legacy-compatibility story).
	AddRegion(core int, lo, hi mem.Addr) (RegionID, uint64, bool)
	RemoveRegion(core int, id RegionID) uint64

	// SyncPoint runs the protocol's synchronization-point hook for core
	// (a no-op returning 0 under eagerly coherent protocols; the
	// self-invalidation/self-downgrade flush under SiSd-style ones).
	SyncPoint(core int) uint64

	// DrainAll returns every private cache to a coherent state (end of
	// run; the model checker's terminal-state check).
	DrainAll()
}

// DirEntryView is a read-only copy of one directory entry.
type DirEntryView struct {
	State   cache.State
	Owner   int
	Sharers coherence.Bitset
	Region  RegionID // meaningful only when State == cache.Ward
}

// DirState is the read-only protocol-state inspection surface: the
// directory, the private tag arrays, the W-state private copies, and the
// canonical store. None of its methods mutate protocol state (they bypass
// LRU clocks and counters), so a verifier may call them between any two
// ProtocolStep calls without changing subsequent behaviour.
type DirState interface {
	// DirEntry reports block's directory entry, or ok=false when the
	// block is uncached (logically Invalid).
	DirEntry(block mem.Addr) (DirEntryView, bool)
	// PrivLines reports block's state in core's L1 and L2 (Invalid when
	// absent).
	PrivLines(core int, block mem.Addr) (l1, l2 cache.State)
	// L2Recency returns core's valid L2 lines, set-major with each set
	// ordered most-recently-used first — the complete replacement-relevant
	// private-cache state (L1 and L3 evictions carry no protocol actions,
	// so those arrays are excluded from canonical state).
	L2Recency(core int) []cache.Line
	// WardCopyView returns core's private W-state copy of block: the
	// written-sector mask and a copy of the data array.
	WardCopyView(core int, block mem.Addr) (mask cache.SectorMask, data [64]byte, ok bool)
	// RegionIsActive reports whether region id is currently registered.
	RegionIsActive(id RegionID) bool
	// CheckInvariants runs the whole-system invariant sweep.
	CheckInvariants() error
	// Mem exposes the canonical backing store (host-side reads only).
	Mem() *mem.Memory
}

// System implements both halves of the transition surface.
var (
	_ ProtocolStep = (*System)(nil)
	_ DirState     = (*System)(nil)
)

// DirEntry implements DirState.
func (s *System) DirEntry(block mem.Addr) (DirEntryView, bool) {
	e := s.dir.Lookup(block)
	if e == nil {
		return DirEntryView{State: cache.Invalid}, false
	}
	return DirEntryView{State: e.State, Owner: e.Owner, Sharers: e.Sharers, Region: RegionID(e.Region)}, true
}

// PrivLines implements DirState.
func (s *System) PrivLines(core int, block mem.Addr) (l1, l2 cache.State) {
	return s.l1[core].Peek(block), s.l2[core].Peek(block)
}

// L2Recency implements DirState.
func (s *System) L2Recency(core int) []cache.Line {
	return s.l2[core].Recency()
}

// WardCopyView implements DirState.
func (s *System) WardCopyView(core int, block mem.Addr) (cache.SectorMask, [64]byte, bool) {
	wc, ok := s.wcopies[core][block]
	if !ok {
		return 0, [64]byte{}, false
	}
	return wc.mask, wc.data, true
}

// RegionIsActive implements DirState.
func (s *System) RegionIsActive(id RegionID) bool { return s.regionActive(id) }
