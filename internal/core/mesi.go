package core

// The MESI family: the plain directory MESI baseline and MOESI, which is
// MESI with the Owned state (a dirty block shared without writeback, the
// owner sourcing data). Both are one implementation with an `owned` flag;
// the transaction bodies (mesiGetS/mesiGetM) live in protocol.go because
// WARDen reuses them for out-of-region "legacy" traffic.

import (
	"fmt"

	"warden/internal/cache"
	"warden/internal/coherence"
	"warden/internal/mem"
)

// mesiImpl is the eagerly coherent MESI/MOESI state machine.
type mesiImpl struct {
	s *System
	// owned enables MOESI's Owned state: a dirty block downgraded by a
	// read stays dirty at its owner instead of writing back.
	owned bool
}

func newMESI(s *System) ProtocolImpl  { return &mesiImpl{s: s} }
func newMOESI(s *System) ProtocolImpl { return &mesiImpl{s: s, owned: true} }

// DirTransact implements ProtocolImpl: the plain MESI/MOESI read and
// write transactions. The directory never holds W entries under this
// family, so no reconcile path exists.
func (p *mesiImpl) DirTransact(core int, block mem.Addr, mode AccessMode, e *coherence.Entry, lat uint64) (cache.State, uint64) {
	switch mode {
	case ModeRead:
		return p.s.mesiGetS(core, block, e, &lat, p.owned), lat
	default:
		return p.s.mesiGetM(core, block, e, &lat, p.owned), lat
	}
}

// PrivHit implements ProtocolImpl: reads hit on any valid line; writes
// and atomics hit on M and silently upgrade E; S needs an upgrade.
func (p *mesiImpl) PrivHit(core int, block mem.Addr, st cache.State, mode AccessMode) (bool, cache.State) {
	return p.s.mesiPrivHit(core, block, st, mode)
}

// EvictVictim implements ProtocolImpl via the shared coherent-eviction
// actions (protocol.go); the W case there is unreachable here.
func (p *mesiImpl) EvictVictim(core int, ev cache.Eviction, e *coherence.Entry) {
	p.s.evictCoherentVictim(core, ev, e)
}

// SyncPoint implements ProtocolImpl: eager coherence needs no sync hook.
func (p *mesiImpl) SyncPoint(core int) uint64 { return 0 }

// AddRegion implements ProtocolImpl: on legacy hardware the instruction
// is a cheap no-op and no region becomes active.
func (p *mesiImpl) AddRegion(core int, lo, hi mem.Addr) (RegionID, uint64, bool) {
	return NullRegion, regionOpCycles, false
}

// RemoveRegion implements ProtocolImpl: a no-op, matching AddRegion.
func (p *mesiImpl) RemoveRegion(core int, id RegionID) uint64 { return regionOpCycles }

// Drain implements ProtocolImpl via the shared coherent drain; the
// W-reconcile pass there finds nothing under this family.
func (p *mesiImpl) Drain() { p.s.drainCoherent() }

// CheckBlock implements ProtocolImpl: the MESI-family per-state
// invariants, with W entries illegal.
func (p *mesiImpl) CheckBlock(a mem.Addr, e *coherence.Entry) error {
	return p.s.checkCoherentBlock(a, e, false)
}

// mesiPrivHit decides whether a privately cached line in state st
// satisfies the access without a directory transaction, returning the
// (possibly silently upgraded) state. Shared by the MESI family and
// WARDen (whose W lines also hit here).
func (s *System) mesiPrivHit(core int, block mem.Addr, st cache.State, mode AccessMode) (bool, cache.State) {
	switch mode {
	case ModeRead:
		return true, st
	case ModeWrite:
		switch st {
		case cache.Modified, cache.Ward:
			return true, st
		case cache.Exclusive:
			// Silent E->M upgrade; the directory's E entry already names
			// this core as owner.
			s.setPrivState(core, block, cache.Modified)
			return true, cache.Modified
		}
		return false, st // S needs an upgrade
	case ModeAtomic:
		switch st {
		case cache.Modified:
			return true, st
		case cache.Exclusive:
			s.setPrivState(core, block, cache.Modified)
			return true, cache.Modified
		}
		return false, st // S upgrade; Ward must reconcile at the directory
	}
	panic("core: unknown access mode")
}

// checkCoherentBlock verifies the MESI-family per-state invariants for
// block a's directory entry e: at most one M/E holder, sharer bitsets
// consistent with private-cache states, and (when wardOK) W entries only
// while their region is active. Shared by the MESI family (wardOK=false)
// and WARDen (wardOK=true).
func (s *System) checkCoherentBlock(a mem.Addr, e *coherence.Entry, wardOK bool) error {
	switch e.State {
	case cache.Exclusive:
		if st := s.l2[e.Owner].Peek(a); st != cache.Exclusive && st != cache.Modified {
			return fmt.Errorf("dir says core %d owns %#x but its L2 has %v", e.Owner, uint64(a), st)
		}
		for c := range s.l2 {
			if c != e.Owner && s.l2[c].Peek(a) != cache.Invalid {
				return fmt.Errorf("block %#x owned by core %d also valid in core %d", uint64(a), e.Owner, c)
			}
		}
	case cache.Owned:
		if st := s.l2[e.Owner].Peek(a); st != cache.Owned {
			return fmt.Errorf("dir says core %d owns %#x (O) but its L2 has %v", e.Owner, uint64(a), st)
		}
		for c := range s.l2 {
			if c == e.Owner {
				continue
			}
			st := s.l2[c].Peek(a)
			if e.Sharers.Has(c) {
				if st != cache.Shared {
					return fmt.Errorf("dir says core %d shares O-block %#x but its L2 has %v", c, uint64(a), st)
				}
			} else if st != cache.Invalid {
				return fmt.Errorf("core %d holds O-block %#x (%v) but is not a sharer", c, uint64(a), st)
			}
		}
	case cache.Shared:
		if e.Sharers.Empty() {
			return fmt.Errorf("shared block %#x with empty sharer set", uint64(a))
		}
		for c := range s.l2 {
			st := s.l2[c].Peek(a)
			if e.Sharers.Has(c) {
				if st != cache.Shared {
					return fmt.Errorf("dir says core %d shares %#x but its L2 has %v", c, uint64(a), st)
				}
			} else if st != cache.Invalid {
				return fmt.Errorf("core %d holds %#x (%v) but is not in sharer set", c, uint64(a), st)
			}
		}
	case cache.Ward:
		if !wardOK {
			return fmt.Errorf("block %#x in W state under %v", uint64(a), s.proto)
		}
		if !s.regionActive(RegionID(e.Region)) {
			return fmt.Errorf("W block %#x belongs to region %d, which is not active", uint64(a), e.Region)
		}
		for c := range s.l2 {
			st := s.l2[c].Peek(a)
			if e.Sharers.Has(c) {
				if st != cache.Ward && st != cache.Shared {
					return fmt.Errorf("dir says core %d holds W block %#x but its L2 has %v", c, uint64(a), st)
				}
			} else if st != cache.Invalid {
				return fmt.Errorf("core %d holds W block %#x but is not in holder set", c, uint64(a))
			}
		}
	default:
		return fmt.Errorf("directory entry for %#x in state %v", uint64(a), e.State)
	}
	return nil
}
