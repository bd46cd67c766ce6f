package core

// Protocol invariant checking. CheckInvariants is the whole-system sweep
// used by the test suite and the end of wardentrace -check runs; the
// per-block checkBlockInvariant is also called incrementally by the Checker
// sink (checker.go) after each directory transaction.

import (
	"fmt"
	"sort"

	"warden/internal/cache"
	"warden/internal/coherence"
	"warden/internal/mem"
)

// CheckInvariants verifies the protocol's global invariants: single-writer/
// multiple-reader for MESI states, directory/private-cache agreement, L1⊆L2
// inclusion, and W-state bookkeeping. It returns the first violation found.
func (s *System) CheckInvariants() error {
	// Collect directory entries in address order for determinism.
	var addrs []mem.Addr
	s.dir.ForEach(func(a mem.Addr, _ *coherence.Entry) { addrs = append(addrs, a) })
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })

	for _, a := range addrs {
		if err := s.checkBlockInvariant(a, s.dir.Lookup(a)); err != nil {
			return err
		}
	}
	// Inclusion and reverse-mapping: every valid private line is tracked.
	for c := range s.l1 {
		var err error
		s.l1[c].ForEach(func(ln cache.Line) {
			if err != nil {
				return
			}
			l2st := s.l2[c].Peek(ln.Addr)
			if l2st == cache.Invalid {
				err = fmt.Errorf("core %d: L1 holds %#x but L2 does not (inclusion)", c, uint64(ln.Addr))
			} else if l2st != ln.State {
				err = fmt.Errorf("core %d: L1 state %v != L2 state %v for %#x", c, ln.State, l2st, uint64(ln.Addr))
			}
		})
		if err != nil {
			return err
		}
		s.l2[c].ForEach(func(ln cache.Line) {
			if err != nil {
				return
			}
			if s.dir.Lookup(ln.Addr) == nil {
				err = fmt.Errorf("core %d: L2 holds %#x with no directory entry", c, uint64(ln.Addr))
			}
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// checkBlockInvariant verifies the directory entry e for block a against
// every private cache. The per-state rules are the registered protocol's
// (ProtocolImpl.CheckBlock); the generic write-mask bookkeeping rules run
// here for every protocol. e may be nil (no entry), in which case the
// only requirement is that no write masks linger.
func (s *System) checkBlockInvariant(a mem.Addr, e *coherence.Entry) error {
	if e == nil {
		for c := range s.wcopies {
			if wc, ok := s.wcopies[c][a]; ok && wc.mask != 0 {
				return fmt.Errorf("core %d holds a write mask for %#x with no directory entry", c, uint64(a))
			}
		}
		return nil
	}
	if err := s.impl.CheckBlock(a, e); err != nil {
		return err
	}
	// Write masks may exist only under a W entry, and only at holders whose
	// private line is actually in the W state.
	for c := range s.wcopies {
		wc, ok := s.wcopies[c][a]
		if !ok || wc.mask == 0 {
			continue
		}
		if e.State != cache.Ward {
			return fmt.Errorf("core %d holds a write mask for %#x but the directory entry is %v", c, uint64(a), e.State)
		}
		if st := s.l2[c].Peek(a); st != cache.Ward {
			return fmt.Errorf("core %d holds a write mask for W block %#x but its L2 has %v", c, uint64(a), st)
		}
	}
	return nil
}

// regionActive reports whether region id is currently registered.
func (s *System) regionActive(id RegionID) bool {
	_, ok := s.regions.byID[id]
	return ok
}
