// Package sisd implements a self-invalidation/self-downgrade coherence
// protocol in the family of "Mending Fences with Self-Invalidation and
// Self-Downgrade" (VIPS-M-like), registered with the protocol registry as
// "SiSd". It is deliberately implemented entirely outside internal/core:
// it uses only the exported ProtocolImpl surface (core/impl.go), which is
// the registry's proof that a new protocol family plugs in without
// touching the dispatch sites, the verifiers, or the tools.
//
// The protocol classifies each block by its directory entry:
//
//   - Private (directory Exclusive + Owner): exactly one core has touched
//     the block. It behaves MESI-like — E on a read fill, silent E→M on a
//     write, PutE/PutM on eviction — with no sharing cost.
//   - Shared (directory Shared): a second core touched the block. From
//     then on there are NO invalidation rounds: reads fetch from the LLC,
//     writes upgrade a local copy to Modified in place (the dirty copy is
//     a *self-downgrade obligation*, written back at the writer's next
//     synchronization point, eviction, or drain), and stale copies die by
//     *self-invalidation* when their holder reaches a synchronization
//     point. Clean shared evictions are silent (no PutS traffic).
//
// The directory's holder set under a Shared entry is simulator
// bookkeeping mirroring the private tag arrays (what a real SiSd machine
// keeps in its caches), not a coherence structure: no message is ever
// addressed through it. The protocol never consults sharer lists to
// invalidate or downgrade anyone — that is the point of SiSd.
//
// Synchronization points are fences (the descriptor sets SyncFences, so
// the machine routes fences through System.SyncPoint) and atomics (the
// directory transaction for an atomic syncs the issuing core first).
// Data values are functionally coherent by construction — loads and
// stores move through the canonical store, as for every protocol in this
// simulator — so SiSd's relaxation shows up in timing, traffic, and
// state, which is exactly what the model checker's ghost model and the
// differential walks verify.
package sisd

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"warden/internal/cache"
	"warden/internal/coherence"
	"warden/internal/core"
	"warden/internal/mem"
	"warden/internal/stats"
)

// Protocol is SiSd's registered handle. Importing this package (usually
// via internal/protocols) makes "sisd" resolvable everywhere.
var Protocol = core.Register(core.ProtocolDesc{
	Name:       "SiSd",
	SyncFences: true,
	New:        newImpl,
})

// impl is the per-System state machine. It keeps no protocol state of its
// own: everything lives in the directory entries and private tag arrays,
// so the model checker's canonical state (DirState) captures it fully.
type impl struct {
	s     *core.System
	cores int
	l2Lat uint64

	swept []cache.Line // SyncPoint's scratch list, reused across sweeps
}

func newImpl(s *core.System) core.ProtocolImpl {
	cfg := s.Config()
	return &impl{s: s, cores: cfg.Cores(), l2Lat: cfg.L2Latency}
}

// dirtyL2 reports whether core's L2 holds block in Modified.
func (p *impl) dirtyL2(core int, block mem.Addr) bool {
	_, l2 := p.s.PrivLines(core, block)
	return l2 == cache.Modified
}

// DirTransact implements core.ProtocolImpl.
func (p *impl) DirTransact(c int, block mem.Addr, mode core.AccessMode, e *coherence.Entry, lat uint64) (cache.State, uint64) {
	s := p.s
	if mode == core.ModeAtomic {
		// Atomics are synchronization: the issuing core self-invalidates
		// and self-downgrades first, then transacts at the LLC. The sweep
		// may have dropped or reshaped this block's entry, so re-resolve.
		lat += p.SyncPoint(c)
		e = s.Directory().Ensure(block)
	}
	switch e.State {
	case cache.Invalid:
		// First touch: private classification, MESI-like fill.
		lat += s.LLCFetch(block)
		lat += s.Fabric().HomeToCore(stats.Data, block, c)
		e.State, e.Owner, e.Sharers = cache.Exclusive, c, 0
		if mode == core.ModeRead {
			s.InstallPrivate(c, block, cache.Exclusive)
			return cache.Exclusive, lat
		}
		s.InstallPrivate(c, block, cache.Modified)
		return cache.Modified, lat

	case cache.Exclusive:
		if e.Owner == c {
			panic("sisd: directory transaction from the recorded owner (private state out of sync)")
		}
		owner := e.Owner
		if mode == core.ModeAtomic {
			// Recover exclusivity for the atomic: this is the one place
			// SiSd sends a (single, directed) invalidation, because an
			// atomic must own the line and the previous owner is known.
			lat += s.Fabric().HomeToCore(stats.FwdGetM, block, owner)
			lat += p.l2Lat
			if p.dirtyL2(owner, block) {
				s.Fabric().CoreToHome(stats.DataDir, owner, block) // posted
				s.LLCInsert(block)
			}
			s.InvalidatePrivate(owner, block, true)
			lat += s.Fabric().CoreToCore(stats.Data, owner, c)
			e.State, e.Owner, e.Sharers = cache.Exclusive, c, 0
			s.InstallPrivate(c, block, cache.Modified)
			return cache.Modified, lat
		}
		// Second-core touch: the block becomes shared-classified. The
		// owner is notified once (it recovers its dirty data and keeps a
		// clean Shared copy); from here on, no coherence rounds ever.
		lat += s.Fabric().HomeToCore(stats.FwdGetS, block, owner)
		lat += p.l2Lat
		if p.dirtyL2(owner, block) {
			s.Fabric().CoreToHome(stats.DataDir, owner, block) // posted writeback
			s.LLCInsert(block)
		}
		s.DowngradePrivateTo(owner, block, cache.Shared)
		lat += s.Fabric().CoreToCore(stats.Data, owner, c)
		e.State, e.Owner = cache.Shared, 0
		e.Sharers = coherence.Bitset(0).Add(owner).Add(c)
		if mode == core.ModeRead {
			s.InstallPrivate(c, block, cache.Shared)
			return cache.Shared, lat
		}
		s.InstallPrivate(c, block, cache.Modified)
		return cache.Modified, lat

	case cache.Shared:
		// Shared-classified: serve from the LLC. Writes and atomics
		// install a Modified copy WITHOUT invalidating anyone — other
		// holders' stale copies die at their own sync points.
		lat += s.LLCFetch(block)
		lat += s.Fabric().HomeToCore(stats.Data, block, c)
		e.Sharers = e.Sharers.Add(c)
		st := cache.Shared
		if mode != core.ModeRead {
			st = cache.Modified
		}
		s.InstallPrivate(c, block, st)
		return st, lat
	}
	panic(fmt.Sprintf("sisd: directory transaction with entry in state %v", e.State))
}

// PrivHit implements core.ProtocolImpl. Reads hit on any valid line
// (possibly stale until the next sync point — SiSd's sanctioned
// relaxation). Writes hit on M, silently upgrade E, and — the SiSd win —
// silently upgrade a Shared line to Modified with no invalidation round.
// Atomics hit only on privately classified lines; shared-classified
// atomics must sync and transact at the directory.
func (p *impl) PrivHit(c int, block mem.Addr, st cache.State, mode core.AccessMode) (bool, cache.State) {
	switch mode {
	case core.ModeRead:
		return true, st
	case core.ModeWrite:
		switch st {
		case cache.Modified:
			return true, st
		case cache.Exclusive, cache.Shared:
			// E→M is MESI's silent upgrade; S→M is self-downgrade's dual:
			// the write lands locally and becomes a writeback obligation
			// discharged at the next sync point, eviction, or drain.
			p.s.SetPrivState(c, block, cache.Modified)
			return true, cache.Modified
		}
		return false, st
	case core.ModeAtomic:
		if e := p.s.Directory().Lookup(block); e != nil && e.State == cache.Exclusive && e.Owner == c {
			switch st {
			case cache.Modified:
				return true, st
			case cache.Exclusive:
				p.s.SetPrivState(c, block, cache.Modified)
				return true, cache.Modified
			}
		}
		return false, st
	}
	panic("sisd: unknown access mode")
}

// EvictVictim implements core.ProtocolImpl. Private victims take the
// MESI-like PutE/PutM path; shared-classified victims write back only if
// dirty and otherwise leave silently (no PutS traffic — the directory's
// holder set is tag-mirror bookkeeping, updated without a message).
func (p *impl) EvictVictim(c int, ev cache.Eviction, e *coherence.Entry) {
	s := p.s
	switch e.State {
	case cache.Exclusive:
		switch ev.State {
		case cache.Exclusive:
			s.Fabric().CoreToHome(stats.PutE, c, ev.Addr)
		case cache.Modified:
			s.Fabric().CoreToHome(stats.PutM, c, ev.Addr)
			s.Fabric().CoreToHome(stats.DataDir, c, ev.Addr)
			s.LLCInsert(ev.Addr)
		default:
			panic(fmt.Sprintf("sisd: evicting private line in state %v", ev.State))
		}
		s.Directory().Drop(ev.Addr)
	case cache.Shared:
		if ev.State == cache.Modified {
			// Self-downgrade obligation discharged by the eviction.
			s.Fabric().CoreToHome(stats.DataDir, c, ev.Addr)
			s.LLCInsert(ev.Addr)
		}
		e.Sharers = e.Sharers.Remove(c)
		if e.Sharers.Empty() {
			// Last copy gone: the classification decays back to private
			// on the next touch.
			s.Directory().Drop(ev.Addr)
		}
	default:
		panic(fmt.Sprintf("sisd: evicting with directory entry in state %v", e.State))
	}
}

// SyncPoint implements core.ProtocolImpl: the self-invalidation/
// self-downgrade sweep. Every shared-classified line in core's private
// caches is written back if dirty (posted) and invalidated; privately
// classified lines survive. The sweep walks addresses in ascending order
// for determinism and charges one cycle per swept line (the tag-walk
// cost; writebacks are posted and charged as traffic only).
func (p *impl) SyncPoint(c int) uint64 {
	s := p.s
	swept := p.swept[:0]
	_, l2 := s.PrivateCaches()
	l2[c].ForEach(func(ln cache.Line) {
		if e := s.Directory().Lookup(ln.Addr); e != nil && e.State == cache.Shared {
			swept = append(swept, ln)
		}
	})
	// Addresses are distinct within one cache, so the walk order of the
	// collection above does not matter.
	slices.SortFunc(swept, func(a, b cache.Line) int { return cmp.Compare(a.Addr, b.Addr) })
	p.swept = swept
	for _, ln := range swept {
		if ln.State == cache.Modified {
			s.Fabric().CoreToHome(stats.DataDir, c, ln.Addr) // posted writeback
			s.LLCInsert(ln.Addr)
		}
		s.InvalidatePrivate(c, ln.Addr, false) // self-invalidation: no Inv traffic
		e := s.Directory().Lookup(ln.Addr)
		e.Sharers = e.Sharers.Remove(c)
		if e.Sharers.Empty() {
			s.Directory().Drop(ln.Addr)
		}
	}
	return uint64(len(swept))
}

// AddRegion implements core.ProtocolImpl: SiSd has no regions; the
// instruction is the legacy no-op.
func (p *impl) AddRegion(c int, lo, hi mem.Addr) (core.RegionID, uint64, bool) {
	return core.NullRegion, core.LegacyRegionOpCycles, false
}

// RemoveRegion implements core.ProtocolImpl: a no-op, matching AddRegion.
func (p *impl) RemoveRegion(c int, id core.RegionID) uint64 {
	return core.LegacyRegionOpCycles
}

// Drain implements core.ProtocolImpl: discharge every outstanding
// writeback obligation — dirty private owners and dirty shared copies —
// charging the writeback traffic so protocols are compared fairly.
// Addresses ascending, then cores ascending, for determinism.
func (p *impl) Drain() {
	s := p.s
	var addrs []mem.Addr
	entries := make(map[mem.Addr]*coherence.Entry)
	s.Directory().ForEach(func(a mem.Addr, e *coherence.Entry) {
		addrs = append(addrs, a)
		entries[a] = e
	})
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, a := range addrs {
		e := entries[a]
		switch e.State {
		case cache.Exclusive:
			if p.dirtyL2(e.Owner, a) {
				s.Fabric().CoreToHome(stats.PutM, e.Owner, a)
				s.Fabric().CoreToHome(stats.DataDir, e.Owner, a)
				s.LLCInsert(a)
				s.SetPrivState(e.Owner, a, cache.Exclusive) // now clean
			}
		case cache.Shared:
			e.Sharers.ForEach(func(c int) {
				if p.dirtyL2(c, a) {
					s.Fabric().CoreToHome(stats.DataDir, c, a)
					s.LLCInsert(a)
					s.SetPrivState(c, a, cache.Shared) // clean, still held
				}
			})
		}
	}
}

// CheckBlock implements core.ProtocolImpl: SiSd's per-state invariants.
// Private entries are MESI-strict. Shared entries track holders exactly
// (every eviction updates the set), but a holder's line may be Shared or
// Modified — multiple dirty copies of a shared-classified block are legal
// pending self-downgrade, which is precisely where SiSd's invariants
// differ from an eagerly coherent protocol's.
func (p *impl) CheckBlock(a mem.Addr, e *coherence.Entry) error {
	s := p.s
	switch e.State {
	case cache.Exclusive:
		_, l2 := s.PrivLines(e.Owner, a)
		if l2 != cache.Exclusive && l2 != cache.Modified {
			return fmt.Errorf("sisd: dir says core %d owns %#x but its L2 has %v", e.Owner, uint64(a), l2)
		}
		for c := 0; c < p.cores; c++ {
			if c == e.Owner {
				continue
			}
			if _, l2 := s.PrivLines(c, a); l2 != cache.Invalid {
				return fmt.Errorf("sisd: private block %#x owned by core %d also valid in core %d", uint64(a), e.Owner, c)
			}
		}
	case cache.Shared:
		if e.Sharers.Empty() {
			return fmt.Errorf("sisd: shared block %#x with empty holder set", uint64(a))
		}
		for c := 0; c < p.cores; c++ {
			_, l2 := s.PrivLines(c, a)
			if e.Sharers.Has(c) {
				if l2 != cache.Shared && l2 != cache.Modified {
					return fmt.Errorf("sisd: dir says core %d holds shared block %#x but its L2 has %v", c, uint64(a), l2)
				}
			} else if l2 != cache.Invalid {
				return fmt.Errorf("sisd: core %d holds shared block %#x (%v) but is not in the holder set", c, uint64(a), l2)
			}
		}
	default:
		return fmt.Errorf("sisd: directory entry for %#x in state %v", uint64(a), e.State)
	}
	return nil
}
