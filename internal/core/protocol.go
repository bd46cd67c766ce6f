package core

// The protocol state machines: directory transactions, the W-state grant
// path, private-cache maintenance, eviction handling, and reconciliation.
// Everything in this file runs inside a single simulated transaction; the
// instruction-facing access paths live in system.go and the event-stream
// plumbing in event.go.

import (
	"fmt"
	"math/bits"
	"sort"

	"warden/internal/cache"
	"warden/internal/coherence"
	"warden/internal/mem"
	"warden/internal/stats"
)

// dirTransact performs a full coherence transaction at block's home
// directory on behalf of core. Because the simulation engine serializes
// cores, the transaction runs atomically; latency and messages accumulate
// as if the message sequence executed on the fabric. The generic prelude
// (request message, directory access, entry lookup) runs here; the rest is
// the registered protocol's. Callers go through dirTransaction (event.go),
// which wraps this with EvTransaction emission when a sink is attached.
func (s *System) dirTransact(core int, block mem.Addr, mode AccessMode) (cache.State, uint64) {
	req := stats.GetS
	if mode != ModeRead {
		req = stats.GetM
	}
	lat := s.fabric.CoreToHome(req, core, block)
	s.ctr.DirAccesses++
	lat += s.cfg.L3Latency // directory + LLC slice access
	e := s.dir.Ensure(block)
	return s.impl.DirTransact(core, block, mode, e, lat)
}

// mesiGetS is the MESI read-miss transaction; owned enables MOESI's Owned
// state on the dirty-sharing path.
func (s *System) mesiGetS(core int, block mem.Addr, e *coherence.Entry, lat *uint64, owned bool) cache.State {
	switch e.State {
	case cache.Invalid:
		// No cached copies: fetch from LLC/DRAM and grant Exclusive (the
		// MESI E optimization for unshared data).
		*lat += s.llcFetch(block)
		*lat += s.fabric.HomeToCore(stats.Data, block, core)
		e.State = cache.Exclusive
		e.Owner = core
		e.Sharers = 0
		s.installPrivate(core, block, cache.Exclusive)
		return cache.Exclusive

	case cache.Exclusive:
		if e.Owner == core {
			panic("core: GetS from the recorded owner (private state out of sync)")
		}
		// Forward to the owner, who downgrades and sends the requester the
		// data. Under MESI a dirty owner also writes back to the LLC and
		// everyone ends Shared; under MOESI a dirty owner keeps the block
		// in Owned and remains responsible for sourcing it.
		owner := e.Owner
		*lat += s.fabric.HomeToCore(stats.FwdGetS, block, owner)
		*lat += s.cfg.L2Latency // owner's private lookup
		dirty := s.l2[owner].Peek(block) == cache.Modified
		*lat += s.fabric.CoreToCore(stats.Data, owner, core)
		if owned && dirty {
			s.downgradePrivateTo(owner, block, cache.Owned)
			e.State = cache.Owned
			e.Owner = owner
			e.Sharers = coherence.Bitset(0).Add(core)
		} else {
			s.downgradePrivate(owner, block)
			if dirty {
				s.fabric.CoreToHome(stats.DataDir, owner, block) // writeback, off critical path
			}
			e.State = cache.Shared
			e.Sharers = coherence.Bitset(0).Add(owner).Add(core)
		}
		s.installPrivate(core, block, cache.Shared)
		return cache.Shared

	case cache.Owned:
		// MOESI: the owner sources the data; no LLC involvement, no
		// writeback, no state change at the owner.
		owner := e.Owner
		*lat += s.fabric.HomeToCore(stats.FwdGetS, block, owner)
		*lat += s.cfg.L2Latency
		*lat += s.fabric.CoreToCore(stats.Data, owner, core)
		e.Sharers = e.Sharers.Add(core)
		s.installPrivate(core, block, cache.Shared)
		return cache.Shared

	case cache.Shared:
		*lat += s.llcFetch(block)
		*lat += s.fabric.HomeToCore(stats.Data, block, core)
		e.Sharers = e.Sharers.Add(core)
		s.installPrivate(core, block, cache.Shared)
		return cache.Shared
	}
	panic(fmt.Sprintf("core: GetS with directory in state %v", e.State))
}

// mesiGetM is the MESI write-miss/upgrade transaction. The owned flag is
// accepted for symmetry with mesiGetS; the GetM transaction is identical
// under MESI and MOESI (Owned entries are invalidated either way).
func (s *System) mesiGetM(core int, block mem.Addr, e *coherence.Entry, lat *uint64, owned bool) cache.State {
	switch e.State {
	case cache.Invalid:
		*lat += s.llcFetch(block)
		*lat += s.fabric.HomeToCore(stats.Data, block, core)

	case cache.Exclusive:
		if e.Owner == core {
			panic("core: GetM from the recorded owner (private state out of sync)")
		}
		owner := e.Owner
		*lat += s.fabric.HomeToCore(stats.FwdGetM, block, owner)
		*lat += s.cfg.L2Latency
		s.invalidatePrivate(owner, block, true)
		*lat += s.fabric.CoreToCore(stats.Data, owner, core)

	case cache.Owned:
		// MOESI: invalidate the sharers; the owner supplies data (or just
		// upgrades in place if the requester is the owner).
		owner := e.Owner
		var worst uint64
		e.Sharers.ForEach(func(sh int) {
			if sh == core {
				return
			}
			l := s.fabric.HomeToCore(stats.Inv, block, sh)
			s.invalidatePrivate(sh, block, true)
			l += s.fabric.CoreToCore(stats.InvAck, sh, core)
			if l > worst {
				worst = l
			}
		})
		*lat += worst
		if owner != core {
			*lat += s.fabric.HomeToCore(stats.FwdGetM, block, owner)
			*lat += s.cfg.L2Latency
			s.invalidatePrivate(owner, block, true)
			*lat += s.fabric.CoreToCore(stats.Data, owner, core)
		}

	case cache.Shared:
		// Invalidate every other sharer; invalidations proceed in parallel,
		// so latency is the slowest inv+ack round.
		upgrade := e.Sharers.Has(core)
		var worst uint64
		e.Sharers.ForEach(func(sh int) {
			if sh == core {
				return
			}
			l := s.fabric.HomeToCore(stats.Inv, block, sh)
			s.invalidatePrivate(sh, block, true)
			l += s.fabric.CoreToCore(stats.InvAck, sh, core)
			if l > worst {
				worst = l
			}
		})
		*lat += worst
		if !upgrade {
			*lat += s.llcFetch(block)
			*lat += s.fabric.HomeToCore(stats.Data, block, core)
		}
	default:
		panic(fmt.Sprintf("core: GetM with directory in state %v", e.State))
	}
	e.State = cache.Exclusive
	e.Owner = core
	e.Sharers = 0
	s.installPrivate(core, block, cache.Modified)
	return cache.Modified
}

// wardGrant serves a request for a block inside an active WARD region: the
// directory moves the block to W (if not already), adds the requester to the
// holder set, and furnishes a copy without invalidating or downgrading any
// other holder (§5.1).
func (s *System) wardGrant(core int, block mem.Addr, e *coherence.Entry, rid RegionID) uint64 {
	var lat uint64
	if e.State != cache.Ward {
		switch e.State {
		case cache.Exclusive:
			// The previous owner keeps its copy, now as a W line with a
			// fresh private snapshot. No invalidation, no downgrade.
			owner := e.Owner
			e.Sharers = coherence.Bitset(0).Add(owner)
			s.setPrivState(owner, block, cache.Ward)
			s.wcopy(owner, block)
		case cache.Shared:
			// Existing S holders keep their (clean, still-valid) S lines.
		case cache.Invalid:
			e.Sharers = 0
		}
		e.State = cache.Ward
		e.Region = uint32(rid)
		s.regions.noteBlock(rid, block)
	}
	already := e.Sharers.Has(core) && s.l2[core].Peek(block) != cache.Invalid
	e.Sharers = e.Sharers.Add(core)
	if !already {
		lat += s.llcFetch(block)
		lat += s.fabric.HomeToCore(stats.Data, block, core)
	}
	s.installPrivate(core, block, cache.Ward)
	s.wcopy(core, block)
	return lat
}

// llcFetch reads block at its home LLC slice, falling back to DRAM on miss,
// and returns the latency beyond the already-charged L3 access.
func (s *System) llcFetch(block mem.Addr) uint64 {
	home := s.fabric.HomeSocket(block)
	s.ctr.L3Accesses++
	l3 := s.l3[home]
	if l3.Lookup(block) != cache.Invalid {
		l3.Hits++
		s.ctr.L3Hits++
		return 0
	}
	l3.Misses++
	s.ctr.DRAMAccesses++
	l3.Insert(block, cache.Shared) // LLC victim drops silently (non-inclusive LLC)
	return s.cfg.DRAMLatency
}

// ---------------------------------------------------------------------------
// Private-cache maintenance

// fillL1 installs block into L1 after an L2 hit (inclusion holds; the L1
// victim needs no action).
func (s *System) fillL1(core int, block mem.Addr, st cache.State) {
	s.l1[core].Insert(block, st)
}

// installPrivate installs block into the core's L2 then L1, handling the L2
// capacity victim's protocol actions.
func (s *System) installPrivate(core int, block mem.Addr, st cache.State) {
	if ev, ok := s.l2[core].Insert(block, st); ok {
		s.evictL2Victim(core, ev)
	}
	s.l1[core].Insert(block, st)
}

// setPrivState updates block's state in the core's L1 and L2 where present.
func (s *System) setPrivState(core int, block mem.Addr, st cache.State) {
	s.l2[core].SetState(block, st)
	s.l1[core].SetState(block, st)
}

// invalidatePrivate removes block from the core's private caches; when
// coherence is true the removals are counted as coherence invalidations
// (one per cache holding the block, matching the paper's per-cache counts).
func (s *System) invalidatePrivate(core int, block mem.Addr, coherenceInv bool) {
	if st := s.l1[core].Invalidate(block); st != cache.Invalid && coherenceInv {
		s.l1[core].CountInvalidation()
		s.ctr.Invalidations++
	}
	if st := s.l2[core].Invalidate(block); st != cache.Invalid && coherenceInv {
		s.l2[core].CountInvalidation()
		s.ctr.Invalidations++
	}
}

// downgradePrivate moves block to S in the core's private caches, counting a
// coherence downgrade per cache holding it.
func (s *System) downgradePrivate(core int, block mem.Addr) {
	s.downgradePrivateTo(core, block, cache.Shared)
}

// downgradePrivateTo moves block to the given (less privileged) state in the
// core's private caches, counting a coherence downgrade per cache holding it.
func (s *System) downgradePrivateTo(core int, block mem.Addr, st cache.State) {
	if s.l1[core].SetState(block, st) {
		s.l1[core].CountDowngrade()
		s.ctr.Downgrades++
	}
	if s.l2[core].SetState(block, st) {
		s.l2[core].CountDowngrade()
		s.ctr.Downgrades++
	}
}

// evictL2Victim handles a block displaced from a private L2: maintain
// inclusion, then let the registered protocol notify the directory and
// write back or reconcile-flush dirty data (EvictVictim). Writebacks are
// posted (they do not stall the evicting core) but their traffic is
// charged.
func (s *System) evictL2Victim(core int, ev cache.Eviction) {
	var before stats.Snapshot
	var db cache.State
	var ob int
	var sb coherence.Bitset
	if s.sink != nil {
		s.ctr.SnapInto(&before)
		db, ob, sb = s.dirPeek(ev.Addr)
	}

	// Inclusion: the L1 copy (if any) must go too. Not a coherence inv.
	s.l1[core].Invalidate(ev.Addr)

	e := s.dir.Lookup(ev.Addr)
	if e == nil {
		panic(fmt.Sprintf("core: evicting %#x with no directory entry", uint64(ev.Addr)))
	}
	s.impl.EvictVictim(core, ev, e)

	if s.sink != nil {
		evn := &s.ev
		*evn = Event{}
		evn.Kind = EvEvict
		evn.Thread = s.evThread
		evn.Core = core
		evn.Cycle = s.evCycle
		evn.Addr, evn.Block = ev.Addr, ev.Addr
		evn.LineState = ev.State
		evn.DirBefore, evn.OwnerBefore, evn.SharersBefore = db, ob, sb
		s.ctr.DeltaInto(&evn.Ctrs, &before)
		evn.DirAfter, evn.OwnerAfter, evn.SharersAfter = s.dirPeek(ev.Addr)
		s.emit(evn)
	}
}

// evictCoherentVictim performs the MESI-family and WARDen eviction
// actions for an L2 victim; e is its directory entry. Shared by every
// in-tree protocol (the W case is unreachable under the MESI family).
func (s *System) evictCoherentVictim(core int, ev cache.Eviction, e *coherence.Entry) {
	switch ev.State {
	case cache.Shared:
		s.fabric.CoreToHome(stats.PutS, core, ev.Addr)
		e.Sharers = e.Sharers.Remove(core)
		if e.State == cache.Shared && e.Sharers.Empty() {
			s.dir.Drop(ev.Addr)
		}
		// Under an Owned entry, sharers come and go while the owner keeps
		// the block; nothing more to do.
		// Under a Ward directory entry an S holder may evict; the entry
		// stays W for the remaining holders.
		if e.State == cache.Ward && e.Sharers.Empty() {
			s.regions.forgetBlock(RegionID(e.Region), ev.Addr)
			s.dir.Drop(ev.Addr)
		}
	case cache.Owned:
		// The dirty sourcing copy leaves: write back to the LLC; remaining
		// sharers (if any) keep clean S copies served by the LLC.
		s.fabric.CoreToHome(stats.PutM, core, ev.Addr)
		s.fabric.CoreToHome(stats.DataDir, core, ev.Addr)
		s.l3[s.fabric.HomeSocket(ev.Addr)].Insert(ev.Addr, cache.Shared)
		if e.Sharers.Empty() {
			s.dir.Drop(ev.Addr)
		} else {
			e.State = cache.Shared
			e.Owner = 0
		}
	case cache.Exclusive:
		s.fabric.CoreToHome(stats.PutE, core, ev.Addr)
		s.dir.Drop(ev.Addr)
	case cache.Modified:
		s.fabric.CoreToHome(stats.PutM, core, ev.Addr)
		s.fabric.CoreToHome(stats.DataDir, core, ev.Addr)
		s.dir.Drop(ev.Addr)
	case cache.Ward:
		// Proactive flush: merge this core's written sectors into the LLC
		// now, off the critical path (§5.3's overlap benefit).
		s.flushWardCopy(core, ev.Addr)
		e.Sharers = e.Sharers.Remove(core)
		if e.Sharers.Empty() {
			s.regions.forgetBlock(RegionID(e.Region), ev.Addr)
			s.dir.Drop(ev.Addr)
		}
	default:
		panic(fmt.Sprintf("core: evicting line in state %v", ev.State))
	}
}

// flushWardCopy merges core's private copy of block into the canonical
// store (masked sectors only) and discards the copy.
func (s *System) flushWardCopy(core int, block mem.Addr) {
	wc, ok := s.wcopies[core][block]
	if !ok {
		return
	}
	if wc.mask != 0 {
		s.applyMask(block, wc)
		s.fabric.FlushToHome(core, block, uint64(wc.mask.Count())<<s.sectorShift)
		s.ctr.ReconciledBlocks++
		s.ctr.ReconciledSectors += uint64(wc.mask.Count())
		s.l3[s.fabric.HomeSocket(block)].Insert(block, cache.Shared)
	}
	delete(s.wcopies[core], block)
}

func (s *System) applyMask(block mem.Addr, wc *wardCopy) {
	// Each run of consecutive written sectors is one contiguous write.
	for m := uint64(wc.mask); m != 0; {
		lo := bits.TrailingZeros64(m)
		n := bits.TrailingZeros64(^(m >> lo))
		m &^= (uint64(1)<<n - 1) << lo
		off, end := uint64(lo)<<s.sectorShift, uint64(lo+n)<<s.sectorShift
		s.mem.Write(block+mem.Addr(off), wc.data[off:end])
	}
}

// ---------------------------------------------------------------------------
// Reconciliation

// reconcileBlock returns one W block to a coherent state following the
// §6.1 implementation (and the paper's prototype, per its footnote): every
// private W copy is flushed — written sectors merge into the LLC in
// ascending core order ("the final value of each sector is taken from
// whichever copy is processed last"; any order is correct by the WARD
// property, and ascending order keeps the simulation deterministic) — and
// invalidated. The merged block lands in its home LLC slice, which is what
// makes the §5.3 proactive flush pay off: the next consumer takes an LLC
// hit instead of a forward-and-downgrade round to the producer's private
// cache. Clean S holders under the W entry keep their (still valid) lines.
// forgetRegion also detaches the block from its region's index (used on the
// forced-reconcile path; RemoveRegion has already discarded the index).
func (s *System) reconcileBlock(block mem.Addr, e *coherence.Entry, forgetRegion bool) {
	var before stats.Snapshot
	if s.sink != nil {
		s.ctr.SnapInto(&before)
	}
	holders := e.Sharers
	region := RegionID(e.Region)
	var totalMask cache.SectorMask
	writers := 0
	lastWriter := -1
	overlap := false
	var remaining coherence.Bitset // holders keeping valid S lines

	// First pass: merge every written sector into the canonical store.
	holders.ForEach(func(c int) {
		if s.l2[c].Peek(block) != cache.Ward {
			return
		}
		wc, ok := s.wcopies[c][block]
		if ok && wc.mask != 0 {
			if wc.mask.Overlaps(totalMask) {
				overlap = true
			}
			totalMask |= wc.mask
			writers++
			lastWriter = c
			s.applyMask(block, wc)
			s.fabric.FlushToHome(c, block, uint64(wc.mask.Count())<<s.sectorShift)
			s.ctr.ReconciledSectors += uint64(wc.mask.Count())
		}
	})
	// Second pass: dispose of the private copies. A copy that provably
	// equals the merged block — any copy when nothing was written, or the
	// sole writer's own copy — converts to a clean S line in place;
	// every other copy is stale and is flushed-and-invalidated (§6.1).
	// These invalidations are not coherence invalidations: no Inv messages
	// travel, the holders volunteered their blocks.
	holders.ForEach(func(c int) {
		st := s.l2[c].Peek(block)
		if st == cache.Invalid {
			return
		}
		if st != cache.Ward {
			remaining = remaining.Add(c) // clean S holder under a W entry
			return
		}
		delete(s.wcopies[c], block)
		if totalMask == 0 || (writers == 1 && c == lastWriter) {
			s.setPrivState(c, block, cache.Shared)
			remaining = remaining.Add(c)
			return
		}
		s.l1[c].Invalidate(block)
		s.l2[c].Invalidate(block)
	})
	s.ctr.ReconciledBlocks++
	if writers > 0 && holders.Count() > 1 {
		if overlap {
			s.ctr.TrueShareMerges++
		} else {
			s.ctr.FalseShareMerges++
		}
	}
	// The merged data now lives in the home LLC slice.
	s.l3[s.fabric.HomeSocket(block)].Insert(block, cache.Shared)
	if remaining.Empty() {
		s.dir.Drop(block)
	} else {
		e.State = cache.Shared
		e.Owner = 0
		e.Sharers = remaining
	}
	if forgetRegion {
		s.regions.forgetBlock(region, block)
	}

	if s.sink != nil {
		ev := &s.ev
		*ev = Event{}
		ev.Kind = EvReconcile
		ev.Thread = s.evThread
		ev.Core = -1
		ev.Cycle = s.evCycle
		ev.Addr, ev.Block = block, block
		ev.Region = region
		ev.Arg1, ev.Arg2 = uint64(writers), uint64(totalMask)
		ev.DirBefore, ev.SharersBefore = cache.Ward, holders
		s.ctr.DeltaInto(&ev.Ctrs, &before)
		ev.DirAfter, ev.OwnerAfter, ev.SharersAfter = s.dirPeek(block)
		s.emit(ev)
	}
}

// ---------------------------------------------------------------------------
// End-of-run drain

// DrainAll flushes every private cache back to a coherent state; used at
// the end of a run so final memory contents can be verified. The work is
// the registered protocol's: every protocol must charge the writeback
// traffic for data that must eventually reach shared memory, so protocols
// are compared fairly.
func (s *System) DrainAll() { s.impl.Drain() }

// drainCoherent is the MESI-family and WARDen drain: reconcile all W
// blocks, then write back every dirty block (counting the writeback
// traffic).
func (s *System) drainCoherent() {
	var wards, dirty []mem.Addr
	s.dir.ForEach(func(a mem.Addr, e *coherence.Entry) {
		switch e.State {
		case cache.Ward:
			wards = append(wards, a)
		case cache.Exclusive, cache.Owned:
			if st := s.l2[e.Owner].Peek(a); st == cache.Modified || st == cache.Owned {
				dirty = append(dirty, a)
			}
		}
	})
	sort.Slice(wards, func(i, j int) bool { return wards[i] < wards[j] })
	for _, a := range wards {
		if e := s.dir.Lookup(a); e != nil && e.State == cache.Ward {
			s.reconcileBlock(a, e, true)
		}
	}
	sort.Slice(dirty, func(i, j int) bool { return dirty[i] < dirty[j] })
	for _, a := range dirty {
		e := s.dir.Lookup(a)
		if e == nil || (e.State != cache.Exclusive && e.State != cache.Owned) {
			continue
		}
		owner := e.Owner
		s.fabric.CoreToHome(stats.PutM, owner, a)
		s.fabric.CoreToHome(stats.DataDir, owner, a)
		s.l3[s.fabric.HomeSocket(a)].Insert(a, cache.Shared)
		if e.State == cache.Owned {
			s.setPrivState(owner, a, cache.Shared) // clean, still shared
			e.State = cache.Shared
			e.Sharers = e.Sharers.Add(owner)
			e.Owner = 0
		} else {
			s.setPrivState(owner, a, cache.Exclusive) // now clean
		}
	}
}
