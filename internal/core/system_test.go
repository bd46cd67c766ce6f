package core

import (
	"testing"
	"testing/quick"

	"warden/internal/cache"
	"warden/internal/mem"
	"warden/internal/stats"
	"warden/internal/topology"
)

func testSystem(proto Protocol, sockets int) (*System, *mem.Memory, *stats.Counters) {
	cfg := topology.XeonGold6126(sockets)
	cfg.CoresPerSocket = 4
	m := mem.New(0)
	ctr := &stats.Counters{}
	return NewSystem(cfg, proto, m, ctr), m, ctr
}

func write64(s *System, core int, a mem.Addr, v uint64) uint64 {
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(v >> (8 * i))
	}
	return s.Write(core, a, buf[:])
}

func read64(s *System, core int, a mem.Addr) (uint64, uint64) {
	var buf [8]byte
	lat := s.Read(core, a, buf[:])
	var v uint64
	for i := 7; i >= 0; i-- {
		v = v<<8 | uint64(buf[i])
	}
	return v, lat
}

func TestMESIReadWriteRoundTrip(t *testing.T) {
	s, m, _ := testSystem(MESI, 1)
	a := m.Alloc(64, 64)
	write64(s, 0, a, 0xdeadbeef)
	if v, _ := read64(s, 0, a); v != 0xdeadbeef {
		t.Fatalf("read back %#x", v)
	}
	// Another core reads the value through coherence.
	if v, _ := read64(s, 3, a); v != 0xdeadbeef {
		t.Fatalf("remote read %#x", v)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMESIDowngradeAndInvalidateCounts(t *testing.T) {
	s, m, ctr := testSystem(MESI, 1)
	a := m.Alloc(64, 64)
	write64(s, 0, a, 1) // core 0: M
	read64(s, 1, a)     // Fwd-GetS: downgrade core 0 (L1+L2)
	if ctr.Downgrades != 2 {
		t.Fatalf("downgrades = %d, want 2 (L1+L2)", ctr.Downgrades)
	}
	write64(s, 2, a, 2) // GetM: invalidate both sharers
	if ctr.Invalidations != 4 {
		t.Fatalf("invalidations = %d, want 4 (2 sharers x 2 caches)", ctr.Invalidations)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMESIExclusiveGrantOnColdRead(t *testing.T) {
	s, m, _ := testSystem(MESI, 1)
	a := m.Alloc(64, 64)
	read64(s, 0, a)
	l1, _ := s.PrivateCaches()
	if st := l1[0].Peek(a); st != cache.Exclusive {
		t.Fatalf("cold read state = %v, want E", st)
	}
	// A silent E->M upgrade must not need the directory.
	before := s.ctr.DirAccesses
	write64(s, 0, a, 7)
	if s.ctr.DirAccesses != before {
		t.Fatal("silent E->M upgrade went to the directory")
	}
}

func TestWardGrantAvoidsInvalidation(t *testing.T) {
	s, m, ctr := testSystem(WARDen, 1)
	a := m.Alloc(4096, mem.PageSize)
	id, _, ok := s.AddRegion(0, a, a+4096)
	if !ok {
		t.Fatal("AddRegion failed")
	}
	write64(s, 0, a, 1)
	write64(s, 1, a, 2) // same block, second writer: W grant, no invalidation
	write64(s, 2, a+8, 3)
	if ctr.Invalidations != 0 || ctr.Downgrades != 0 {
		t.Fatalf("W-state writes caused inv=%d dg=%d", ctr.Invalidations, ctr.Downgrades)
	}
	if ctr.WardAccesses == 0 {
		t.Fatal("no accesses counted as WARD")
	}
	s.RemoveRegion(0, id)
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestWardWAWReconciliation: apathetic WAW — after reconciliation one of
// the written values persists (deterministically the highest core id's,
// since merges apply in ascending core order).
func TestWardWAWReconciliation(t *testing.T) {
	s, m, _ := testSystem(WARDen, 1)
	a := m.Alloc(4096, mem.PageSize)
	id, _, _ := s.AddRegion(0, a, a+4096)
	write64(s, 0, a, 100)
	write64(s, 1, a, 200)
	write64(s, 3, a, 300)
	s.RemoveRegion(1, id)
	if v, _ := read64(s, 2, a); v != 300 {
		t.Fatalf("after WAW reconcile got %d, want 300 (last core processed)", v)
	}
}

// TestWardFalseSharingMerge: disjoint writes within one block must all
// survive reconciliation (the sectored-cache merge of §5.2/§6.1).
func TestWardFalseSharingMerge(t *testing.T) {
	s, m, ctr := testSystem(WARDen, 1)
	a := m.Alloc(4096, mem.PageSize)
	id, _, _ := s.AddRegion(0, a, a+4096)
	write64(s, 0, a, 11)    // bytes 0-7
	write64(s, 1, a+8, 22)  // bytes 8-15
	write64(s, 2, a+16, 33) // bytes 16-23
	s.RemoveRegion(0, id)
	for i, want := range []uint64{11, 22, 33} {
		if v, _ := read64(s, 3, a+mem.Addr(8*i)); v != want {
			t.Fatalf("slot %d = %d, want %d", i, v, want)
		}
	}
	if ctr.FalseShareMerges == 0 {
		t.Fatal("false-sharing merge not counted")
	}
	if ctr.TrueShareMerges != 0 {
		t.Fatalf("true-share merges = %d, want 0", ctr.TrueShareMerges)
	}
}

// TestWardStalenessIsObservable: a cross-thread RAW inside a WARD region
// returns stale data — the simulator models W-state divergence for real,
// which is exactly why entangled programs must not be WARD-marked.
func TestWardStalenessIsObservable(t *testing.T) {
	s, m, _ := testSystem(WARDen, 1)
	a := m.Alloc(4096, mem.PageSize)
	id, _, _ := s.AddRegion(0, a, a+4096)
	// Core 1 takes a W copy first, then core 0 writes.
	read64(s, 1, a)
	write64(s, 0, a, 42)
	if v, _ := read64(s, 1, a); v != 0 {
		t.Fatalf("WARD-violating read saw %d; wanted stale 0", v)
	}
	// After reconciliation the write is visible.
	s.RemoveRegion(0, id)
	if v, _ := read64(s, 1, a); v != 42 {
		t.Fatalf("post-reconcile read = %d, want 42", v)
	}
}

// TestWardOwnWritesVisible: a thread always observes its own W-state
// writes (read-own-writes within the private copy).
func TestWardOwnWritesVisible(t *testing.T) {
	s, m, _ := testSystem(WARDen, 1)
	a := m.Alloc(4096, mem.PageSize)
	id, _, _ := s.AddRegion(0, a, a+4096)
	write64(s, 2, a+24, 7)
	if v, _ := read64(s, 2, a+24); v != 7 {
		t.Fatalf("own W write invisible: %d", v)
	}
	s.RemoveRegion(0, id)
}

func TestAtomicsBypassWard(t *testing.T) {
	s, m, ctr := testSystem(WARDen, 1)
	a := m.Alloc(4096, mem.PageSize)
	id, _, _ := s.AddRegion(0, a, a+4096)
	write64(s, 0, a, 5) // W state
	old, _ := s.RMW(1, a, 8, func(v uint64) uint64 { return v + 1 })
	// The forced reconcile must have merged core 0's write first.
	if old != 5 {
		t.Fatalf("atomic saw %d, want 5 (reconciled)", old)
	}
	if v, _ := read64(s, 2, a); v != 6 {
		t.Fatalf("after atomic: %d, want 6", v)
	}
	_ = ctr
	s.RemoveRegion(0, id)
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestLegacyMESIUnaffectedByRegionOps(t *testing.T) {
	// Under the MESI protocol, region instructions are no-ops.
	s, m, ctr := testSystem(MESI, 1)
	a := m.Alloc(4096, mem.PageSize)
	id, lat, ok := s.AddRegion(0, a, a+4096)
	if ok || id != NullRegion {
		t.Fatal("MESI machine registered a region")
	}
	if lat > 4 {
		t.Fatalf("MESI AddRegion cost %d cycles", lat)
	}
	write64(s, 0, a, 1)
	write64(s, 1, a, 2)
	if ctr.WardAccesses != 0 {
		t.Fatal("MESI machine recorded WARD accesses")
	}
	s.RemoveRegion(0, id)
}

func TestWardenWithoutRegionsIsMESI(t *testing.T) {
	// A WARDen machine running a program that never registers regions must
	// behave exactly like MESI (legacy support, Fig. 1).
	run := func(proto Protocol) (uint64, stats.Counters) {
		s, m, ctr := testSystem(proto, 2)
		base := m.Alloc(1<<16, mem.PageSize)
		var lat uint64
		for i := 0; i < 2000; i++ {
			c := i % 8
			a := base + mem.Addr((i*104729)%(1<<16-8)&^7)
			if i%3 == 0 {
				lat += write64(s, c, a, uint64(i))
			} else {
				_, l := read64(s, c, a)
				lat += l
			}
		}
		return lat, *ctr
	}
	latM, ctrM := run(MESI)
	latW, ctrW := run(WARDen)
	if latM != latW {
		t.Fatalf("latency differs: MESI %d vs WARDen %d", latM, latW)
	}
	if ctrM != ctrW {
		t.Fatal("counters differ between MESI and region-free WARDen")
	}
}

func TestRegionOverflowFallsBackToMESI(t *testing.T) {
	cfg := topology.XeonGold6126(1)
	cfg.CoresPerSocket = 2
	cfg.WardRegionCapacity = 2
	m := mem.New(0)
	ctr := &stats.Counters{}
	s := NewSystem(cfg, WARDen, m, ctr)
	base := m.AllocPages(4)
	var ids []RegionID
	for i := 0; i < 3; i++ {
		lo := base + mem.Addr(i)*mem.PageSize
		id, _, ok := s.AddRegion(0, lo, lo+mem.PageSize)
		if i < 2 != ok {
			t.Fatalf("region %d: ok=%v", i, ok)
		}
		ids = append(ids, id)
	}
	if ctr.RegionOverflows != 1 {
		t.Fatalf("overflows = %d, want 1", ctr.RegionOverflows)
	}
	// The overflowed page's accesses take MESI paths.
	a := base + 2*mem.PageSize
	write64(s, 0, a, 1)
	write64(s, 1, a, 2)
	if ctr.Invalidations == 0 {
		t.Fatal("expected MESI invalidations for the unmarked page")
	}
	for _, id := range ids {
		s.RemoveRegion(0, id)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestEvictionWritebackAndRefetch(t *testing.T) {
	// Make a tiny L2 so evictions actually happen, then verify modified
	// data survives eviction and re-fetch.
	cfg := topology.XeonGold6126(1)
	cfg.CoresPerSocket = 2
	cfg.L1Size = 1 << 10
	cfg.L2Size = 2 << 10 // 32 blocks
	m := mem.New(0)
	ctr := &stats.Counters{}
	s := NewSystem(cfg, MESI, m, ctr)
	base := m.Alloc(1<<14, mem.PageSize) // 256 blocks: 8x the L2
	for i := 0; i < 256; i++ {
		write64(s, 0, base+mem.Addr(i*64), uint64(i)+1)
	}
	for i := 0; i < 256; i++ {
		if v, _ := read64(s, 0, base+mem.Addr(i*64)); v != uint64(i)+1 {
			t.Fatalf("block %d lost its value: %d", i, v)
		}
	}
	if ctr.Msgs[stats.PutM] == 0 {
		t.Fatal("no PutM writebacks despite capacity evictions")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestWardEvictionFlushesCopy(t *testing.T) {
	cfg := topology.XeonGold6126(1)
	cfg.CoresPerSocket = 2
	cfg.L1Size = 1 << 10
	cfg.L2Size = 2 << 10
	m := mem.New(0)
	ctr := &stats.Counters{}
	s := NewSystem(cfg, WARDen, m, ctr)
	base := m.Alloc(1<<14, mem.PageSize)
	id, _, _ := s.AddRegion(0, base, base+1<<14)
	for i := 0; i < 256; i++ { // far beyond L2: W blocks evict
		write64(s, 0, base+mem.Addr(i*64), uint64(i)+1)
	}
	if ctr.ReconciledBlocks == 0 {
		t.Fatal("expected eviction-time reconcile flushes")
	}
	s.RemoveRegion(0, id)
	for i := 0; i < 256; i++ {
		if v, _ := read64(s, 1, base+mem.Addr(i*64)); v != uint64(i)+1 {
			t.Fatalf("block %d = %d after flush+reconcile", i, v)
		}
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestQuickRandomTrafficInvariants drives random reads/writes/atomics from
// random cores, with and without WARD regions, and checks the protocol
// invariants plus (after a final drain) agreement with a sequential
// reference model. Writes are arranged so that WARD regions only ever see
// disjoint per-core slices (a disentangled access pattern), making the
// reference model exact.
func TestQuickRandomTrafficInvariants(t *testing.T) {
	f := func(seed uint32, ops []uint16) bool {
		s, m, _ := testSystem(WARDen, 2)
		cores := s.Config().Cores()
		base := m.Alloc(1<<14, mem.PageSize)
		ref := make(map[mem.Addr]uint64)

		// One WARD region over the second half; each core owns a disjoint
		// slice of it.
		wardBase := base + 1<<13
		id, _, ok := s.AddRegion(0, wardBase, base+1<<14)
		if !ok {
			return false
		}
		sliceSize := (1 << 13) / cores

		for i, op := range ops {
			c := int(op) % cores
			kind := (int(op) >> 4) % 3
			off := (int(op)*2654435761 + int(seed)) % (1<<13 - 8)
			off &^= 7
			switch kind {
			case 0: // MESI-side write
				a := base + mem.Addr(off)
				v := uint64(i)*2654435761 + 1
				write64(s, c, a, v)
				ref[a] = v
			case 1: // WARD write into the core's own slice
				a := wardBase + mem.Addr(c*sliceSize+off%(sliceSize-8)&^7)
				v := uint64(i)*40503 + 7
				write64(s, c, a, v)
				ref[a] = v
			case 2: // read anywhere in the MESI half
				a := base + mem.Addr(off)
				if v, _ := read64(s, c, a); v != ref[a] {
					t.Logf("MESI read at %#x: got %d want %d", uint64(a), v, ref[a])
					return false
				}
			}
		}
		if err := s.CheckInvariants(); err != nil {
			t.Log(err)
			return false
		}
		s.RemoveRegion(0, id)
		s.DrainAll()
		for a, v := range ref {
			if got := m.ReadUint(a, 8); got != v {
				t.Logf("final memory at %#x: got %d want %d", uint64(a), got, v)
				return false
			}
		}
		return s.CheckInvariants() == nil
	}
	cfg := &quick.Config{MaxCount: 40}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestSectorGranularityValidation(t *testing.T) {
	s, _, _ := testSystem(WARDen, 1)
	for _, bad := range []uint64{0, 3, 128} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SetSectorSize(%d) did not panic", bad)
				}
			}()
			s.SetSectorSize(bad)
		}()
	}
	s.SetSectorSize(8) // word sectoring is fine
}

func TestProtocolString(t *testing.T) {
	if MESI.String() != "MESI" || WARDen.String() != "WARDen" {
		t.Fatal("protocol names wrong")
	}
}
