package core

import (
	"testing"

	"warden/internal/cache"
	"warden/internal/mem"
	"warden/internal/stats"
	"warden/internal/topology"
)

func TestMOESIOwnedStateOnDirtySharing(t *testing.T) {
	s, m, ctr := testSystem(MOESI, 1)
	a := m.Alloc(64, 64)
	write64(s, 0, a, 7) // core 0: M
	read64(s, 1, a)     // MOESI: core 0 -> O (no writeback), core 1 -> S
	l1, _ := s.PrivateCaches()
	if st := l1[0].Peek(a); st != cache.Owned {
		t.Fatalf("dirty sharer state = %v, want O", st)
	}
	if st := l1[1].Peek(a); st != cache.Shared {
		t.Fatalf("reader state = %v, want S", st)
	}
	if ctr.Msgs[stats.DataDir] != 0 {
		t.Fatal("MOESI dirty sharing wrote back to the LLC")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// More readers are served by the owner, still without writebacks.
	read64(s, 2, a)
	read64(s, 3, a)
	if ctr.Msgs[stats.DataDir] != 0 {
		t.Fatal("later readers triggered a writeback")
	}
	if v, _ := read64(s, 3, a); v != 7 {
		t.Fatalf("read %d, want 7", v)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMOESICleanSharingStaysShared(t *testing.T) {
	s, m, _ := testSystem(MOESI, 1)
	a := m.Alloc(64, 64)
	read64(s, 0, a) // E, clean
	read64(s, 1, a) // clean downgrade: plain S/S, no O
	l1, _ := s.PrivateCaches()
	if st := l1[0].Peek(a); st != cache.Shared {
		t.Fatalf("clean ex-owner state = %v, want S", st)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMOESIOwnerUpgradeInvalidatesSharers(t *testing.T) {
	s, m, ctr := testSystem(MOESI, 1)
	a := m.Alloc(64, 64)
	write64(s, 0, a, 1)
	read64(s, 1, a)
	read64(s, 2, a)
	inv := ctr.Invalidations
	write64(s, 0, a, 2) // owner upgrades O -> M: both sharers invalidated
	if got := ctr.Invalidations - inv; got != 4 {
		t.Fatalf("invalidations = %d, want 4 (2 sharers x 2 caches)", got)
	}
	if v, _ := read64(s, 3, a); v != 2 {
		t.Fatalf("read %d, want 2", v)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMOESINonOwnerWriteTakesOwnership(t *testing.T) {
	s, m, _ := testSystem(MOESI, 1)
	a := m.Alloc(64, 64)
	write64(s, 0, a, 1)
	read64(s, 1, a)     // 0: O, 1: S
	write64(s, 2, a, 9) // third core takes M; 0 and 1 invalidated
	l1, _ := s.PrivateCaches()
	if l1[0].Peek(a) != cache.Invalid || l1[1].Peek(a) != cache.Invalid {
		t.Fatal("old holders still valid")
	}
	if st := l1[2].Peek(a); st != cache.Modified {
		t.Fatalf("new owner state = %v, want M", st)
	}
	if v, _ := read64(s, 3, a); v != 9 {
		t.Fatalf("read %d, want 9", v)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMOESIOwnedEvictionWritesBack(t *testing.T) {
	cfg := topology.XeonGold6126(1)
	cfg.CoresPerSocket = 2
	cfg.L1Size = 1 << 10
	cfg.L2Size = 2 << 10
	m := mem.New(0)
	ctr := &stats.Counters{}
	s := NewSystem(cfg, MOESI, m, ctr)
	base := m.Alloc(1<<14, mem.PageSize)
	// Make many O blocks at core 0, then thrash core 0's cache so they
	// evict.
	for i := 0; i < 64; i++ {
		write64(s, 0, base+mem.Addr(i*64), uint64(i)+1)
		read64(s, 1, base+mem.Addr(i*64))
	}
	for i := 64; i < 256; i++ {
		write64(s, 0, base+mem.Addr(i*64), uint64(i)+1)
	}
	if ctr.Msgs[stats.PutM] == 0 {
		t.Fatal("no owned/dirty writebacks despite thrashing")
	}
	for i := 0; i < 256; i++ {
		if v, _ := read64(s, 1, base+mem.Addr(i*64)); v != uint64(i)+1 {
			t.Fatalf("block %d = %d", i, v)
		}
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	s.DrainAll()
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 256; i++ {
		if got := m.ReadUint(base+mem.Addr(i*64), 8); got != uint64(i)+1 {
			t.Fatalf("post-drain block %d = %d", i, got)
		}
	}
}

// TestMOESIMatchesMESIResults: identical programs must compute identical
// memory contents under all three protocols.
func TestMOESIMatchesMESIResults(t *testing.T) {
	final := func(proto Protocol) []uint64 {
		s, m, _ := testSystem(proto, 2)
		base := m.Alloc(1<<13, mem.PageSize)
		for i := 0; i < 3000; i++ {
			c := i % 8
			a := base + mem.Addr((i*2654435761)%(1<<13-8)&^7)
			switch i % 3 {
			case 0:
				write64(s, c, a, uint64(i))
			case 1:
				read64(s, c, a)
			case 2:
				s.RMW(c, a, 8, func(v uint64) uint64 { return v + 1 })
			}
		}
		s.DrainAll()
		out := make([]uint64, 1<<10)
		for i := range out {
			out[i] = m.ReadUint(base+mem.Addr(i*8), 8)
		}
		return out
	}
	mesi := final(MESI)
	moesi := final(MOESI)
	warden := final(WARDen)
	for i := range mesi {
		if mesi[i] != moesi[i] || mesi[i] != warden[i] {
			t.Fatalf("word %d differs: MESI %d, MOESI %d, WARDen %d", i, mesi[i], moesi[i], warden[i])
		}
	}
}
