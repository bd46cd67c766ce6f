package sisd_test

// Verification of the SiSd protocol THROUGH the existing harnesses —
// internal/modelcheck (exhaustive + walks + differential) and the litmus
// suite — without any SiSd-specific code in those packages: everything
// here drives their exported APIs with sisd.Protocol, which is the
// registry's acceptance test for an out-of-core protocol family.

import (
	"fmt"
	"testing"

	"warden/internal/cache"
	"warden/internal/core"
	"warden/internal/mem"
	"warden/internal/modelcheck"
	"warden/internal/modelcheck/litmus"
	"warden/internal/sisd"
	"warden/internal/stats"
	"warden/internal/topology"
)

// fenceAlphabet is the standard free alphabet plus a fence per core, so
// exploration and walks drive the self-invalidation/self-downgrade sweep
// between ordinary accesses.
func fenceAlphabet(cores, blocks int, atomics bool) []modelcheck.Action {
	out := modelcheck.WordAlphabet(cores, blocks, 0, atomics)
	for c := 0; c < cores; c++ {
		out = append(out, modelcheck.Fence(c))
	}
	return out
}

// sisdConfig is the reference exhaustive configuration: 2 cores, one
// tracked block, loads/stores/atomics plus fences.
func sisdConfig(blocks int) modelcheck.Config {
	top := modelcheck.TinyTopology(2, 1, 2)
	return modelcheck.Config{
		Protocol: sisd.Protocol,
		Topology: top,
		Cores:    2,
		Blocks:   modelcheck.DefaultBlocks(blocks, top.BlockSize),
		Alphabet: fenceAlphabet(2, blocks, true),
		MaxDepth: 7,
	}
}

func TestExhaustive(t *testing.T) {
	res, err := modelcheck.Explore(sisdConfig(1))
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	if res.Violation != nil {
		t.Fatalf("violation:\n%s", res.Violation)
	}
	t.Logf("SiSd: %d reachable states, %d transitions, depth %d", res.States, res.Transitions, res.Depth)
	if res.States < 10 {
		t.Fatalf("implausibly small state space: %d states", res.States)
	}
}

// TestExhaustiveTwoBlocksConflict makes every second access evict in the
// single-set L2, driving the silent shared evictions and dirty
// shared-copy writebacks through exploration.
func TestExhaustiveTwoBlocksConflict(t *testing.T) {
	if testing.Short() {
		t.Skip("larger alphabet; covered by the full run and CI")
	}
	cfg := sisdConfig(2)
	cfg.Alphabet = fenceAlphabet(2, 2, false)
	cfg.MaxDepth = 5
	res, err := modelcheck.Explore(cfg)
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	if res.Violation != nil {
		t.Fatalf("violation:\n%s", res.Violation)
	}
	t.Logf("SiSd 2-block: %d reachable states, %d transitions", res.States, res.Transitions)
}

// TestExhaustiveStoreBuffer interleaves store issue and commit, so fences
// run their buffer-drain feasibility gate before the sync sweep.
func TestExhaustiveStoreBuffer(t *testing.T) {
	cfg := sisdConfig(1)
	cfg.StoreBufferDepth = 2
	cfg.MaxDepth = 5
	res, err := modelcheck.Explore(cfg)
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	if res.Violation != nil {
		t.Fatalf("violation:\n%s", res.Violation)
	}
}

// TestLitmusSuite runs every scenario that advertises SiSd (the whole
// registry-driven suite except the MOESI-specific one) under SiSd.
func TestLitmusSuite(t *testing.T) {
	ran := 0
	for _, s := range litmus.Scenarios() {
		covers := false
		for _, p := range s.Protocols {
			if p == sisd.Protocol {
				covers = true
			}
		}
		if !covers {
			continue
		}
		ran++
		s := s
		t.Run(s.Name, func(t *testing.T) {
			res, err := s.Run(sisd.Protocol)
			if err != nil {
				t.Fatal(err)
			}
			if res.Violation != nil {
				t.Fatalf("violation:\n%s", res.Violation)
			}
			t.Logf("%d states, %d transitions", res.States, res.Transitions)
		})
	}
	if ran < 10 {
		t.Fatalf("only %d scenarios advertise SiSd — the registry-driven suite should cover it automatically", ran)
	}
}

// TestWalkClean runs seeded random walks well past the exhaustive depth.
func TestWalkClean(t *testing.T) {
	steps := 400
	if testing.Short() {
		steps = 100
	}
	for seed := int64(1); seed <= 3; seed++ {
		res, err := modelcheck.Walk(sisdConfig(1), seed, steps)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Violation != nil {
			t.Fatalf("seed %d violation:\n%s", seed, res.Violation)
		}
	}
}

// TestDiffWalkAgainstMESI is the observational-equivalence contract: with
// no WARD merges in either execution, every tracked byte must drain to
// the same value under SiSd and MESI.
func TestDiffWalkAgainstMESI(t *testing.T) {
	steps := 300
	seeds := int64(6)
	if testing.Short() {
		steps, seeds = 80, 2
	}
	cfg := sisdConfig(2)
	cfg.Alphabet = fenceAlphabet(2, 2, true)
	for seed := int64(1); seed <= seeds; seed++ {
		res, err := modelcheck.DiffWalk(cfg, sisd.Protocol, core.MESI, seed, steps)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Violation != nil {
			t.Fatalf("seed %d violation:\n%s", seed, res.Violation)
		}
	}
}

// --- direct unit tests of the SiSd-specific arcs ----------------------

// sisdSystem builds a system with a tiny direct-mapped hierarchy (one
// 64-byte block per L2 set, so a and a+512 always conflict).
func sisdSystem() (*core.System, *mem.Memory, *stats.Counters) {
	cfg := topology.XeonGold6126(1)
	cfg.CoresPerSocket = 4
	cfg.L1Size = 4 * 64
	cfg.L1Assoc = 1
	cfg.L2Size = 8 * 64
	cfg.L2Assoc = 1
	m := mem.New(0)
	ctr := &stats.Counters{}
	return core.NewSystem(cfg, sisd.Protocol, m, ctr), m, ctr
}

const conflictStride = 8 * 64

func rd(t *testing.T, s *core.System, c int, a mem.Addr) uint64 {
	t.Helper()
	var buf [8]byte
	s.Read(c, a, buf[:])
	var v uint64
	for i := 7; i >= 0; i-- {
		v = v<<8 | uint64(buf[i])
	}
	return v
}

func wr(s *core.System, c int, a mem.Addr, v uint64) {
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(v >> (8 * i))
	}
	s.Write(c, a, buf[:])
}

// TestSharedWriteSendsNoInvalidations pins the headline behaviour: a
// write to shared-classified data upgrades in place, other holders keep
// their copies, and zero invalidation messages travel.
func TestSharedWriteSendsNoInvalidations(t *testing.T) {
	s, m, ctr := sisdSystem()
	a := m.Alloc(4096, mem.PageSize)
	rd(t, s, 0, a) // private E at core 0
	rd(t, s, 1, a) // second touch: shared classification
	if e, ok := s.DirEntry(a.Block(64)); !ok || e.State != cache.Shared {
		t.Fatalf("after second touch entry = %+v, want Shared", e)
	}

	invs := ctr.Invalidations
	wr(s, 1, a, 42) // silent S→M upgrade, no directory transaction
	if ctr.Invalidations != invs {
		t.Fatalf("shared write sent %d invalidations, want 0", ctr.Invalidations-invs)
	}
	if ctr.Msgs[stats.Inv] != 0 {
		t.Fatalf("Inv messages = %d, want 0", ctr.Msgs[stats.Inv])
	}
	if _, l2 := s.PrivLines(1, a.Block(64)); l2 != cache.Modified {
		t.Fatalf("writer's L2 = %v, want Modified (dirty shared copy)", l2)
	}
	if _, l2 := s.PrivLines(0, a.Block(64)); l2 != cache.Shared {
		t.Fatalf("other holder's L2 = %v, want Shared (kept, stale until its sync)", l2)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSyncPointSweepsSharedLines: a sync point writes dirty shared
// copies back and self-invalidates every shared-classified line, leaving
// private lines alone.
func TestSyncPointSweepsSharedLines(t *testing.T) {
	s, m, ctr := sisdSystem()
	a := m.Alloc(4096, mem.PageSize)
	b := a + 64 // different L2 set from a (direct-mapped): no conflict
	rd(t, s, 0, a)
	rd(t, s, 1, a) // a: shared-classified at both cores
	wr(s, 1, a, 7) // dirty shared copy at core 1
	wr(s, 1, b, 9) // b: private M at core 1 — must survive the sync

	wbs := ctr.Msgs[stats.DataDir]
	if lat := s.SyncPoint(1); lat == 0 {
		t.Fatal("sync with shared lines should cost cycles")
	}
	if ctr.Msgs[stats.DataDir] != wbs+1 {
		t.Fatalf("DataDir after sync = %d, want %d (self-downgrade writeback)", ctr.Msgs[stats.DataDir], wbs+1)
	}
	if _, l2 := s.PrivLines(1, a.Block(64)); l2 != cache.Invalid {
		t.Fatalf("shared line after own sync = %v, want Invalid (self-invalidated)", l2)
	}
	if _, l2 := s.PrivLines(1, b.Block(64)); l2 != cache.Modified {
		t.Fatalf("private line after sync = %v, want Modified (untouched)", l2)
	}
	if _, l2 := s.PrivLines(0, a.Block(64)); l2 != cache.Shared {
		t.Fatalf("other core's line after core 1's sync = %v, want Shared", l2)
	}
	if got := rd(t, s, 0, a); got != 7 {
		t.Fatalf("value visible after writer's sync = %d, want 7", got)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCleanSharedEvictionIsSilent: evicting a clean shared copy sends no
// message at all (no PutS), unlike MESI.
func TestCleanSharedEvictionIsSilent(t *testing.T) {
	s, m, ctr := sisdSystem()
	a := m.Alloc(4096, mem.PageSize)
	rd(t, s, 0, a)
	rd(t, s, 1, a) // shared classification
	var before, d stats.Snapshot
	ctr.SnapInto(&before)
	rd(t, s, 0, a+conflictStride) // conflicts: core 0 evicts its clean S copy
	ctr.DeltaInto(&d, &before)
	if d.Msgs[stats.PutS] != 0 {
		t.Fatalf("PutS on clean shared eviction = %d, want 0 (silent)", d.Msgs[stats.PutS])
	}
	e, ok := s.DirEntry(a.Block(64))
	if !ok || e.State != cache.Shared || e.Sharers.Has(0) || !e.Sharers.Has(1) {
		t.Fatalf("entry after silent eviction = %+v ok=%v, want Shared held by core 1 only", e, ok)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestDirtySharedEvictionWritesBack: a dirty shared copy discharges its
// writeback obligation when evicted.
func TestDirtySharedEvictionWritesBack(t *testing.T) {
	s, m, ctr := sisdSystem()
	a := m.Alloc(4096, mem.PageSize)
	rd(t, s, 0, a)
	rd(t, s, 1, a)
	wr(s, 0, a, 1234) // dirty shared copy at core 0
	var before, d stats.Snapshot
	ctr.SnapInto(&before)
	rd(t, s, 0, a+conflictStride) // evicts it
	ctr.DeltaInto(&d, &before)
	if d.Msgs[stats.DataDir] != 1 {
		t.Fatalf("DataDir on dirty shared eviction = %d, want 1", d.Msgs[stats.DataDir])
	}
	if got := rd(t, s, 2, a); got != 1234 {
		t.Fatalf("value after dirty shared eviction = %d", got)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestAtomicSyncsAndRecoversExclusivity: an atomic on shared-classified
// data first runs the issuing core's sync sweep; an atomic on another
// core's private block recovers exclusivity with a single directed
// invalidation.
func TestAtomicSyncsAndRecoversExclusivity(t *testing.T) {
	s, m, _ := sisdSystem()
	a := m.Alloc(4096, mem.PageSize)
	wr(s, 0, a, 5) // private M at core 0
	old, _ := s.RMW(1, a, 8, func(v uint64) uint64 { return v + 1 })
	if old != 5 {
		t.Fatalf("RMW old = %d, want 5", old)
	}
	e, ok := s.DirEntry(a.Block(64))
	if !ok || e.State != cache.Exclusive || e.Owner != 1 {
		t.Fatalf("entry after atomic = %+v, want Exclusive owned by core 1", e)
	}
	if _, l2 := s.PrivLines(0, a.Block(64)); l2 != cache.Invalid {
		t.Fatalf("previous owner after atomic = %v, want Invalid", l2)
	}
	if got := rd(t, s, 2, a); got != 6 {
		t.Fatalf("value after atomic = %d, want 6", got)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestDrainDischargesObligations: DrainAll writes back dirty private and
// dirty shared copies, after which the canonical store and a fresh
// invariant sweep agree.
func TestDrainDischargesObligations(t *testing.T) {
	s, m, ctr := sisdSystem()
	a := m.Alloc(4096, mem.PageSize)
	b := a + 64 // different L2 set from a: no conflict evictions
	rd(t, s, 0, a)
	rd(t, s, 1, a)
	wr(s, 0, a, 11) // dirty shared copy
	wr(s, 1, b, 22) // dirty private copy
	var before, d stats.Snapshot
	ctr.SnapInto(&before)
	s.DrainAll()
	ctr.DeltaInto(&d, &before)
	if d.Msgs[stats.DataDir] != 2 {
		t.Fatalf("DataDir during drain = %d, want 2", d.Msgs[stats.DataDir])
	}
	if m.ReadUint(a, 8) != 11 || m.ReadUint(b, 8) != 22 {
		t.Fatalf("memory after drain = %d/%d, want 11/22", m.ReadUint(a, 8), m.ReadUint(b, 8))
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Drain must be idempotent.
	ctr.SnapInto(&before)
	s.DrainAll()
	if ctr.DeltaInto(&d, &before); d.Msgs[stats.DataDir] != 0 {
		t.Fatalf("second drain wrote back %d blocks, want 0", d.Msgs[stats.DataDir])
	}
}

// TestRegistration pins the registry contract for an out-of-core
// protocol: resolvable by name, case-insensitively, with sync fences.
func TestRegistration(t *testing.T) {
	p, ok := core.Lookup("sisd")
	if !ok || p != sisd.Protocol {
		t.Fatalf("Lookup(sisd) = %v, %v", p, ok)
	}
	if got := fmt.Sprint(sisd.Protocol); got != "SiSd" {
		t.Fatalf("display name = %q, want SiSd", got)
	}
	if !core.Describe(sisd.Protocol).SyncFences {
		t.Fatal("SiSd must mark fences as synchronization points")
	}
}
