package cache

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"warden/internal/mem"
)

func small() *Cache { return New("t", 1024, 2, 64) } // 8 sets, 2-way

func TestStateString(t *testing.T) {
	for st, want := range map[State]string{
		Invalid: "I", Shared: "S", Exclusive: "E", Modified: "M", Ward: "W",
	} {
		if st.String() != want {
			t.Errorf("%d.String() = %q, want %q", st, st.String(), want)
		}
	}
}

func TestInsertLookup(t *testing.T) {
	c := small()
	if _, ev := c.Insert(0x1000, Exclusive); ev {
		t.Fatal("insert into empty cache evicted")
	}
	if st := c.Lookup(0x1000); st != Exclusive {
		t.Fatalf("lookup after insert: %v", st)
	}
	if lines := c.Recency(); len(lines) != 1 || lines[0] != (Line{Addr: 0x1000, State: Exclusive}) {
		t.Fatalf("lines after insert: %+v", lines)
	}
	if c.Lookup(0x1040) != Invalid {
		t.Fatal("lookup of absent block succeeded")
	}
	// Sub-block addresses resolve to the containing block.
	if c.Lookup(0x103f) == Invalid {
		t.Fatal("lookup within the block failed")
	}
}

func TestInsertExistingUpdatesState(t *testing.T) {
	c := small()
	c.Insert(0x1000, Shared)
	c.Insert(0x1000, Modified)
	if c.ValidLines() != 1 {
		t.Fatalf("duplicate insert created %d lines", c.ValidLines())
	}
	if st := c.Peek(0x1000); st != Modified {
		t.Fatalf("state = %v, want M", st)
	}
}

func TestLRUEviction(t *testing.T) {
	c := small()
	// Three blocks mapping to the same set (set index = bits above block
	// offset, 8 sets): addresses 64*setCount apart collide.
	const stride = 64 * 8
	a, b, d := mem.Addr(0), mem.Addr(stride), mem.Addr(2*stride)
	c.Insert(a, Shared)
	c.Insert(b, Shared)
	c.Lookup(a) // make b the LRU
	ev, evicted := c.Insert(d, Shared)
	if !evicted {
		t.Fatal("third insert into 2-way set did not evict")
	}
	if ev.Addr != b {
		t.Fatalf("evicted %#x, want %#x (LRU)", uint64(ev.Addr), uint64(b))
	}
	if c.Peek(a) == Invalid || c.Peek(d) == Invalid || c.Peek(b) != Invalid {
		t.Fatal("post-eviction contents wrong")
	}
}

func TestInvalidate(t *testing.T) {
	c := small()
	c.Insert(0x40, Modified)
	st := c.Invalidate(0x40)
	if st != Modified {
		t.Fatalf("invalidate returned %v, want M", st)
	}
	if c.Peek(0x40) != Invalid {
		t.Fatal("block still present after invalidate")
	}
	if st := c.Invalidate(0x40); st != Invalid {
		t.Fatal("double invalidate found a block")
	}
}

func TestCounters(t *testing.T) {
	c := small()
	c.CountInvalidation()
	c.CountDowngrade()
	c.CountDowngrade()
	if c.Invalidations != 1 || c.Downgrades != 2 {
		t.Fatalf("counters: inv=%d dg=%d", c.Invalidations, c.Downgrades)
	}
	c.Reset()
	if c.Invalidations != 0 || c.ValidLines() != 0 {
		t.Fatal("reset incomplete")
	}
}

func TestSectorMask(t *testing.T) {
	var m SectorMask
	m = m.Set(3, 2)
	if !m.Has(3) || !m.Has(4) || m.Has(2) || m.Has(5) {
		t.Fatalf("mask after Set(3,2): %b", m)
	}
	if m.Count() != 2 {
		t.Fatalf("count = %d, want 2", m.Count())
	}
	if m.Overlaps(SectorMask(0).Set(5, 1)) {
		t.Fatal("disjoint masks reported overlapping")
	}
	if !m.Overlaps(SectorMask(0).Set(4, 3)) {
		t.Fatal("overlapping masks reported disjoint")
	}
	if full := SectorMask(0).Set(0, 64); full != ^SectorMask(0) {
		t.Fatalf("full mask = %b", full)
	}
	if full := SectorMask(0).Set(0, 100); full != ^SectorMask(0) {
		t.Fatal("oversized Set must saturate")
	}
}

func TestQuickSectorMaskSetHas(t *testing.T) {
	f := func(lo8, n8 uint8) bool {
		lo, n := uint(lo8%64), uint(n8%16)
		m := SectorMask(0).Set(lo, n)
		for i := uint(0); i < 64; i++ {
			want := i >= lo && i < lo+n
			if m.Has(i) != want {
				return false
			}
		}
		return m.Count() == int(minu(n, 64-lo))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func minu(a, b uint) uint {
	if a < b {
		return a
	}
	return b
}

// TestQuickCacheNeverExceedsCapacity inserts random blocks and checks the
// structural invariants: per-set occupancy never exceeds associativity, and
// a just-inserted block is always present.
func TestQuickCacheNeverExceedsCapacity(t *testing.T) {
	c := New("q", 4096, 4, 64) // 16 sets, 4-way
	f := func(addrs []uint32) bool {
		for _, a := range addrs {
			block := mem.Addr(a) &^ 63
			c.Insert(block, Shared)
			if c.Peek(block) == Invalid {
				return false
			}
		}
		return c.ValidLines() <= 16*4
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestForEachDeterministic(t *testing.T) {
	c := small()
	c.Insert(0x40, Shared)
	c.Insert(0x80, Modified)
	c.Insert(0xc0, Exclusive)
	var order1, order2 []mem.Addr
	c.ForEach(func(ln Line) { order1 = append(order1, ln.Addr) })
	c.ForEach(func(ln Line) { order2 = append(order2, ln.Addr) })
	if len(order1) != 3 || len(order1) != len(order2) {
		t.Fatalf("ForEach visited %d/%d lines", len(order1), len(order2))
	}
	for i := range order1 {
		if order1[i] != order2[i] {
			t.Fatal("ForEach order not deterministic")
		}
	}
}

func TestBadGeometryPanics(t *testing.T) {
	for _, tc := range []struct {
		size  uint64
		assoc int
		block uint64
	}{
		{1000, 2, 64}, // size not divisible
		{1024, 0, 64}, // zero assoc
		{1024, 2, 48}, // non-power-of-two block
		{1024, 2, 4},  // block too small to pack a state into its tag
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d,%d,%d) did not panic", tc.size, tc.assoc, tc.block)
				}
			}()
			New("bad", tc.size, tc.assoc, tc.block)
		}()
	}
}

// refCache is the reference model the packed Cache is checked against: the
// original array-of-structs tag store, one refLine per way with its own LRU
// stamp, indexed by division. It is deliberately naive.
type refCache struct {
	blockSize uint64
	numSets   uint64
	assoc     int
	sets      []refLine
	tick      uint64

	Invalidations, Downgrades, Hits, Misses, Evictions uint64
}

type refLine struct {
	Addr  mem.Addr
	State State
	lru   uint64
}

func newRef(size uint64, assoc int, blockSize uint64) *refCache {
	numSets := size / (uint64(assoc) * blockSize)
	for numSets&(numSets-1) != 0 {
		numSets &= numSets - 1 // New's round-down to a power of two
	}
	return &refCache{blockSize: blockSize, numSets: numSets, assoc: assoc, sets: make([]refLine, numSets*uint64(assoc))}
}

func (c *refCache) setOf(addr mem.Addr) []refLine {
	idx := (uint64(addr) / c.blockSize) % c.numSets
	return c.sets[idx*uint64(c.assoc) : (idx+1)*uint64(c.assoc)]
}

func (c *refCache) Peek(addr mem.Addr) *refLine {
	block := addr.Block(c.blockSize)
	set := c.setOf(block)
	for i := range set {
		if set[i].State != Invalid && set[i].Addr == block {
			return &set[i]
		}
	}
	return nil
}

func (c *refCache) Lookup(addr mem.Addr) *refLine {
	ln := c.Peek(addr)
	if ln != nil {
		c.tick++
		ln.lru = c.tick
	}
	return ln
}

func (c *refCache) Insert(addr mem.Addr, st State) (Eviction, bool) {
	block := addr.Block(c.blockSize)
	if ln := c.Lookup(block); ln != nil {
		ln.State = st
		return Eviction{}, false
	}
	set := c.setOf(block)
	victim := -1
	for i := range set {
		if set[i].State == Invalid {
			victim = i
			break
		}
	}
	var ev Eviction
	evicted := false
	if victim < 0 {
		victim = 0
		for i := 1; i < len(set); i++ {
			if set[i].lru < set[victim].lru {
				victim = i
			}
		}
		ev = Eviction{Addr: set[victim].Addr, State: set[victim].State}
		evicted = true
		c.Evictions++
	}
	c.tick++
	set[victim] = refLine{Addr: block, State: st, lru: c.tick}
	return ev, evicted
}

func (c *refCache) Invalidate(addr mem.Addr) State {
	if ln := c.Peek(addr); ln != nil {
		st := ln.State
		*ln = refLine{}
		return st
	}
	return Invalid
}

func (c *refCache) SetState(addr mem.Addr, st State) bool {
	ln := c.Peek(addr)
	if ln != nil {
		ln.State = st
	}
	return ln != nil
}

func (c *refCache) lines() []Line {
	var out []Line
	for _, ln := range c.sets {
		if ln.State != Invalid {
			out = append(out, Line{Addr: ln.Addr, State: ln.State})
		}
	}
	return out
}

func (c *refCache) Recency() []Line {
	var out []Line
	for s := uint64(0); s < c.numSets; s++ {
		set := append([]refLine(nil), c.sets[s*uint64(c.assoc):(s+1)*uint64(c.assoc)]...)
		sort.Slice(set, func(i, j int) bool { return set[i].lru > set[j].lru })
		for _, ln := range set {
			if ln.State != Invalid {
				out = append(out, Line{Addr: ln.Addr, State: ln.State})
			}
		}
	}
	return out
}

func stateOf(ln *refLine) State {
	if ln == nil {
		return Invalid
	}
	return ln.State
}

// TestMatchesReferenceModel drives the packed cache and the reference model
// with the same seeded random operation sequences and requires identical
// observable behaviour after every step: return values, evictions,
// counters, occupancy, ForEach's set-major way order (which exposes the
// way an insert fills) and Recency (which exposes LRU order). Each stream
// resets both caches halfway through. Geometries of 64 sets or more walk
// the whole cache every 8th step rather than every step, to keep the test
// fast.
//
// The small geometries are one chunk. The larger ones span 16 chunks, one
// of them 20-way with a set count New rounds down, as the L3's is. Their
// strided pools draw blocks from a few sets spread over the index space,
// including the first and last set, so most chunks are never filled and
// the walks must skip them, while those few sets fill and evict.
func TestMatchesReferenceModel(t *testing.T) {
	for _, g := range []struct {
		label   string
		size    uint64
		assoc   int
		strided bool
	}{
		{"1way", 512, 1, false},                            // direct-mapped, 8 sets
		{"2way", 1024, 2, false},                           // 8 sets
		{"8way", 2048, 8, false},                           // 4 sets
		{"64sets-2way", 64 * 2 * 64, 2, false},             // one chunk
		{"1024sets-4way", 1024 * 4 * 64, 4, false},         // 16 chunks of 64 sets
		{"1024sets-4way-strided", 1024 * 4 * 64, 4, true},  // the same, mostly unfilled
		{"256sets-20way-strided", 384 * 20 * 64, 20, true}, // 384 sets rounded down; 16 chunks of 16
	} {
		for seed := int64(1); seed <= 4; seed++ {
			name := fmt.Sprintf("%s/seed%d", g.label, seed)
			t.Run(name, func(t *testing.T) {
				c := New(name, g.size, g.assoc, 64)
				ref := newRef(g.size, g.assoc, 64)
				if g.strided && c.numChunks < 8 {
					t.Fatalf("%d chunks: too few to leave most unfilled", c.numChunks)
				}
				rng := rand.New(rand.NewSource(seed))
				// A dense pool is a few times the capacity, so sets fill,
				// evict and re-hit. A strided pool takes 2*assoc+1 blocks
				// in each of a few sets, so those sets evict. Offsets
				// within a block exercise alignment.
				capacity := int(g.size / 64)
				sets := int(ref.numSets)
				hot := []int{0, sets / 3, sets/2 + 5, sets - 1}
				addr := func() mem.Addr {
					b := rng.Intn(3 * capacity)
					if g.strided {
						b = hot[rng.Intn(len(hot))] + sets*rng.Intn(2*g.assoc+1)
					}
					return mem.Addr(b)*64 + mem.Addr(rng.Intn(64))
				}
				state := func() State { return State(1 + rng.Intn(int(Ward))) }
				for step := 0; step < 4000; step++ {
					if step == 2000 {
						c.Reset()
						ref = newRef(g.size, g.assoc, 64)
					}
					a := addr()
					var op string
					switch r := rng.Intn(10); {
					case r < 3:
						op = "Lookup"
						if got, want := c.Lookup(a), stateOf(ref.Lookup(a)); got != want {
							t.Fatalf("step %d: Lookup(%#x) = %v, want %v", step, uint64(a), got, want)
						}
					case r < 4:
						op = "Peek"
						if got, want := c.Peek(a), stateOf(ref.Peek(a)); got != want {
							t.Fatalf("step %d: Peek(%#x) = %v, want %v", step, uint64(a), got, want)
						}
					case r < 7:
						op = "Insert"
						st := state()
						ev, ok := c.Insert(a, st)
						wev, wok := ref.Insert(a, st)
						if ev != wev || ok != wok {
							t.Fatalf("step %d: Insert(%#x, %v) = %+v %v, want %+v %v", step, uint64(a), st, ev, ok, wev, wok)
						}
					case r < 8:
						op = "Invalidate"
						if got, want := c.Invalidate(a), ref.Invalidate(a); got != want {
							t.Fatalf("step %d: Invalidate(%#x) = %v, want %v", step, uint64(a), got, want)
						}
					default:
						op = "SetState"
						st := state()
						if got, want := c.SetState(a, st), ref.SetState(a, st); got != want {
							t.Fatalf("step %d: SetState(%#x, %v) = %v, want %v", step, uint64(a), st, got, want)
						}
					}
					if sets >= 64 && step%8 != 7 {
						continue
					}
					if c.Evictions != ref.Evictions || c.Hits != ref.Hits || c.Misses != ref.Misses ||
						c.Invalidations != ref.Invalidations || c.Downgrades != ref.Downgrades {
						t.Fatalf("step %d (%s): counters diverge", step, op)
					}
					var lines []Line
					c.ForEach(func(ln Line) { lines = append(lines, ln) })
					if want := ref.lines(); !slices.Equal(lines, want) {
						t.Fatalf("step %d (%s): ForEach = %v, want %v", step, op, lines, want)
					}
					if got, want := c.ValidLines(), len(lines); got != want {
						t.Fatalf("step %d (%s): ValidLines = %d, want %d", step, op, got, want)
					}
					if got, want := c.Recency(), ref.Recency(); !slices.Equal(got, want) {
						t.Fatalf("step %d (%s): Recency = %v, want %v", step, op, got, want)
					}
				}
				if g.strided && filledChunks(c) == c.numChunks {
					t.Fatalf("strided pool filled all %d chunks", c.numChunks)
				}
			})
		}
	}
	if w, ok := zeroesIntact(); !ok {
		t.Fatalf("shared zero storage written: word %d is %#x", w, zeroes.words[w])
	}
}

// filledChunks counts c's chunks that have storage of their own.
func filledChunks(c *Cache) int {
	n := 0
	for k := range c.numChunks {
		if c.isFilled(k) {
			n++
		}
	}
	return n
}

// zeroesIntact reports whether the shared zero storage is still all
// zeroes, and otherwise the first word that is not.
func zeroesIntact() (int, bool) {
	zeroes.Lock()
	defer zeroes.Unlock()
	for i, w := range zeroes.words {
		if w != 0 {
			return i, false
		}
	}
	return 0, true
}

// TestUnfilledSetsCostNothing: a cache of the L3's geometry allocates no
// chunk at New, and Lookup, Peek, Invalidate and SetState on a set that
// was never filled allocate nothing, find nothing, fill no chunk and leave
// the shared zero storage untouched, also beside a filled chunk.
func TestUnfilledSetsCostNothing(t *testing.T) {
	c := New("L3", 30<<20, 20, 64) // 24576 sets rounded down to 16384
	if n := filledChunks(c); n != 0 {
		t.Fatalf("New filled %d chunks", n)
	}
	c.Insert(0, Modified)
	a := mem.Addr(8192 * 64) // set 8192: chunk numChunks/2, never filled
	for op, fn := range map[string]func(){
		"Lookup": func() {
			if c.Lookup(a) != Invalid {
				t.Error("Lookup found a block in an unfilled set")
			}
		},
		"Peek": func() {
			if c.Peek(a) != Invalid {
				t.Error("Peek found a block in an unfilled set")
			}
		},
		"Invalidate": func() {
			if c.Invalidate(a) != Invalid {
				t.Error("Invalidate found a block in an unfilled set")
			}
		},
		"SetState": func() {
			if c.SetState(a, Modified) {
				t.Error("SetState found a block in an unfilled set")
			}
		},
	} {
		if n := testing.AllocsPerRun(100, fn); n != 0 {
			t.Errorf("%s on an unfilled set: %v allocs/op", op, n)
		}
	}
	if n := filledChunks(c); n != 1 {
		t.Errorf("%d chunks filled, want 1", n)
	}
	if w, ok := zeroesIntact(); !ok {
		t.Fatalf("shared zero storage written: word %d is %#x", w, zeroes.words[w])
	}
}
