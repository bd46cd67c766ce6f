// Package cache models set-associative cache tag arrays with LRU
// replacement, per-block coherence state, and byte-sectored write masks.
//
// The package is mechanism only: it answers "is this block here, in what
// state, and what gets evicted if I insert" while the coherence protocol
// (internal/coherence, internal/core) decides what those events mean. Block
// *data* is not stored here — canonical data lives in internal/mem, and
// WARD-state private copies live in the protocol layer — so the tag arrays
// stay cheap even for large simulated footprints.
package cache

import (
	"fmt"
	"math/bits"
	"sort"

	"warden/internal/mem"
)

// State is a coherence state as tracked by a cache line or directory entry.
// It covers the classic MESI states (Nagarajan et al.) plus the WARD state W
// introduced by the WARDen protocol (§5.1 of the paper).
type State uint8

const (
	// Invalid: the block is not present (or present but unusable).
	Invalid State = iota
	// Shared: read-only copy; other caches may also hold copies.
	Shared
	// Owned: dirty but shared — this cache sources the data for readers
	// instead of writing it back (the MOESI baseline's O state).
	Owned
	// Exclusive: the only copy, clean.
	Exclusive
	// Modified: the only copy, dirty.
	Modified
	// Ward: coherence is disabled for this block; the holder may read and
	// write a private copy without notifying anyone until reconciliation.
	Ward
)

// String returns the conventional one-letter name of the state.
func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Owned:
		return "O"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	case Ward:
		return "W"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// SectorMask records which sectors of a block have been written while the
// block was in the WARD state. With byte sectoring on 64-byte blocks (§6.1)
// each bit covers one byte.
type SectorMask uint64

// Set marks sectors [lo, lo+n) as written.
func (m SectorMask) Set(lo, n uint) SectorMask {
	if n >= 64 {
		return ^SectorMask(0)
	}
	return m | SectorMask((uint64(1)<<n)-1)<<lo
}

// Has reports whether sector i is marked written.
func (m SectorMask) Has(i uint) bool { return m&(1<<i) != 0 }

// Count returns the number of written sectors.
func (m SectorMask) Count() int { return bits.OnesCount64(uint64(m)) }

// Overlaps reports whether two masks mark any common sector.
func (m SectorMask) Overlaps(o SectorMask) bool { return m&o != 0 }

// Line is one valid cache line as ForEach and Recency report it. (W-state
// write masks live with the private block copies in internal/core, not in
// the tag array.)
type Line struct {
	Addr  mem.Addr // block-aligned address
	State State
}

// Eviction describes a block displaced by an insertion.
type Eviction struct {
	Addr  mem.Addr
	State State
}

// stateMask selects a packed tag's state bits. Tags pack a block-aligned
// address with its state as block|state, so blocks must be at least
// stateMask+1 bytes; a way is valid iff its state bits are nonzero, and
// invalid ways hold 0.
const stateMask = 7

// Cache is a set-associative tag array. Create with New.
//
// The tags of set s are tags[s*assoc : (s+1)*assoc]; lru holds each way's
// last-touch stamp in the same layout. Lookup scans a set's packed tags
// alone, so a hit costs one compare per way.
type Cache struct {
	name       string
	blockSize  uint64
	blockShift uint   // log2(blockSize)
	setMask    uint64 // numSets-1
	assoc      int
	tags       []uint64 // block|state per way, 0 = invalid
	lru        []uint64 // last-touch stamp per way
	tick       uint64   // global LRU clock

	// Counters maintained for the evaluation (Figs. 9 and 10 count
	// invalidations and downgrades per cache).
	Invalidations uint64
	Downgrades    uint64
	Hits          uint64
	Misses        uint64
	Evictions     uint64
}

// New returns a cache with the given total size, associativity and block
// size. size must be divisible by assoc*blockSize, and blockSize must be a
// power of two of at least 8 bytes. A set count that is not a power of two
// is rounded down to the next lower power of two.
func New(name string, size uint64, assoc int, blockSize uint64) *Cache {
	if assoc <= 0 || blockSize <= stateMask || blockSize&(blockSize-1) != 0 {
		panic(fmt.Sprintf("cache %s: bad geometry assoc=%d block=%d", name, assoc, blockSize))
	}
	if size%(uint64(assoc)*blockSize) != 0 {
		panic(fmt.Sprintf("cache %s: size %d not divisible by assoc*block", name, size))
	}
	numSets := size / (uint64(assoc) * blockSize)
	if numSets&(numSets-1) != 0 {
		// Round down to a power of two; exotic set counts (e.g. 20-way LLC
		// slices) still work, just with a power-of-two index.
		numSets = uint64(1) << (bits.Len64(numSets) - 1)
	}
	ways := numSets * uint64(assoc)
	return &Cache{
		name:       name,
		blockSize:  blockSize,
		blockShift: uint(bits.TrailingZeros64(blockSize)),
		setMask:    numSets - 1,
		assoc:      assoc,
		tags:       make([]uint64, ways),
		lru:        make([]uint64, ways),
	}
}

// Name returns the cache's diagnostic name (e.g. "L1-3").
func (c *Cache) Name() string { return c.name }

// BlockSize returns the cache's block size in bytes.
func (c *Cache) BlockSize() uint64 { return c.blockSize }

// locate returns addr's block-aligned address and the index of the first
// way of its set.
func (c *Cache) locate(addr mem.Addr) (block uint64, base int) {
	block = uint64(addr) &^ (c.blockSize - 1)
	return block, int((block>>c.blockShift)&c.setMask) * c.assoc
}

// holds reports whether tag t holds block: t^block is then a nonzero state
// (1..stateMask), while any other block differs above the state bits and
// an invalid way is 0.
func holds(t, block uint64) bool { return (t^block)-1 < stateMask }

// find returns the way holding block in the set starting at base, or -1.
func (c *Cache) find(block uint64, base int) int {
	for i, t := range c.tags[base : base+c.assoc] {
		if holds(t, block) {
			return base + i
		}
	}
	return -1
}

// Lookup returns the state of addr's block, or Invalid if it is not
// present. The LRU clock is touched on hit.
func (c *Cache) Lookup(addr mem.Addr) State {
	block, base := c.locate(addr)
	for i, t := range c.tags[base : base+c.assoc] {
		if holds(t, block) {
			c.tick++
			c.lru[base+i] = c.tick
			return State(t & stateMask)
		}
	}
	return Invalid
}

// Peek is Lookup without touching LRU state or counters; for assertions and
// protocol bookkeeping.
func (c *Cache) Peek(addr mem.Addr) State {
	block, base := c.locate(addr)
	for _, t := range c.tags[base : base+c.assoc] {
		if holds(t, block) {
			return State(t & stateMask)
		}
	}
	return Invalid
}

// SetState changes the state of addr's block, if present, without touching
// LRU state, and reports whether it was present. Setting Invalid removes
// the block, as Invalidate does.
func (c *Cache) SetState(addr mem.Addr, st State) bool {
	block, base := c.locate(addr)
	w := c.find(block, base)
	if w < 0 {
		return false
	}
	c.tags[w] = pack(block, st)
	return true
}

// pack builds the tag of block in state st (0 when st is Invalid).
func pack(block uint64, st State) uint64 {
	if st == Invalid {
		return 0
	}
	return block | uint64(st)
}

// Insert places addr's block in the cache with the given state, evicting the
// LRU valid line of the set if it is full. It returns the eviction (if any)
// so the protocol can write back or reconcile the victim. Inserting a block
// that is already present just updates its state (and touches its LRU
// stamp, as Lookup does).
func (c *Cache) Insert(addr mem.Addr, st State) (Eviction, bool) {
	block, base := c.locate(addr)
	c.tick++
	// One pass finds the block or, failing that, the first invalid way.
	set := c.tags[base : base+c.assoc]
	victim := -1
	for i, t := range set {
		if holds(t, block) {
			set[i] = pack(block, st)
			c.lru[base+i] = c.tick
			return Eviction{}, false
		}
		if t == 0 && victim < 0 {
			victim = i
		}
	}
	// Victim: the first invalid way, else the least recently used.
	var ev Eviction
	evicted := false
	if victim < 0 {
		lru := c.lru[base : base+c.assoc]
		victim = 0
		for i := 1; i < len(lru); i++ {
			if lru[i] < lru[victim] {
				victim = i
			}
		}
		ev = Eviction(line(set[victim]))
		evicted = true
		c.Evictions++
	}
	set[victim] = pack(block, st)
	c.lru[base+victim] = c.tick
	return ev, evicted
}

// Invalidate removes addr's block, returning its prior state. The caller
// decides whether this counts as a coherence invalidation (counted via
// CountInvalidation) or a silent drop.
func (c *Cache) Invalidate(addr mem.Addr) State {
	w := c.find(c.locate(addr))
	if w < 0 {
		return Invalid
	}
	st := State(c.tags[w] & stateMask)
	c.tags[w], c.lru[w] = 0, 0
	return st
}

// CountInvalidation records a coherence-driven invalidation at this cache.
func (c *Cache) CountInvalidation() { c.Invalidations++ }

// CountDowngrade records a coherence-driven downgrade (M/E -> S) at this
// cache.
func (c *Cache) CountDowngrade() { c.Downgrades++ }

// line unpacks a valid tag.
func line(t uint64) Line {
	return Line{Addr: mem.Addr(t &^ stateMask), State: State(t & stateMask)}
}

// ForEach calls fn for every valid line. Iteration order is deterministic
// (set-major, then way order). fn must not insert or invalidate lines.
func (c *Cache) ForEach(fn func(Line)) {
	for _, t := range c.tags {
		if t != 0 {
			fn(line(t))
		}
	}
}

// Recency returns every valid line, set-major with each set's lines ordered
// most-recently-used first. The absolute LRU clock is not included: two
// caches with equal Recency respond identically to any future access
// sequence, which is exactly the replacement-relevant state canonical
// hashing needs (internal/modelcheck).
func (c *Cache) Recency() []Line {
	out := make([]Line, 0, c.assoc)
	ways := make([]int, 0, c.assoc)
	for base := 0; base < len(c.tags); base += c.assoc {
		ways = ways[:0]
		for w := base; w < base+c.assoc; w++ {
			if c.tags[w] != 0 {
				ways = append(ways, w)
			}
		}
		// Stamps of valid ways are distinct, so the order is total.
		sort.Slice(ways, func(i, j int) bool { return c.lru[ways[i]] > c.lru[ways[j]] })
		for _, w := range ways {
			out = append(out, line(c.tags[w]))
		}
	}
	return out
}

// ValidLines reports the number of valid lines, for occupancy assertions.
func (c *Cache) ValidLines() int {
	n := 0
	for _, t := range c.tags {
		if t != 0 {
			n++
		}
	}
	return n
}

// Reset invalidates every line and clears counters.
func (c *Cache) Reset() {
	clear(c.tags)
	clear(c.lru)
	c.tick = 0
	c.Invalidations, c.Downgrades, c.Hits, c.Misses, c.Evictions = 0, 0, 0, 0, 0
}
