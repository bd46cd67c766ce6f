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
	"sync"

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

// stateMask selects a packed tag's state bits. A tag packs a block's
// number (its address >> blockShift) with its state as number<<3|state,
// so the block number compared against a set's tags is the one its set
// index is taken from. Blocks must be at least stateMask+1 bytes, so the
// shift loses no address bit. A way is valid iff its state bits are
// nonzero, and invalid ways hold 0.
const stateMask = 7

// New splits a cache's sets into chunks of equal, power-of-two set count:
// the fewest sets that make up minChunkBytes of tags and LRU stamps, or
// more where that many chunks would overrun maxChunks, the length of
// every cache's chunk table. The floor keeps small caches from paying a
// chunk header and an allocation per set. The table's length bounds what
// every cache, an L1 as much as an L3, carries in its struct (1.5 KB)
// and how many chunk headers its lookups spread over.
const (
	maxChunks     = 64
	minChunkBytes = 4 << 10
)

// zeroes is the storage every chunk aliases until the first Insert into
// one of its sets. Its words are never written: they read as empty sets,
// and Lookup, Peek, SetState and Invalidate write only a way that holds a
// block, so they work on an unfilled chunk as they do on any other. Only
// Insert writes into a set, and it first gives the set's chunk storage of
// its own. The slice grows, under the lock, to the largest chunk any
// cache has asked for; a cache keeps the slice it was given.
var zeroes struct {
	sync.Mutex
	words []uint64
}

// zeroChunk returns n words of the shared zero storage.
func zeroChunk(n int) []uint64 {
	zeroes.Lock()
	defer zeroes.Unlock()
	if len(zeroes.words) < n {
		zeroes.words = make([]uint64, n)
	}
	return zeroes.words[:n:n]
}

// Cache is a set-associative tag array. Create with New.
//
// Sets are grouped into numChunks chunks of equal, power-of-two set count.
// A chunk holds the packed tags of its sets, set-major, then each way's
// last-touch stamp in the same layout, chunkWays words after its tag.
// Lookup scans a set's packed tags alone, so a hit costs one compare per
// way. The chunk table is an array inside Cache, so reaching a set's tags
// takes two dependent loads, the chunk's slice header and then the tags.
// A chunk aliases the shared zero storage until the first Insert into one
// of its sets, so an empty cache costs no tag storage at all.
type Cache struct {
	// What Lookup reads, then what the protocol counts on every access,
	// first: an access to a cache of one or two chunks (an L1) touches two
	// host cache lines, as a flat tag array did. A block's set is the low
	// bits of its block number: the lowest pick the set within its chunk
	// (inChunk masks them), the bits above pick the chunk (chunkShift,
	// chunkMask).
	blockShift uint // log2(blockSize)
	assoc      int
	chunkWays  int    // ways per chunk: a way's LRU stamp is this far after its tag
	inChunk    uint64 // sets per chunk - 1
	chunkShift uint   // log2(sets per chunk)
	chunkMask  uint64 // numChunks-1
	tick       uint64 // global LRU clock

	// Counters maintained for the evaluation (Figs. 9 and 10 count
	// invalidations and downgrades per cache).
	Hits          uint64
	Misses        uint64
	chunks        [maxChunks][]uint64
	Invalidations uint64
	Downgrades    uint64
	Evictions     uint64

	name      string
	numChunks int
	filled    uint64 // bit k set: chunk k has storage of its own (maxChunks <= 64)
}

// New returns a cache with the given total size, associativity and block
// size. size must be divisible by assoc*blockSize, and blockSize must be a
// power of two of at least 8 bytes. A set count that is not a power of two
// is rounded down to the next lower power of two. No tag storage is
// allocated until lines are inserted.
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
	chunkSets := uint64(1)
	for chunkSets < numSets && chunkSets*uint64(assoc)*16 < minChunkBytes {
		chunkSets *= 2
	}
	chunkSets = max(chunkSets, numSets/maxChunks)
	numChunks := numSets / chunkSets
	c := &Cache{
		name:       name,
		assoc:      assoc,
		chunkWays:  int(chunkSets) * assoc,
		numChunks:  int(numChunks),
		blockShift: uint(bits.TrailingZeros64(blockSize)),
		inChunk:    chunkSets - 1,
		chunkShift: uint(bits.TrailingZeros64(chunkSets)),
		chunkMask:  numChunks - 1,
	}
	c.empty()
	return c
}

// empty points every chunk back at the shared zero storage.
func (c *Cache) empty() {
	z := zeroChunk(2 * c.chunkWays)
	for k := range c.chunks[:c.numChunks] {
		c.chunks[k] = z
	}
	c.filled = 0
}

// isFilled reports whether chunk k has storage of its own.
func (c *Cache) isFilled(k int) bool { return c.filled&(1<<k) != 0 }

// Name returns the cache's diagnostic name (e.g. "L1-3").
func (c *Cache) Name() string { return c.name }

// BlockSize returns the cache's block size in bytes.
func (c *Cache) BlockSize() uint64 { return 1 << c.blockShift }

// set returns the tag key of addr's block (its number <<3, to be or-ed
// with a state) and the rest of its chunk from the set's first way on:
// set[:assoc] are the set's tags, and a way's LRU stamp is chunkWays words
// after its tag. (The masks on shift counts spare the compiler its code for
// shifts of 64 or more.)
func (c *Cache) set(addr mem.Addr) (key uint64, set []uint64) {
	n := uint64(addr) >> (c.blockShift & 63)
	return n << 3, c.chunks[n>>(c.chunkShift&63)&c.chunkMask][int(n&c.inChunk)*c.assoc:]
}

// holds reports whether tag t holds the block with the given key: t^key
// is then a nonzero state (1..stateMask), while any other block differs
// above the state bits and an invalid way is 0.
func holds(t, key uint64) bool { return (t^key)-1 < stateMask }

// find returns the way of set holding the block with the given key, or -1.
func (c *Cache) find(key uint64, set []uint64) int {
	for i, t := range set[:c.assoc] {
		if holds(t, key) {
			return i
		}
	}
	return -1
}

// Lookup returns the state of addr's block, or Invalid if it is not
// present. The LRU clock is touched on hit. It spells out set and holds,
// which keeps it within the compiler's inlining budget: every simulated
// access starts here.
func (c *Cache) Lookup(addr mem.Addr) State {
	n := uint64(addr) >> (c.blockShift & 63)
	set := c.chunks[n>>(c.chunkShift&63)&c.chunkMask][int(n&c.inChunk)*c.assoc:]
	for i, t := range set[:c.assoc] {
		if (t^n<<3)-1 < stateMask {
			c.tick++
			set[c.chunkWays+i] = c.tick
			return State(t & stateMask)
		}
	}
	return Invalid
}

// Peek is Lookup without touching LRU state or counters; for assertions and
// protocol bookkeeping.
func (c *Cache) Peek(addr mem.Addr) State {
	key, set := c.set(addr)
	for _, t := range set[:c.assoc] {
		if holds(t, key) {
			return State(t & stateMask)
		}
	}
	return Invalid
}

// SetState changes the state of addr's block, if present, without touching
// LRU state, and reports whether it was present. Setting Invalid removes
// the block, as Invalidate does.
func (c *Cache) SetState(addr mem.Addr, st State) bool {
	key, set := c.set(addr)
	w := c.find(key, set)
	if w < 0 {
		return false
	}
	set[w] = pack(key, st)
	return true
}

// pack builds the tag of the block with the given key in state st (0 when
// st is Invalid).
func pack(key uint64, st State) uint64 {
	if st == Invalid {
		return 0
	}
	return key | uint64(st)
}

// Insert places addr's block in the cache with the given state, evicting the
// LRU valid line of the set if it is full. It returns the eviction (if any)
// so the protocol can write back or reconcile the victim. Inserting a block
// that is already present just updates its state (and touches its LRU
// stamp, as Lookup does). The first insert into a chunk allocates it.
func (c *Cache) Insert(addr mem.Addr, st State) (Eviction, bool) {
	if k := int(uint64(addr) >> (c.blockShift & 63) >> (c.chunkShift & 63) & c.chunkMask); !c.isFilled(k) {
		c.chunks[k] = make([]uint64, len(c.chunks[k]))
		c.filled |= 1 << k
	}
	key, set := c.set(addr)
	tags, lru := set[:c.assoc], set[c.chunkWays:c.chunkWays+c.assoc]
	c.tick++
	// One pass finds the block or, failing that, the first invalid way.
	victim := -1
	for i, t := range tags {
		if holds(t, key) {
			tags[i] = pack(key, st)
			lru[i] = c.tick
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
		victim = 0
		for i := 1; i < len(lru); i++ {
			if lru[i] < lru[victim] {
				victim = i
			}
		}
		ev = Eviction(c.line(tags[victim]))
		evicted = true
		c.Evictions++
	}
	tags[victim] = pack(key, st)
	lru[victim] = c.tick
	return ev, evicted
}

// Invalidate removes addr's block, returning its prior state. The caller
// decides whether this counts as a coherence invalidation (counted via
// CountInvalidation) or a silent drop.
func (c *Cache) Invalidate(addr mem.Addr) State {
	key, set := c.set(addr)
	w := c.find(key, set)
	if w < 0 {
		return Invalid
	}
	st := State(set[w] & stateMask)
	set[w], set[c.chunkWays+w] = 0, 0
	return st
}

// CountInvalidation records a coherence-driven invalidation at this cache.
func (c *Cache) CountInvalidation() { c.Invalidations++ }

// CountDowngrade records a coherence-driven downgrade (M/E -> S) at this
// cache.
func (c *Cache) CountDowngrade() { c.Downgrades++ }

// line unpacks a valid tag.
func (c *Cache) line(t uint64) Line {
	return Line{Addr: mem.Addr(t >> 3 << c.blockShift), State: State(t & stateMask)}
}

// ForEach calls fn for every valid line. Iteration order is deterministic
// (set-major, then way order). fn must not insert or invalidate lines.
// Chunks that were never filled hold no lines and are skipped.
func (c *Cache) ForEach(fn func(Line)) {
	for k, ch := range c.chunks[:c.numChunks] {
		if !c.isFilled(k) {
			continue
		}
		for _, t := range ch[:c.chunkWays] {
			if t != 0 {
				fn(c.line(t))
			}
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
	for k, ch := range c.chunks[:c.numChunks] {
		if !c.isFilled(k) {
			continue
		}
		for base := 0; base < c.chunkWays; base += c.assoc {
			tags, lru := ch[base:base+c.assoc], ch[c.chunkWays+base:c.chunkWays+base+c.assoc]
			ways = ways[:0]
			for w, t := range tags {
				if t != 0 {
					ways = append(ways, w)
				}
			}
			// Stamps of valid ways are distinct, so the order is total.
			sort.Slice(ways, func(i, j int) bool { return lru[ways[i]] > lru[ways[j]] })
			for _, w := range ways {
				out = append(out, c.line(tags[w]))
			}
		}
	}
	return out
}

// ValidLines reports the number of valid lines, for occupancy assertions.
func (c *Cache) ValidLines() int {
	n := 0
	c.ForEach(func(Line) { n++ })
	return n
}

// Reset invalidates every line, returns every chunk to the shared zero
// storage and clears counters.
func (c *Cache) Reset() {
	c.empty()
	c.tick = 0
	c.Invalidations, c.Downgrades, c.Hits, c.Misses, c.Evictions = 0, 0, 0, 0, 0
}
