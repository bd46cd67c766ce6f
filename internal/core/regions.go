// Package core implements the paper's contribution: the WARDen cache
// coherence protocol (§5) layered over a directory-based MESI protocol, the
// WARD region table the directory consults (§6.1), and the reconciliation
// process that returns WARD blocks to the MESI states (§5.2).
//
// The memory system in this package serves both protocols: with Protocol
// MESI it is a plain directory MESI hierarchy; with Protocol WARDen the
// directory additionally consults the region table, moves in-region blocks
// to the W state (disabling invalidations and downgrades for them), and
// reconciles on region removal. Legacy traffic — any block outside an
// active region — takes the unmodified MESI paths, which is the paper's
// backward-compatibility argument.
package core

import (
	"slices"
	"sort"

	"warden/internal/mem"
)

// RegionID names an active WARD region. The zero RegionID is never issued
// and acts as a null region (AddRegion returns it when the protocol is MESI
// or the table is full; RemoveRegion ignores it).
type RegionID uint32

// NullRegion is the invalid region id.
const NullRegion RegionID = 0

type region struct {
	id     RegionID
	lo, hi mem.Addr // [lo, hi)
	// blocks are the block addresses currently held in the W state under
	// this region; they are reconciled when the region is removed.
	blocks map[mem.Addr]struct{}
}

// regionTable is the directory's WARD region storage (§6.1): a bounded
// associative structure holding [lo, hi) address intervals. The hardware
// proposal stores regions as CAM entries of two pointers; we model the same
// capacity bound and lookup semantics (an address matches if lo <= a < hi;
// if an address is somehow in more than one region it is simply WARD).
type regionTable struct {
	capacity int
	nextID   RegionID
	byID     map[RegionID]*region
	// sorted is ordered by lo for binary-search lookup; intervals from the
	// HLPL runtime are disjoint, but overlap is tolerated (first match
	// wins, which still answers "is this address in any region").
	sorted []*region
	// free holds removed regions for add to reuse, blocks map and all, and
	// scratch backs remove's result, so a region's add/remove pair
	// allocates nothing once the table has warmed up.
	free    []*region
	scratch []mem.Addr
}

// maxRecycledBlocks bounds the W-block map a recycled region keeps: a
// removed region that held more gets a fresh map, so the free list does
// not hold on to the memory of the largest regions for the whole run.
const maxRecycledBlocks = 64

func newRegionTable(capacity int) *regionTable {
	return &regionTable{
		capacity: capacity,
		nextID:   1,
		byID:     make(map[RegionID]*region),
	}
}

// add registers [lo, hi) and returns its id, or (NullRegion, false) if the
// table is at capacity or the interval is empty.
func (t *regionTable) add(lo, hi mem.Addr) (RegionID, bool) {
	if lo >= hi || len(t.byID) >= t.capacity {
		return NullRegion, false
	}
	var r *region
	if n := len(t.free); n > 0 {
		r, t.free = t.free[n-1], t.free[:n-1]
	} else {
		r = &region{blocks: make(map[mem.Addr]struct{})}
	}
	r.id, r.lo, r.hi = t.nextID, lo, hi
	t.nextID++
	t.byID[r.id] = r
	i := sort.Search(len(t.sorted), func(i int) bool { return t.sorted[i].lo > lo })
	t.sorted = append(t.sorted, nil)
	copy(t.sorted[i+1:], t.sorted[i:])
	t.sorted[i] = r
	return r.id, true
}

// lookup returns the id of a region containing a, if any.
func (t *regionTable) lookup(a mem.Addr) (RegionID, bool) {
	// Find the last region with lo <= a, then scan left while regions could
	// still cover a. With disjoint intervals the first probe decides.
	i := sort.Search(len(t.sorted), func(i int) bool { return t.sorted[i].lo > a })
	for j := i - 1; j >= 0; j-- {
		r := t.sorted[j]
		if a < r.hi {
			return r.id, true
		}
		// Disjoint, sorted intervals: nothing further left can cover a
		// unless intervals nest; tolerate one level of slop by continuing
		// only while the gap is zero.
		if r.hi <= a && j == i-1 {
			continue
		}
		break
	}
	return NullRegion, false
}

// remove deletes region id and returns its W-state blocks in ascending
// address order (the deterministic reconciliation order). The slice is
// valid until the next remove.
func (t *regionTable) remove(id RegionID) (blocks []mem.Addr, ok bool) {
	r, found := t.byID[id]
	if !found {
		return nil, false
	}
	delete(t.byID, id)
	for i, s := range t.sorted {
		if s == r {
			t.sorted = append(t.sorted[:i], t.sorted[i+1:]...)
			break
		}
	}
	blocks = t.scratch[:0]
	for b := range r.blocks {
		blocks = append(blocks, b)
	}
	slices.Sort(blocks)
	t.scratch = blocks
	if len(r.blocks) > maxRecycledBlocks {
		// Clearing a map keeps its peak-sized buckets; let a large one go.
		r.blocks = make(map[mem.Addr]struct{})
	} else {
		clear(r.blocks)
	}
	t.free = append(t.free, r)
	return blocks, true
}

// noteBlock records that block entered the W state under region id.
func (t *regionTable) noteBlock(id RegionID, block mem.Addr) {
	if r, ok := t.byID[id]; ok {
		r.blocks[block] = struct{}{}
	}
}

// forgetBlock records that block left the W state (eviction-time flush).
func (t *regionTable) forgetBlock(id RegionID, block mem.Addr) {
	if r, ok := t.byID[id]; ok {
		delete(r.blocks, block)
	}
}

// len reports the number of active regions.
func (t *regionTable) len() int { return len(t.byID) }
