package hlpl

import (
	"fmt"

	"warden/internal/core"
	"warden/internal/machine"
	"warden/internal/mem"
)

// maxRunPages caps the doubling growth of heap page runs. Growing runs keep
// the number of live WARD regions per heap logarithmic in its size, so the
// directory's 1024-entry region table (§6.1) is never under pressure in
// practice.
const maxRunPages = 64

type run struct {
	base  mem.Addr
	pages int
}

func (r run) end() mem.Addr { return r.base + mem.Addr(r.pages)*mem.PageSize }

// Heap is one node of the heap hierarchy: a linked list of page runs with
// bump allocation, as in MPL (§4.2). A heap belongs to exactly one task
// while that task is a leaf; at join it merges into its parent.
type Heap struct {
	rt      *RT
	parent  *Heap
	cur     mem.Addr // bump pointer
	end     mem.Addr
	runs    []run
	regions []core.RegionID // active WARD regions covering this heap's runs
	nextRun int             // pages in the next run (doubles up to maxRunPages)
	merged  bool
}

func (rt *RT) newHeap(parent *Heap) *Heap {
	return &Heap{rt: rt, parent: parent, nextRun: 1}
}

// alloc bump-allocates size bytes aligned to align in the heap, extending
// it with a fresh (WARD-marked) run when exhausted. It charges the
// allocator's simulated cost to ctx.
func (h *Heap) alloc(w *worker, size, align uint64) mem.Addr {
	ctx := w.ctx
	if h.merged {
		panic("hlpl: allocation into a merged heap (task kept a stale reference)")
	}
	if align == 0 {
		align = 1
	}
	ctx.Compute(allocBumpCycles)
	base := (h.cur + mem.Addr(align-1)) &^ mem.Addr(align-1)
	if base+mem.Addr(size) <= h.end {
		h.cur = base + mem.Addr(size)
		return base
	}
	// Slow path: extend the heap. Oversized requests get a dedicated run.
	pages := h.nextRun
	need := int((size + align + mem.PageSize - 1) / mem.PageSize)
	if need > pages {
		pages = need
	} else {
		if h.nextRun < maxRunPages {
			h.nextRun *= 2
		}
	}
	h.extend(w, pages)
	base = (h.cur + mem.Addr(align-1)) &^ mem.Addr(align-1)
	if base+mem.Addr(size) > h.end {
		panic(fmt.Sprintf("hlpl: run of %d pages cannot hold %d bytes", pages, size))
	}
	h.cur = base + mem.Addr(size)
	return base
}

// extend acquires a run of the given page count and, per §4.2, marks it as
// a WARD region — the allocating task is by construction a leaf.
func (h *Heap) extend(w *worker, pages int) {
	ctx := w.ctx
	ctx.Compute(runAllocCycles)
	base := h.rt.getRun(w, pages)
	r := run{base: base, pages: pages}
	h.runs = append(h.runs, r)
	h.cur, h.end = r.base, r.end()
	if h.rt.opts.MarkHeapPages {
		if id, ok := ctx.AddRegion(r.base, r.end()); ok {
			h.regions = append(h.regions, id)
		}
	} else {
		// Keep the instruction stream shape comparable across ablations.
		ctx.Compute(1)
	}
}

// unmark removes every active WARD region of the heap (the Remove Region
// instruction), reconciling their W blocks. The scheduler calls this before
// forks and when the heap's task completes.
func (h *Heap) unmark(ctx *machine.Ctx) {
	for _, id := range h.regions {
		ctx.RemoveRegion(id)
	}
	h.regions = h.regions[:0]
}

// mergeInto gives the heap's pages to parent (the join-time merge of
// Fig. 2). The heap must have been unmarked first: its data is about to be
// readable by the parent's hardware thread.
func (h *Heap) mergeInto(ctx *machine.Ctx, parent *Heap) {
	if len(h.regions) != 0 {
		panic("hlpl: merging a heap with active WARD regions")
	}
	ctx.Compute(joinMergeCycles)
	// After the compute above, this code may run ahead of its serialized
	// position (local-op run-ahead) or concurrently with a sibling (PDES),
	// and the run order feeds later putRun/getRun address reuse: append at
	// this thread's serialized position.
	ctx.Host(func() {
		parent.runs = append(parent.runs, h.runs...)
		h.runs = nil
	})
	h.merged = true
}

// release returns every run to the pool (scratch heaps only — merged data
// must stay live).
func (h *Heap) release(w *worker) {
	for _, r := range h.runs {
		h.rt.putRun(w, r.base, r.pages)
	}
	h.runs = nil
	h.cur, h.end = 0, 0
	h.merged = true
}

// Bytes reports the heap's total page footprint, for tests.
func (h *Heap) Bytes() uint64 {
	var n uint64
	for _, r := range h.runs {
		n += uint64(r.pages) * mem.PageSize
	}
	return n
}
