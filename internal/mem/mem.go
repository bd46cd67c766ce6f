// Package mem implements the simulated physical address space: a paged
// backing store plus a simple region allocator.
//
// The backing store holds the canonical value of every byte of simulated
// memory. Under MESI the coherence protocol guarantees a single writer per
// block, so reads and writes operate directly on the canonical store. Blocks
// in the WARD state are the exception: each sharer keeps a private copy (see
// internal/core), and the canonical store is only updated when those copies
// reconcile.
package mem

import "fmt"

// PageSize is the size of a simulated physical page in bytes. The HLPL
// runtime allocates heap space and registers WARD regions at page
// granularity, mirroring MPL's page-based heaps.
const PageSize = 4096

// Addr is a simulated physical address.
type Addr uint64

// Page returns the page-aligned base address containing a.
func (a Addr) Page() Addr { return a &^ (PageSize - 1) }

// Block returns the cache-block-aligned base of a for the given block size,
// which must be a power of two.
func (a Addr) Block(blockSize uint64) Addr { return a &^ Addr(blockSize-1) }

// Memory is a simulated address space with a bump region allocator. The
// zero value is not ready to use; call New.
//
// Pages are materialized (zeroed) on first write. Pages inside the
// allocator's range [base, Brk()) live in a dense table indexed by page
// number, so the per-access path is a subtraction, a shift and a bounds
// check. Pages outside it, which only hand-written or replayed traces
// reach, live in a sparse map.
type Memory struct {
	base   Addr                     // first address Alloc hands out
	next   Addr                     // next unallocated address for Alloc
	dense  []*[PageSize]byte        // page base+i*PageSize at i; nil = untouched
	sparse map[Addr]*[PageSize]byte // pages outside the dense table, by base
	pages  int                      // pages materialized, in either table
}

const (
	// pageShift is log2(PageSize).
	pageShift = 12
	// maxDensePages caps the dense table at 16 GiB of simulated memory
	// (32 MiB of table); pages of a larger allocation beyond it are sparse.
	maxDensePages = 1 << 22
)

// New returns an empty address space. Allocation starts at base, which is
// rounded up to a page boundary; address 0 is never handed out so that it
// can serve as a null pointer in runtime data structures.
func New(base Addr) *Memory {
	if base == 0 {
		base = PageSize
	}
	base = (base + PageSize - 1).Page()
	return &Memory{
		base:   base,
		next:   base,
		sparse: make(map[Addr]*[PageSize]byte),
	}
}

// Alloc reserves size bytes aligned to align (a power of two, at least 1)
// and returns the base address. The memory is zeroed on first touch.
func (m *Memory) Alloc(size, align uint64) Addr {
	if align == 0 {
		align = 1
	}
	if align&(align-1) != 0 {
		panic(fmt.Sprintf("mem: alignment %d is not a power of two", align))
	}
	base := (m.next + Addr(align-1)) &^ Addr(align-1)
	if base < m.next {
		panic(fmt.Sprintf("mem: aligning %#x to %d overflows the address space", m.next, align))
	}
	end := base + Addr(size)
	if end < base {
		panic(fmt.Sprintf("mem: allocating %d bytes at %#x overflows the address space", size, base))
	}
	m.next = end
	return base
}

// AllocPages reserves n whole pages and returns the page-aligned base.
func (m *Memory) AllocPages(n int) Addr {
	return m.Alloc(uint64(n)*PageSize, PageSize)
}

// Brk reports the current top of the allocated address range.
func (m *Memory) Brk() Addr { return m.next }

// lookup returns the page holding a, or nil if it was never written.
func (m *Memory) lookup(a Addr) *[PageSize]byte {
	if i := uint64(a-m.base) >> pageShift; i < uint64(len(m.dense)) {
		return m.dense[i]
	}
	return m.sparse[a.Page()]
}

// page returns the page holding a, materializing it if needed.
func (m *Memory) page(a Addr) *[PageSize]byte {
	i := uint64(a-m.base) >> pageShift
	if i >= uint64(len(m.dense)) {
		if a < m.base || a >= m.next || i >= maxDensePages {
			return m.sparsePage(a)
		}
		m.grow()
	}
	p := m.dense[i]
	if p == nil {
		p = new([PageSize]byte)
		m.dense[i] = p
		m.pages++
	}
	return p
}

func (m *Memory) sparsePage(a Addr) *[PageSize]byte {
	p, ok := m.sparse[a.Page()]
	if !ok {
		p = new([PageSize]byte)
		m.sparse[a.Page()] = p
		m.pages++
	}
	return p
}

// grow extends the dense table over the whole allocated range (up to
// maxDensePages), moving in any sparse pages it now covers.
func (m *Memory) grow() {
	n := int(min(uint64(m.next-m.base-1)>>pageShift+1, maxDensePages))
	m.dense = append(m.dense, make([]*[PageSize]byte, n-len(m.dense))...)
	for base, p := range m.sparse {
		if i := uint64(base-m.base) >> pageShift; i < uint64(n) {
			m.dense[i] = p
			delete(m.sparse, base)
		}
	}
}

// ByteAt returns the canonical value of the byte at a.
func (m *Memory) ByteAt(a Addr) byte {
	if p := m.lookup(a); p != nil {
		return p[a&(PageSize-1)]
	}
	return 0
}

// SetByte sets the canonical value of the byte at a.
func (m *Memory) SetByte(a Addr, v byte) {
	m.page(a)[a&(PageSize-1)] = v
}

// Read copies len(dst) canonical bytes starting at a into dst. Reads may
// cross page boundaries.
func (m *Memory) Read(a Addr, dst []byte) {
	for len(dst) > 0 {
		off := int(a & (PageSize - 1))
		n := min(PageSize-off, len(dst))
		if p := m.lookup(a); p != nil {
			copy(dst[:n], p[off:off+n])
		} else {
			clear(dst[:n])
		}
		dst = dst[n:]
		a += Addr(n)
	}
}

// Write copies src into the canonical store starting at a. Writes may cross
// page boundaries.
func (m *Memory) Write(a Addr, src []byte) {
	for len(src) > 0 {
		off := int(a & (PageSize - 1))
		n := copy(m.page(a)[off:], src)
		src = src[n:]
		a += Addr(n)
	}
}

// ReadUint reads a little-endian unsigned integer of the given byte size
// (1, 2, 4, or 8) at a.
func (m *Memory) ReadUint(a Addr, size int) uint64 {
	var buf [8]byte
	m.Read(a, buf[:size])
	var v uint64
	for i := size - 1; i >= 0; i-- {
		v = v<<8 | uint64(buf[i])
	}
	return v
}

// WriteUint writes a little-endian unsigned integer of the given byte size
// (1, 2, 4, or 8) at a.
func (m *Memory) WriteUint(a Addr, size int, v uint64) {
	var buf [8]byte
	for i := 0; i < size; i++ {
		buf[i] = byte(v)
		v >>= 8
	}
	m.Write(a, buf[:size])
}

// PagesTouched reports how many distinct pages have been materialized.
func (m *Memory) PagesTouched() int { return m.pages }
