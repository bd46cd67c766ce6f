package mem

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestAddrHelpers(t *testing.T) {
	if got := Addr(4097).Page(); got != 4096 {
		t.Errorf("Page(4097) = %d, want 4096", got)
	}
	if got := Addr(4096).Page(); got != 4096 {
		t.Errorf("Page(4096) = %d, want 4096", got)
	}
	if got := Addr(127).Block(64); got != 64 {
		t.Errorf("Block(127, 64) = %d, want 64", got)
	}
	if got := Addr(64).Block(64); got != 64 {
		t.Errorf("Block(64, 64) = %d, want 64", got)
	}
}

func TestAllocAlignmentAndDisjointness(t *testing.T) {
	m := New(0)
	seen := map[Addr]uint64{} // base -> size
	for i, tc := range []struct{ size, align uint64 }{
		{1, 1}, {3, 2}, {8, 8}, {100, 64}, {4096, 4096}, {10, 1}, {64, 64},
	} {
		a := m.Alloc(tc.size, tc.align)
		if uint64(a)%tc.align != 0 {
			t.Errorf("alloc %d: base %#x not aligned to %d", i, uint64(a), tc.align)
		}
		for base, size := range seen {
			if uint64(a) < uint64(base)+size && uint64(base) < uint64(a)+tc.size {
				t.Errorf("alloc %d overlaps earlier allocation at %#x", i, uint64(base))
			}
		}
		seen[a] = tc.size
	}
}

func TestAllocNeverReturnsNull(t *testing.T) {
	m := New(0)
	if a := m.Alloc(1, 1); a == 0 {
		t.Fatal("allocator handed out the null address")
	}
}

func TestBadAlignmentPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-power-of-two alignment")
		}
	}()
	New(0).Alloc(8, 3)
}

func TestReadWriteRoundTrip(t *testing.T) {
	m := New(0)
	a := m.Alloc(10000, 8)
	data := make([]byte, 10000)
	for i := range data {
		data[i] = byte(i * 7)
	}
	m.Write(a, data)
	got := make([]byte, len(data))
	m.Read(a, got)
	if !bytes.Equal(got, data) {
		t.Fatal("read did not return written data")
	}
}

func TestCrossPageWrite(t *testing.T) {
	m := New(0)
	a := m.AllocPages(2) + PageSize - 3
	m.Write(a, []byte{1, 2, 3, 4, 5, 6})
	got := make([]byte, 6)
	m.Read(a, got)
	for i, v := range got {
		if v != byte(i+1) {
			t.Fatalf("byte %d = %d, want %d", i, v, i+1)
		}
	}
}

func TestZeroFillUntouched(t *testing.T) {
	m := New(0)
	a := m.AllocPages(1)
	buf := []byte{9, 9, 9, 9}
	m.Read(a+100, buf)
	for i, v := range buf {
		if v != 0 {
			t.Fatalf("untouched byte %d = %d, want 0", i, v)
		}
	}
	if m.PagesTouched() != 0 {
		t.Fatalf("reading must not materialize pages, got %d", m.PagesTouched())
	}
}

func TestUintRoundTrip(t *testing.T) {
	m := New(0)
	a := m.Alloc(64, 8)
	for _, size := range []int{1, 2, 4, 8} {
		want := uint64(0x1122334455667788) & (1<<(8*size) - 1)
		m.WriteUint(a, size, 0x1122334455667788)
		if got := m.ReadUint(a, size); got != want {
			t.Errorf("size %d: got %#x, want %#x", size, got, want)
		}
	}
}

func TestUintLittleEndian(t *testing.T) {
	m := New(0)
	a := m.Alloc(8, 8)
	m.WriteUint(a, 4, 0x04030201)
	for i := 0; i < 4; i++ {
		if got := m.ByteAt(a + Addr(i)); got != byte(i+1) {
			t.Errorf("byte %d = %d, want %d (little endian)", i, got, i+1)
		}
	}
}

func TestQuickUintRoundTrip(t *testing.T) {
	m := New(0)
	a := m.Alloc(PageSize, 8)
	f := func(off uint16, v uint64) bool {
		addr := a + Addr(off%(PageSize-8))
		m.WriteUint(addr, 8, v)
		return m.ReadUint(addr, 8) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickWriteReadSlices(t *testing.T) {
	m := New(0)
	base := m.AllocPages(4)
	f := func(off uint16, data []byte) bool {
		if len(data) == 0 {
			return true
		}
		if len(data) > 2*PageSize {
			data = data[:2*PageSize]
		}
		a := base + Addr(off)
		m.Write(a, data)
		got := make([]byte, len(data))
		m.Read(a, got)
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAllocOverflowPanics(t *testing.T) {
	// Silently wrapping next would hand out address ranges that alias
	// live allocations; exhaustion of the 64-bit space must panic.
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	m := New(0)
	m.Alloc(uint64(^Addr(0))-uint64(m.Brk())-PageSize, 1) // nearly exhaust the space
	mustPanic("size overflow", func() { m.Alloc(2*PageSize, 1) })
	mustPanic("alignment overflow", func() { m.Alloc(1, 1<<40) })
}

// TestFarAddressUsesSparseTable: a page far outside the allocator's range
// (as hand-written traces use) round-trips through the sparse table
// without growing the dense one, and counts as touched.
func TestFarAddressUsesSparseTable(t *testing.T) {
	m := New(0)
	a := m.AllocPages(2)
	m.Write(a, []byte{1})
	dense := len(m.dense)
	if dense == 0 {
		t.Fatal("a write inside the allocated range did not use the dense table")
	}
	far := Addr(1) << 47
	m.Write(far+5, []byte{7, 8, 9})
	got := make([]byte, 3)
	m.Read(far+5, got)
	if !bytes.Equal(got, []byte{7, 8, 9}) {
		t.Fatalf("read at 1<<47 = %v, want [7 8 9]", got)
	}
	if len(m.dense) != dense {
		t.Fatalf("a write at 1<<47 grew the dense table from %d to %d pages", dense, len(m.dense))
	}
	if n := m.PagesTouched(); n != 2 {
		t.Fatalf("PagesTouched = %d, want 2 (one dense, one sparse)", n)
	}
	m.SetByte(far+4096, 3)
	if n := m.PagesTouched(); n != 3 || m.ByteAt(far+4096) != 3 {
		t.Fatalf("PagesTouched = %d after SetByte on a second sparse page, want 3", n)
	}
}

// TestReadSpansTouchedAndUntouchedPages: a read across a page boundary
// returns the written bytes of the touched page and zeros for the other.
func TestReadSpansTouchedAndUntouchedPages(t *testing.T) {
	m := New(0)
	a := m.AllocPages(2)
	m.Write(a+PageSize-2, []byte{5, 6})
	got := []byte{9, 9, 9, 9}
	m.Read(a+PageSize-2, got)
	if !bytes.Equal(got, []byte{5, 6, 0, 0}) {
		t.Fatalf("read across the boundary = %v, want [5 6 0 0]", got)
	}
	// The other way round: an untouched first page, a touched second.
	b := m.AllocPages(2)
	m.Write(b+PageSize, []byte{1, 2})
	got = []byte{9, 9, 9, 9}
	m.Read(b+PageSize-2, got)
	if !bytes.Equal(got, []byte{0, 0, 1, 2}) {
		t.Fatalf("read across the boundary = %v, want [0 0 1 2]", got)
	}
	if n := m.PagesTouched(); n != 2 {
		t.Fatalf("PagesTouched = %d, want 2", n)
	}
}

// TestSparsePageMovesIntoDenseTable: a page written above Brk lives in the
// sparse table until the allocator's range grows over it; it then joins
// the dense table with its contents and is still counted once.
func TestSparsePageMovesIntoDenseTable(t *testing.T) {
	m := New(0)
	m.AllocPages(1)
	above := m.Brk() + 3*PageSize
	m.Write(above, []byte{4})
	if len(m.sparse) != 1 {
		t.Fatalf("a write above Brk left %d sparse pages, want 1", len(m.sparse))
	}
	m.AllocPages(8)
	m.Write(m.Brk()-1, []byte{6}) // grows the dense table over above
	if len(m.sparse) != 0 || m.ByteAt(above) != 4 || m.ByteAt(m.Brk()-1) != 6 {
		t.Fatalf("after growth: %d sparse pages, byte %d at the moved page", len(m.sparse), m.ByteAt(above))
	}
	if n := m.PagesTouched(); n != 2 {
		t.Fatalf("PagesTouched = %d, want 2", n)
	}
}
