package core

import (
	"reflect"
	"testing"
	"testing/quick"

	"warden/internal/mem"
)

func TestRegionTableAddLookupRemove(t *testing.T) {
	rt := newRegionTable(8)
	id1, ok := rt.add(0x1000, 0x2000)
	if !ok || id1 == NullRegion {
		t.Fatal("add failed")
	}
	id2, ok := rt.add(0x3000, 0x4000)
	if !ok || id2 == id1 {
		t.Fatal("second add failed or reused id")
	}
	for a, want := range map[mem.Addr]bool{
		0x0fff: false, 0x1000: true, 0x1fff: true, 0x2000: false,
		0x2fff: false, 0x3000: true, 0x3fff: true, 0x4000: false,
	} {
		if _, ok := rt.lookup(a); ok != want {
			t.Errorf("lookup(%#x) = %v, want %v", uint64(a), ok, want)
		}
	}
	if _, ok := rt.remove(id1); !ok {
		t.Fatal("remove failed")
	}
	if _, ok := rt.lookup(0x1800); ok {
		t.Fatal("removed region still matches")
	}
	if _, ok := rt.remove(id1); ok {
		t.Fatal("double remove succeeded")
	}
}

func TestRegionTableCapacity(t *testing.T) {
	rt := newRegionTable(2)
	a, _ := rt.add(0, 10)
	rt.add(20, 30)
	if _, ok := rt.add(40, 50); ok {
		t.Fatal("add beyond capacity succeeded")
	}
	rt.remove(a)
	if _, ok := rt.add(40, 50); !ok {
		t.Fatal("add after remove failed")
	}
}

func TestRegionTableRejectsEmpty(t *testing.T) {
	rt := newRegionTable(8)
	if _, ok := rt.add(100, 100); ok {
		t.Fatal("empty interval accepted")
	}
	if _, ok := rt.add(200, 100); ok {
		t.Fatal("inverted interval accepted")
	}
}

func TestRegionBlocksSortedOnRemove(t *testing.T) {
	rt := newRegionTable(8)
	id, _ := rt.add(0, 1<<20)
	for _, b := range []mem.Addr{0x500, 0x100, 0x900, 0x300} {
		rt.noteBlock(id, b)
	}
	rt.forgetBlock(id, 0x300)
	blocks, ok := rt.remove(id)
	if !ok {
		t.Fatal("remove failed")
	}
	want := []mem.Addr{0x100, 0x500, 0x900}
	if len(blocks) != len(want) {
		t.Fatalf("blocks = %v", blocks)
	}
	for i := range want {
		if blocks[i] != want[i] {
			t.Fatalf("blocks[%d] = %#x, want %#x (sorted)", i, uint64(blocks[i]), uint64(want[i]))
		}
	}
}

// TestRemovedRegionsAreRecycled: add reuses a removed region with no
// blocks left in it. One that held at most maxRecycledBlocks keeps its
// cleared map; one that held more gets a fresh map, so the free list does
// not keep a large region's peak-sized map alive.
func TestRemovedRegionsAreRecycled(t *testing.T) {
	for _, n := range []int{maxRecycledBlocks, maxRecycledBlocks + 1} {
		rt := newRegionTable(8)
		id, _ := rt.add(0, 1<<20)
		r := rt.byID[id]
		m := reflect.ValueOf(r.blocks).UnsafePointer()
		for i := range n {
			rt.noteBlock(id, mem.Addr(i*64))
		}
		if blocks, _ := rt.remove(id); len(blocks) != n {
			t.Fatalf("%d blocks: remove returned %d", n, len(blocks))
		}
		id2, _ := rt.add(0x1000, 0x2000)
		if rt.byID[id2] != r {
			t.Fatalf("%d blocks: add did not reuse the removed region", n)
		}
		if len(r.blocks) != 0 {
			t.Fatalf("%d blocks: recycled region holds %d blocks", n, len(r.blocks))
		}
		if fresh := reflect.ValueOf(r.blocks).UnsafePointer() != m; fresh != (n > maxRecycledBlocks) {
			t.Errorf("%d blocks: fresh map = %v, want %v", n, fresh, n > maxRecycledBlocks)
		}
		rt.noteBlock(id2, 0x1040)
		if blocks, _ := rt.remove(id2); len(blocks) != 1 || blocks[0] != 0x1040 {
			t.Fatalf("%d blocks: second remove returned %v", n, blocks)
		}
	}
}

// TestQuickRegionLookup checks lookup against a linear scan over random
// disjoint interval sets with random probes.
func TestQuickRegionLookup(t *testing.T) {
	f := func(startsRaw []uint16, probes []uint32) bool {
		rt := newRegionTable(1024)
		type iv struct{ lo, hi mem.Addr }
		var ivs []iv
		next := mem.Addr(0)
		for _, s := range startsRaw {
			lo := next + mem.Addr(s%512)
			hi := lo + mem.Addr(1+s%300)
			if _, ok := rt.add(lo, hi); ok {
				ivs = append(ivs, iv{lo, hi})
			}
			next = hi + 1 // keep intervals disjoint
		}
		for _, p := range probes {
			a := mem.Addr(p) % (next + 100)
			want := false
			for _, v := range ivs {
				if a >= v.lo && a < v.hi {
					want = true
					break
				}
			}
			if _, got := rt.lookup(a); got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
