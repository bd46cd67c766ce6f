package machine

import (
	"testing"

	"warden/internal/attrib"
	"warden/internal/core"
	"warden/internal/mem"
	"warden/internal/topology"
)

func testCfg() topology.Config {
	cfg := topology.XeonGold6126(1)
	cfg.CoresPerSocket = 4
	return cfg
}

// run executes body on thread 0 with the other threads idle.
func run(t *testing.T, proto core.Protocol, bodies map[int]func(*Ctx)) *Machine {
	t.Helper()
	m := New(testCfg(), proto)
	all := make([]func(*Ctx), m.Config().Threads())
	for i := range all {
		if b, ok := bodies[i]; ok {
			all[i] = b
		} else {
			all[i] = func(*Ctx) {}
		}
	}
	if _, err := m.Run(all); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestLoadStoreSizes(t *testing.T) {
	var got [4]uint64
	m := New(testCfg(), core.MESI)
	a := m.Mem().Alloc(64, 64)
	run2 := func(ctx *Ctx) {
		ctx.Store(a, 1, 0xff12) // truncates to 0x12
		ctx.Store(a+8, 2, 0x3456)
		ctx.Store(a+16, 4, 0x789abcde)
		ctx.Store(a+24, 8, 0x1122334455667788)
		got[0] = ctx.Load(a, 1)
		got[1] = ctx.Load(a+8, 2)
		got[2] = ctx.Load(a+16, 4)
		got[3] = ctx.Load(a+24, 8)
	}
	all := make([]func(*Ctx), m.Config().Threads())
	for i := range all {
		all[i] = func(*Ctx) {}
	}
	all[0] = run2
	if _, err := m.Run(all); err != nil {
		t.Fatal(err)
	}
	want := [4]uint64{0x12, 0x3456, 0x789abcde, 0x1122334455667788}
	if got != want {
		t.Fatalf("got %x, want %x", got, want)
	}
}

func TestLoadBytesAcrossBlocks(t *testing.T) {
	m := New(testCfg(), core.MESI)
	a := m.Mem().Alloc(256, 64)
	data := make([]byte, 200)
	for i := range data {
		data[i] = byte(i)
	}
	buf := make([]byte, 200)
	bodies := map[int]func(*Ctx){0: func(ctx *Ctx) {
		ctx.StoreBytes(a+30, data) // crosses several blocks
		ctx.LoadBytes(a+30, buf)
	}}
	all := make([]func(*Ctx), m.Config().Threads())
	for i := range all {
		if b, ok := bodies[i]; ok {
			all[i] = b
		} else {
			all[i] = func(*Ctx) {}
		}
	}
	if _, err := m.Run(all); err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if buf[i] != data[i] {
			t.Fatalf("byte %d = %d, want %d", i, buf[i], data[i])
		}
	}
}

func TestCASSemantics(t *testing.T) {
	var first, second bool
	var final uint64
	m := New(testCfg(), core.MESI)
	a := m.Mem().Alloc(8, 8)
	all := make([]func(*Ctx), m.Config().Threads())
	for i := range all {
		all[i] = func(*Ctx) {}
	}
	all[0] = func(ctx *Ctx) {
		first = ctx.CAS(a, 8, 0, 42)
		second = ctx.CAS(a, 8, 0, 99) // must fail: value is 42
		final = ctx.Load(a, 8)
	}
	if _, err := m.Run(all); err != nil {
		t.Fatal(err)
	}
	if !first || second || final != 42 {
		t.Fatalf("first=%v second=%v final=%d", first, second, final)
	}
}

func TestFetchAddAccumulates(t *testing.T) {
	m := New(testCfg(), core.MESI)
	a := m.Mem().Alloc(8, 8)
	all := make([]func(*Ctx), m.Config().Threads())
	for i := range all {
		all[i] = func(ctx *Ctx) {
			for k := 0; k < 100; k++ {
				ctx.FetchAdd(a, 8, 1)
			}
		}
	}
	if _, err := m.Run(all); err != nil {
		t.Fatal(err)
	}
	want := uint64(100 * m.Config().Threads())
	if got := m.Mem().ReadUint(a, 8); got != want {
		t.Fatalf("counter = %d, want %d", got, want)
	}
	if m.Counters().Atomics != want {
		t.Fatalf("atomics counted %d, want %d", m.Counters().Atomics, want)
	}
}

func TestInstructionCounting(t *testing.T) {
	m := run(t, core.MESI, map[int]func(*Ctx){0: func(ctx *Ctx) {
		a := ctx.Machine().Mem().Alloc(64, 64)
		ctx.Compute(100)
		ctx.Store(a, 8, 1)
		ctx.Load(a, 8)
		ctx.Fence()
	}})
	c := m.Counters()
	if c.Instructions != 100+3 {
		t.Fatalf("instructions = %d, want 103", c.Instructions)
	}
	if c.Loads != 1 || c.Stores != 1 || c.FenceDrains != 1 {
		t.Fatalf("mix: loads=%d stores=%d fences=%d", c.Loads, c.Stores, c.FenceDrains)
	}
}

func TestStoreBufferAbsorbsThenStalls(t *testing.T) {
	// Far more store misses than the buffer can hold must produce stalls;
	// a handful must not.
	countStalls := func(stores int) uint64 {
		m := New(testCfg(), core.MESI)
		a := m.Mem().Alloc(uint64(stores*64), 64)
		all := make([]func(*Ctx), m.Config().Threads())
		for i := range all {
			all[i] = func(*Ctx) {}
		}
		all[0] = func(ctx *Ctx) {
			for i := 0; i < stores; i++ {
				// Each store misses a fresh block: worst case.
				ctx.Store(a+mem.Addr(i*64), 8, uint64(i))
			}
		}
		if _, err := m.Run(all); err != nil {
			t.Fatal(err)
		}
		return m.Counters().StoreBufferStalls
	}
	if s := countStalls(8); s != 0 {
		t.Fatalf("8 stores caused %d stalls", s)
	}
	if s := countStalls(4000); s == 0 {
		t.Fatal("4000 missing stores caused no stalls")
	}
}

func TestFenceDrainsBuffer(t *testing.T) {
	m := New(testCfg(), core.MESI)
	a := m.Mem().Alloc(64*64, 64)
	var tFence, tAfter uint64
	all := make([]func(*Ctx), m.Config().Threads())
	for i := range all {
		all[i] = func(*Ctx) {}
	}
	all[0] = func(ctx *Ctx) {
		for i := 0; i < 32; i++ {
			ctx.Store(a+mem.Addr(i*64), 8, 1)
		}
		tFence = ctx.Now()
		ctx.Fence()
		tAfter = ctx.Now()
	}
	if _, err := m.Run(all); err != nil {
		t.Fatal(err)
	}
	if tAfter <= tFence+1 {
		t.Fatalf("fence cost %d cycles; expected a drain", tAfter-tFence)
	}
}

func TestWardenMachineEndToEnd(t *testing.T) {
	m := New(testCfg(), core.WARDen)
	a := m.Mem().Alloc(4096, mem.PageSize)
	all := make([]func(*Ctx), m.Config().Threads())
	for i := range all {
		all[i] = func(*Ctx) {}
	}
	all[0] = func(ctx *Ctx) {
		id, ok := ctx.AddRegion(a, a+4096)
		if !ok {
			t.Error("AddRegion failed on WARDen machine")
			return
		}
		for i := 0; i < 512; i++ {
			ctx.Store(a+mem.Addr(i*8), 8, uint64(i))
		}
		ctx.RemoveRegion(id)
	}
	if _, err := m.Run(all); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 512; i++ {
		if v := m.Mem().ReadUint(a+mem.Addr(i*8), 8); v != uint64(i) {
			t.Fatalf("word %d = %d after reconcile", i, v)
		}
	}
	if m.Counters().WardAccesses == 0 {
		t.Fatal("no WARD accesses recorded")
	}
	if err := m.System().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsWrongBodyCount(t *testing.T) {
	m := New(testCfg(), core.MESI)
	if _, err := m.Run([]func(*Ctx){func(*Ctx) {}}); err == nil {
		t.Fatal("Run accepted wrong body count")
	}
}

func TestMaxCyclesGuard(t *testing.T) {
	m := New(testCfg(), core.MESI)
	m.SetMaxCycles(10_000)
	all := make([]func(*Ctx), m.Config().Threads())
	for i := range all {
		all[i] = func(*Ctx) {}
	}
	all[0] = func(ctx *Ctx) {
		for {
			ctx.Compute(100)
		}
	}
	if _, err := m.Run(all); err == nil {
		t.Fatal("runaway program did not trip the cycle guard")
	}
}

// nopSink observes events and discards them.
type nopSink struct{}

func (nopSink) Event(*core.Event) {}

// TestObservedOpsAllocateNothing: an L1-hit load, store, FetchAdd or CAS,
// a phase marker pair, and an AddRegion/RemoveRegion pair cost no heap
// allocation, with no sink, with a
// sink that discards its events, or with an attribution ledger whose
// accounts already exist. Observed, an instruction's event is built in
// machine-owned scratch and a marker in its thread's scratch marker; an
// atomic's new value is computed from the op's kind and operands, not a
// closure. (AllocsPerRun's warm-up call creates the ledger's accounts.)
func TestObservedOpsAllocateNothing(t *testing.T) {
	sinks := map[string]func() core.Sink{
		"unobserved": func() core.Sink { return nil },
		"nop":        func() core.Sink { return nopSink{} },
		"ledger":     func() core.Sink { return attrib.New(attrib.Config{}) },
	}
	for name, sink := range sinks {
		m := New(testCfg(), core.WARDen)
		m.System().SetSink(sink())
		a := m.Mem().Alloc(64, 64)
		r := m.Mem().Alloc(256, 64)
		allocs := map[string]float64{}
		all := make([]func(*Ctx), m.Config().Threads())
		for i := range all {
			all[i] = func(*Ctx) {}
		}
		all[0] = func(ctx *Ctx) {
			ctx.Store(a, 8, 1)
			allocs["load"] = testing.AllocsPerRun(100, func() { ctx.Load(a, 8) })
			allocs["store"] = testing.AllocsPerRun(100, func() { ctx.Store(a, 8, 2) })
			allocs["fetchadd"] = testing.AllocsPerRun(100, func() { ctx.FetchAdd(a+8, 8, 3) })
			allocs["cas"] = testing.AllocsPerRun(100, func() { ctx.CAS(a+16, 8, 0, 4) })
			allocs["phase"] = testing.AllocsPerRun(100, func() {
				ctx.PhaseBegin("p")
				ctx.PhaseEnd("p")
			})
			allocs["region"] = testing.AllocsPerRun(100, func() {
				id, ok := ctx.AddRegion(r, r+256)
				if !ok {
					t.Errorf("%s: AddRegion failed", name)
				}
				ctx.RemoveRegion(id)
			})
		}
		if _, err := m.Run(all); err != nil {
			t.Fatal(err)
		}
		for op, n := range allocs {
			if n != 0 {
				t.Errorf("%s: %s allocates %v allocs/op", name, op, n)
			}
		}
		if len(allocs) != 6 {
			t.Fatalf("%s: measured %d ops, want 6", name, len(allocs))
		}
	}
}

// TestLoadedMatchesByteLoop: Loaded's little-endian word loads return
// what assembling the value byte by byte does, for every size up to 8
// (Load's sizes 1, 2, 4 and 8 and the masked fallback for the others),
// with high bits set in and beyond the loaded bytes.
func TestLoadedMatchesByteLoop(t *testing.T) {
	patterns := [][8]byte{
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff},
		{0x80, 0x81, 0x82, 0x83, 0x84, 0x85, 0x86, 0x87},
		{0x01, 0x80, 0x00, 0xf0, 0x7f, 0xfe, 0x00, 0x80},
		{0x00, 0x00, 0x00, 0x80, 0x00, 0x00, 0x00, 0x80},
		{0xde, 0xad, 0xbe, 0xef, 0xca, 0xfe, 0xba, 0xbe},
	}
	for _, p := range patterns {
		for size := 0; size <= 8; size++ {
			c := &Ctx{buf: p}
			var want uint64
			for i := size - 1; i >= 0; i-- {
				want = want<<8 | uint64(p[i])
			}
			if got := c.Loaded(size); got != want {
				t.Errorf("Loaded(%d) over % x = %#x, want %#x", size, p, got, want)
			}
		}
	}
}
