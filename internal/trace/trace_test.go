package trace

import (
	"strings"
	"testing"

	"warden/internal/core"
	"warden/internal/machine"
	"warden/internal/topology"
)

func testMachine(proto core.Protocol) *machine.Machine {
	cfg := topology.XeonGold6126(1)
	cfg.CoresPerSocket = 4
	return machine.New(cfg, proto)
}

func TestParseBasics(t *testing.T) {
	src := `
# a comment
0 W 0x1000 8 42
1 R 4096 8
0 C 100
1 F
0 A 0x2000 8 1
0 B buf 0x3000 0x4000
0 E buf
`
	tr, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Events != 7 {
		t.Fatalf("events = %d, want 7", tr.Events)
	}
	if tr.MaxThread() != 1 {
		t.Fatalf("max thread = %d", tr.MaxThread())
	}
	ev := tr.PerThread[0][0]
	if ev.Kind != Write || ev.Addr != 0x1000 || ev.Size != 8 || ev.Value != 42 {
		t.Fatalf("first event = %+v", ev)
	}
	if tr.PerThread[1][0].Addr != 4096 {
		t.Fatal("decimal address parsed wrong")
	}
}

func TestParseErrors(t *testing.T) {
	tests := []struct {
		name string
		src  string
		line string // line number the error must name
		want string // substring the error must contain
	}{
		{"bad thread", "x W 0x0 8 1", "line 1", "bad thread id"},
		{"unknown kind", "0 Q 0x0 8", "line 1", "unknown event kind"},
		{"missing value", "0 W 0x0 8", "line 1", "want 5 fields"},
		{"oversized read", "0 R 0x0 5000", "line 1", "bad size"},
		{"oversized cas", "0 X 0x0 16 1 2", "line 1", "bad size"},
		{"empty region", "0 B r 0x10 0x10", "line 1", "bad region bounds"},
		{"too short", "0", "line 1", "too few fields"},
		{"bad number", "0 C zz", "line 1", "malformed compute cycles"},
		{"malformed hex addr", "0 C 1\n0 R 0xzz 8", "line 2", "malformed address"},
		{"malformed store value", "0 W 0x0 8 0xgg", "line 1", "malformed store value"},
		{"malformed cas new", "0 X 0x0 8 1 0x..", "line 1", "malformed CAS new value"},
		{"short wide payload", "0 W 0x0 16 ffff", "line 1", "malformed wide-store payload"},
		{"odd wide payload", "0 W 0x0 9 ffffffffffffffffff0", "line 1", "malformed wide-store payload"},
		{"mismatched end", "0 C 1\n0 C 1\n0 E nope", "line 3", `end of region "nope" with no matching begin`},
		{"end after end", "0 B r 0x0 0x40\n0 E r\n0 E r", "line 3", `end of region "r" with no matching begin`},
		{"duplicate open region", "0 B r 0x0 0x40\n1 B r 0x40 0x80", "line 2", `region "r" already open (begun at line 1)`},
		{"reserved null name", "0 B - 0x0 0x40", "line 1", "reserved"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(strings.NewReader(tc.src))
			if err == nil {
				t.Fatalf("Parse(%q) succeeded", tc.src)
			}
			if !strings.Contains(err.Error(), tc.line) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Parse(%q) error %q, want %q at %q", tc.src, err, tc.want, tc.line)
			}
		})
	}
}

func TestParseReopenedRegionName(t *testing.T) {
	// A name may be reused once its region is closed.
	src := "0 B r 0x0 0x40\n0 E r\n0 B r 0x40 0x80\n0 E r\n"
	if _, err := Parse(strings.NewReader(src)); err != nil {
		t.Fatal(err)
	}
}

func TestParseCAS(t *testing.T) {
	tr, err := Parse(strings.NewReader("0 X 0x100 8 0x2a 43"))
	if err != nil {
		t.Fatal(err)
	}
	ev := tr.PerThread[0][0]
	if ev.Kind != CAS || ev.Addr != 0x100 || ev.Size != 8 || ev.Value != 42 || ev.Value2 != 43 {
		t.Fatalf("CAS event = %+v", ev)
	}
}

func TestReplayCAS(t *testing.T) {
	// A CAS that hits (0->1) and one that misses (7 != 1): memory must end
	// at the value only the successful swap stored.
	src := `
0 W 0x100 8 0
0 X 0x100 8 0 1
0 X 0x100 8 7 9
`
	tr, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	m := testMachine(core.MESI)
	if _, err := Replay(tr, m); err != nil {
		t.Fatal(err)
	}
	if got := m.Mem().ReadUint(0x100, 8); got != 1 {
		t.Fatalf("mem after CAS pair = %d, want 1", got)
	}
	if m.Counters().Atomics != 2 {
		t.Fatalf("atomics = %d, want 2", m.Counters().Atomics)
	}
}

func TestReplayWideStore(t *testing.T) {
	// A 16-byte store carries its payload as hex; replay must land every
	// byte (the store spans one block here).
	src := "0 W 0x1000 16 000102030405060708090a0b0c0d0e0f\n0 R 0x1000 16\n"
	tr, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	m := testMachine(core.MESI)
	if _, err := Replay(tr, m); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	m.Mem().Read(0x1000, buf)
	for i, b := range buf {
		if int(b) != i {
			t.Fatalf("mem[0x1000+%d] = %d, want %d", i, b, i)
		}
	}
}

func TestReplayNullRegionEnd(t *testing.T) {
	// "E -" removes the null region: legal under both protocols, a no-op
	// beyond the instruction cost.
	src := "0 E -\n0 W 0x100 8 1\n"
	tr, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	for _, proto := range core.Protocols("mesi", "warden") {
		m := testMachine(proto)
		if _, err := Replay(tr, m); err != nil {
			t.Fatalf("%v: %v", proto, err)
		}
		if got := m.Mem().ReadUint(0x100, 8); got != 1 {
			t.Fatalf("%v: mem = %d", proto, got)
		}
	}
}

func TestReplayRoundTrip(t *testing.T) {
	src := `
0 W 0x10000 8 7
0 W 0x10008 8 9
1 C 50
1 R 0x10000 8
1 A 0x10008 8 1
`
	tr, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	m := testMachine(core.MESI)
	res, err := Replay(tr, m)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles == 0 {
		t.Fatal("no cycles")
	}
	if got := m.Mem().ReadUint(0x10000, 8); got != 7 {
		t.Fatalf("mem[0x10000] = %d", got)
	}
	if got := m.Mem().ReadUint(0x10008, 8); got != 10 {
		t.Fatalf("mem[0x10008] = %d (atomic add applied?)", got)
	}
	if err := m.System().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestReplayRegions(t *testing.T) {
	// Two threads write the same WARD block; reconciliation must merge the
	// disjoint sectors.
	src := `
0 B r 0x10000 0x11000
0 C 200
0 W 0x10000 8 1
1 C 220
1 W 0x10008 8 2
0 C 5000
0 E r
`
	tr, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	m := testMachine(core.WARDen)
	if _, err := Replay(tr, m); err != nil {
		t.Fatal(err)
	}
	if m.Counters().WardAccesses == 0 {
		t.Fatal("regions did not take effect")
	}
	if m.Mem().ReadUint(0x10000, 8) != 1 || m.Mem().ReadUint(0x10008, 8) != 2 {
		t.Fatal("reconciliation lost a write")
	}
}

func TestReplayCrossThreadRegionAfterCompute(t *testing.T) {
	// A region begun on one thread and ended on another, where the ending
	// thread computes first: the Compute must not let the end look up the
	// name before the begin has registered it. The name is then reused, so
	// a lookup out of serialized order would also find a stale id.
	src := `
0 B r 0x10000 0x11000
1 C 10
1 E r
2 C 20
2 B r 0x20000 0x21000
3 C 30
3 E r
`
	tr, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	m := testMachine(core.WARDen)
	if _, err := Replay(tr, m); err != nil {
		t.Fatal(err)
	}
	if c := m.Counters(); c.RegionAdds != 2 || c.RegionRemoves != 2 {
		t.Fatalf("region adds/removes = %d/%d, want 2/2", c.RegionAdds, c.RegionRemoves)
	}
	if err := m.System().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestReplayUnknownRegionFails(t *testing.T) {
	// The parser rejects file-order mismatches, but a hand-built Trace can
	// still end a region no thread ever began; replay must catch it.
	tr := &Trace{
		PerThread: map[int][]Event{0: {{Thread: 0, Kind: EndRegion, Name: "nope"}}},
		Events:    1,
	}
	if _, err := Replay(tr, testMachine(core.WARDen)); err == nil {
		t.Fatal("ending an unknown region must fail")
	}
}

func TestReplayTooManyThreads(t *testing.T) {
	tr, err := Parse(strings.NewReader("99 C 1"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(tr, testMachine(core.MESI)); err == nil {
		t.Fatal("thread beyond machine size must fail")
	}
}

func TestReplayDifferentialMESIvsWARDen(t *testing.T) {
	// A WAW ping-pong trace: WARDen must produce (many) fewer
	// invalidations than MESI.
	var sb strings.Builder
	sb.WriteString("0 B r 0x20000 0x21000\n")
	for i := 0; i < 200; i++ {
		sb.WriteString("0 W 0x20000 8 1\n")
		sb.WriteString("1 W 0x20000 8 1\n")
	}
	sb.WriteString("0 C 100000\n0 E r\n")
	tr, err := Parse(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	mM := testMachine(core.MESI)
	if _, err := Replay(tr, mM); err != nil {
		t.Fatal(err)
	}
	mW := testMachine(core.WARDen)
	if _, err := Replay(tr, mW); err != nil {
		t.Fatal(err)
	}
	if mW.Counters().Invalidations*10 > mM.Counters().Invalidations {
		t.Fatalf("WARDen inv=%d not ≪ MESI inv=%d",
			mW.Counters().Invalidations, mM.Counters().Invalidations)
	}
}
