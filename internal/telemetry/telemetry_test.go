package telemetry

import (
	"bytes"
	"compress/gzip"
	"reflect"
	"strings"
	"testing"

	"warden/internal/core"
	"warden/internal/hlpl"
	"warden/internal/machine"
	"warden/internal/pbbs"
	"warden/internal/topology"
	"warden/internal/trace"
)

func testCfg() topology.Config {
	cfg := topology.XeonGold6126(2)
	cfg.CoresPerSocket = 2
	return cfg
}

// runObserved executes benchmark name at the given size with a Capture (and
// optional Perfetto stream) attached, returning the capture and total cycles.
func runObserved(t *testing.T, proto core.Protocol, name string, size int, trace *bytes.Buffer) (*Capture, uint64) {
	t.Helper()
	e, err := pbbs.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testCfg()
	m := machine.New(cfg, proto)
	tcfg := Config{Topology: cfg, WindowCycles: 1 << 12}
	if trace != nil {
		tcfg.Trace = trace
	}
	cap := New(tcfg)
	m.System().SetSink(cap)
	w := e.New(size)
	if w.Prepare != nil {
		w.Prepare(m)
	}
	cycles, err := hlpl.New(m, hlpl.DefaultOptions()).Run(w.Root)
	m.System().SetSink(nil)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := w.Verify(m); err != nil {
		t.Fatalf("verify: %v", err)
	}
	if err := cap.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	return cap, cycles
}

func TestCaptureWindows(t *testing.T) {
	cap, cycles := runObserved(t, core.WARDen, "primes", 4000, nil)

	if cap.Events == 0 {
		t.Fatal("no events observed")
	}
	if cap.FinalCycle != cycles {
		t.Errorf("FinalCycle = %d, want total cycles %d", cap.FinalCycle, cycles)
	}

	ws := cap.Windows
	wins := ws.Live()
	if len(wins) == 0 {
		t.Fatal("no windows")
	}
	// The window series must be contiguous and cover the run.
	for i, w := range wins {
		if w.Index != wins[0].Index+uint64(i) {
			t.Fatalf("window %d has index %d, want %d", i, w.Index, wins[0].Index+uint64(i))
		}
	}
	if last := wins[len(wins)-1]; cycles/ws.WindowCycles != last.Index {
		t.Errorf("last window index %d, want %d (drain at cycle %d)", last.Index, cycles/ws.WindowCycles, cycles)
	}
	if ws.LateDrops != 0 || ws.EvictedWindows != 0 {
		t.Errorf("unexpected drops: late=%d evicted=%d", ws.LateDrops, ws.EvictedWindows)
	}

	// Window totals must sum to consistent aggregates: the per-core split
	// sums to the instruction totals, and the per-directory split to the
	// transaction count.
	var total, coreSum, dirSum WinCounters
	for _, w := range wins {
		total.Add(&w.Total)
		for i := range w.PerCore {
			coreSum.Add(&w.PerCore[i])
		}
		for i := range w.PerDir {
			dirSum.Add(&w.PerDir[i])
		}
	}
	if total.Instructions == 0 || total.Transactions == 0 {
		t.Fatalf("empty totals: %+v", total)
	}
	if coreSum.Instructions != total.Instructions || coreSum.Loads != total.Loads || coreSum.Stores != total.Stores {
		t.Errorf("per-core sum %+v does not match totals %+v", coreSum, total)
	}
	if dirSum.Transactions != total.Transactions || dirSum.Evictions != total.Evictions || dirSum.Reconciles != total.Reconciles {
		t.Errorf("per-dir sum %+v does not match totals %+v", dirSum, total)
	}
	// WARDen on primes must show region activity.
	if len(ws.RegionIDs()) == 0 {
		t.Error("no per-region windows under WARDen")
	}
	if total.WardAccesses == 0 {
		t.Error("no WARD accesses recorded under WARDen")
	}
}

func TestCaptureExports(t *testing.T) {
	cap, _ := runObserved(t, core.WARDen, "primes", 2000, nil)

	var csv bytes.Buffer
	if err := cap.Windows.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != len(cap.Windows.Live())+1 {
		t.Errorf("CSV has %d lines, want %d windows + header", len(lines), len(cap.Windows.Live()))
	}
	if !strings.HasPrefix(lines[0], "window,start_cycle,instr") {
		t.Errorf("bad CSV header: %q", lines[0])
	}

	var jsonl bytes.Buffer
	if err := cap.Windows.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(jsonl.String(), "\n"); n != len(cap.Windows.Live()) {
		t.Errorf("JSONL has %d lines, want %d", n, len(cap.Windows.Live()))
	}

	var ph bytes.Buffer
	if err := cap.Phases.WriteCSV(&ph); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{hlpl.RootPhase, hlpl.TaskPhase, "sieve.init", "sieve.mark"} {
		if !strings.Contains(ph.String(), want+",") {
			t.Errorf("phase CSV missing %q:\n%s", want, ph.String())
		}
	}

	var hm bytes.Buffer
	if err := cap.Heat.WriteCSV(&hm); err != nil {
		t.Fatal(err)
	}
	if len(cap.Heat.Buckets()) == 0 {
		t.Error("empty heatmap")
	}
	if n := len(cap.Heat.Hottest(5)); n > 5 {
		t.Errorf("Hottest(5) returned %d buckets", n)
	}
}

func TestPhaseAccounting(t *testing.T) {
	cap, cycles := runObserved(t, core.MESI, "primes", 2000, nil)

	pa := cap.Phases
	if pa.Unbalanced != 0 {
		t.Fatalf("unbalanced phase markers: %d", pa.Unbalanced)
	}
	root := pa.byName[hlpl.RootPhase]
	if root == nil || root.Opens != 1 {
		t.Fatalf("root phase: %+v", root)
	}
	if root.Cycles == 0 || root.Cycles > cycles {
		t.Errorf("root phase span %d outside (0, %d]", root.Cycles, cycles)
	}
	// Every instruction is attributed exactly once; the split must sum to
	// the run's instruction count.
	var attributed uint64
	for _, ps := range pa.Table() {
		attributed += ps.Ctrs.Instructions
	}
	// Capture windows saw every instruction too: compare against them.
	var total WinCounters
	for _, w := range cap.Windows.Live() {
		total.Add(&w.Total)
	}
	if attributed != total.Instructions {
		t.Errorf("phase-attributed instructions %d != windowed instructions %d", attributed, total.Instructions)
	}
	// The user-named phases from pbbs.Primes must be present with work.
	for _, name := range []string{"sieve.init", "sieve.mark"} {
		ps := pa.byName[name]
		if ps == nil || ps.Ctrs.Stores == 0 {
			t.Errorf("phase %q missing or without stores: %+v", name, ps)
		}
	}
}

func TestPerfettoTraceValidates(t *testing.T) {
	var buf bytes.Buffer
	_, _ = runObserved(t, core.WARDen, "primes", 2000, &buf)

	st, err := ValidatePerfetto(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("trace does not validate: %v\nfirst 600 bytes:\n%s", err, head(buf.String(), 600))
	}
	if st.PhasePairs == 0 || st.Slices == 0 {
		t.Fatalf("trace too empty: %+v", st)
	}
	// Every HLPL scope kind and the named program phases appear as slices.
	for _, name := range []string{hlpl.RootPhase, hlpl.TaskPhase, "sieve.init", "sieve.mark"} {
		if st.PhaseNames[name] == 0 {
			t.Errorf("no %q phase slices in trace", name)
		}
	}
	// Coherence slices must be enclosed by phases: the root phase spans the
	// whole computation, so only pre-worker-start or post-drain activity may
	// fall outside. The drain and idle steal probes outside phases are the
	// only expected out-of-phase coherence events.
	if st.InPhase == 0 {
		t.Error("no coherence events inside phases")
	}
	if st.InPhase < st.OutOfPhase {
		t.Errorf("more coherence events outside phases (%d) than inside (%d)", st.OutOfPhase, st.InPhase)
	}
}

// TestGzipTraceRoundTrip proves the wardenreport -validate path is gzip
// transparent: a compressed trace validates identically to the plain one
// through trace.Reader's magic-byte sniffing.
func TestGzipTraceRoundTrip(t *testing.T) {
	var plain bytes.Buffer
	_, _ = runObserved(t, core.WARDen, "primes", 2000, &plain)
	want, err := ValidatePerfetto(bytes.NewReader(plain.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(plain.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := trace.Reader(bytes.NewReader(gz.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := ValidatePerfetto(r)
	if err != nil {
		t.Fatalf("gzip trace fails validation: %v", err)
	}
	if !reflect.DeepEqual(got, want) || got.Slices == 0 {
		t.Fatalf("gzip round trip changed the trace: got %+v, want %+v", got, want)
	}
}

func TestValidatePerfettoRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"not json": `{"traceEvents":[`,
		"unbalanced": `{"traceEvents":[
			{"name":"p","ph":"B","ts":1,"pid":0,"tid":0}]}`,
		"mismatched": `{"traceEvents":[
			{"name":"p","ph":"B","ts":1,"pid":0,"tid":0},
			{"name":"q","ph":"E","ts":2,"pid":0,"tid":0}]}`,
		"backwards ts": `{"traceEvents":[
			{"name":"p","ph":"B","ts":5,"pid":0,"tid":0},
			{"name":"p","ph":"E","ts":3,"pid":0,"tid":0}]}`,
		"negative dur": `{"traceEvents":[
			{"name":"x","cat":"coherence","ph":"X","ts":2,"dur":-1,"pid":0,"tid":0}]}`,
		"stray end": `{"traceEvents":[
			{"name":"p","ph":"E","ts":1,"pid":0,"tid":0}]}`,
		"bad letter": `{"traceEvents":[
			{"name":"p","ph":"Q","ts":1,"pid":0,"tid":0}]}`,
	}
	for name, doc := range cases {
		if _, err := ValidatePerfetto(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: validated but should not", name)
		}
	}
	// A well-formed document passes.
	ok := `{"traceEvents":[
		{"name":"p","ph":"B","ts":1,"pid":0,"tid":0},
		{"name":"x","cat":"coherence","ph":"X","ts":2,"dur":1,"pid":0,"tid":0},
		{"name":"p","ph":"E","ts":4,"pid":0,"tid":0},
		{"name":"i","cat":"coherence","ph":"i","s":"t","ts":9,"pid":0,"tid":1}]}`
	st, err := ValidatePerfetto(strings.NewReader(ok))
	if err != nil {
		t.Fatalf("well-formed doc rejected: %v", err)
	}
	if st.PhasePairs != 1 || st.Slices != 1 || st.Instants != 1 || st.InPhase != 1 || st.OutOfPhase != 1 {
		t.Errorf("unexpected stats: %+v", st)
	}
}

func TestWindowRingEviction(t *testing.T) {
	cfg := testCfg()
	ws := newWindows(cfg, 100, 4)
	ev := &core.Event{Kind: core.EvCompute, Thread: 0, Core: 0, Arg1: 1}
	for c := uint64(0); c < 1000; c += 100 {
		ev.Cycle = c
		ws.observe(ev)
	}
	if len(ws.Live()) != 4 {
		t.Fatalf("ring holds %d windows, want 4", len(ws.Live()))
	}
	if ws.EvictedWindows != 6 {
		t.Errorf("evicted %d windows, want 6", ws.EvictedWindows)
	}
	if ws.EvictedTotals.Instructions != 6 {
		t.Errorf("evicted totals hold %d instructions, want 6", ws.EvictedTotals.Instructions)
	}
	// A stale event (older than the ring) is dropped, not misfiled.
	ev.Cycle = 0
	ws.observe(ev)
	if ws.LateDrops != 1 {
		t.Errorf("LateDrops = %d, want 1", ws.LateDrops)
	}
	// A huge forward jump resets the ring rather than materializing every
	// intermediate window.
	ev.Cycle = 1 << 40
	ws.observe(ev)
	if got := len(ws.Live()); got != 1 {
		t.Errorf("after jump ring holds %d windows, want 1", got)
	}
	var sum uint64
	for _, w := range ws.Live() {
		sum += w.Total.Instructions
	}
	if sum+ws.EvictedTotals.Instructions != 11 {
		t.Errorf("live (%d) + evicted (%d) instructions != 11 observed", sum, ws.EvictedTotals.Instructions)
	}
}

func TestWriteHTMLReport(t *testing.T) {
	capM, cyclesM := runObserved(t, core.MESI, "primes", 2000, nil)
	capW, cyclesW := runObserved(t, core.WARDen, "primes", 2000, nil)

	mk := func(proto string, cycles uint64, c *Capture) *RunReport {
		return &RunReport{
			Benchmark: "primes", Protocol: proto, Size: "2000",
			Machine: testCfg().Name, Cycles: cycles, Capture: c,
		}
	}
	var buf bytes.Buffer
	err := WriteHTML(&buf, "primes small", []*RunReport{
		mk("MESI", cyclesM, capM), mk("WARDen", cyclesW, capW),
	})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"<!DOCTYPE html>", "WARDen vs MESI", "speedup", "<svg", "sieve.mark", "Hottest address buckets"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	// Deterministic output: rendering twice gives identical bytes.
	var buf2 bytes.Buffer
	if err := WriteHTML(&buf2, "primes small", []*RunReport{
		mk("MESI", cyclesM, capM), mk("WARDen", cyclesW, capW),
	}); err != nil {
		t.Fatal(err)
	}
	if buf.String() != buf2.String() {
		t.Error("report rendering is not deterministic")
	}
}

func head(s string, n int) string {
	if len(s) > n {
		return s[:n]
	}
	return s
}
