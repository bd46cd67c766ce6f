package attrib

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"warden/internal/cache"
	"warden/internal/core"
	"warden/internal/mem"
	"warden/internal/stats"
)

// instr feeds one instruction-level event through the ledger.
func instr(l *Ledger, thread int, kind core.EventKind, cycle, adv uint64, block uint64) {
	l.Event(&core.Event{
		Kind: kind, Thread: thread, Core: thread, Cycle: cycle,
		Advance: adv, Block: mem.Addr(block), Addr: mem.Addr(block),
	})
}

func marker(l *Ledger, thread int, kind core.EventKind, label string) {
	l.Event(&core.Event{Kind: kind, Thread: thread, Label: label})
}

func TestLedgerReconcilesExactly(t *testing.T) {
	l := New(Config{BucketBytes: 64})
	// Thread 0: 10 + 5 cycles; thread 1: 7 cycles. Run cycles = 15.
	instr(l, 0, core.EvLoad, 0, 10, 0x1000)
	instr(l, 0, core.EvCompute, 10, 5, 0)
	instr(l, 1, core.EvStore, 0, 7, 0x1040)
	if err := l.Reconcile(15); err != nil {
		t.Fatalf("Reconcile(15): %v", err)
	}
	if th, cy, ok := l.CriticalThread(); !ok || th != 0 || cy != 15 {
		t.Fatalf("CriticalThread = %d,%d,%v; want 0,15,true", th, cy, ok)
	}
	if err := l.Reconcile(16); err == nil {
		t.Fatal("Reconcile(16) accepted a 1-cycle residue")
	}
	if got := l.ThreadCycles(1); got != 7 {
		t.Fatalf("ThreadCycles(1) = %d, want 7", got)
	}
}

func TestLedgerDetectsPerThreadResidue(t *testing.T) {
	l := New(Config{})
	// Advance says 3 but the next event's Cycle implies the clock moved 5:
	// sum(3) != clock(5) must be caught even when the run total matches.
	instr(l, 0, core.EvLoad, 0, 3, 0)
	l.Event(&core.Event{Kind: core.EvLoad, Thread: 0, Cycle: 5, Advance: 0})
	if err := l.Reconcile(5); err == nil || !strings.Contains(err.Error(), "residue") {
		t.Fatalf("per-thread residue not detected: %v", err)
	}
}

func TestLedgerPhaseAndBucketAxes(t *testing.T) {
	l := New(Config{BucketBytes: 4096})
	marker(l, 0, core.EvPhaseBegin, "build")
	instr(l, 0, core.EvLoad, 0, 4, 0x1010)
	marker(l, 0, core.EvPhaseEnd, "build")
	instr(l, 0, core.EvLoad, 4, 4, 0x1020) // outside any phase, same page
	l.Event(&core.Event{Kind: core.EvDrain, Thread: -1, Cycle: 8})
	rows := l.Rows()
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3: %+v", len(rows), rows)
	}
	byPhase := map[string]uint64{}
	for _, r := range rows {
		byPhase[r.Phase] += r.Cycles
		if r.Kind == core.EvLoad && r.Bucket != 0x1000 {
			t.Fatalf("load bucket = %#x, want 0x1000", r.Bucket)
		}
	}
	if byPhase["build"] != 4 || byPhase[OutsidePhase] != 4 || byPhase[SystemPhase] != 0 {
		t.Fatalf("phase attribution wrong: %v", byPhase)
	}
	if l.Unbalanced != 0 {
		t.Fatalf("Unbalanced = %d", l.Unbalanced)
	}
	marker(l, 0, core.EvPhaseEnd, "never-opened")
	if l.Unbalanced != 1 {
		t.Fatalf("unmatched EvPhaseEnd not counted")
	}
}

func txn(l *Ledger, block uint64, from, to cache.State, inv uint64) {
	l.Event(&core.Event{
		Kind: core.EvTransaction, Thread: 0, Core: 0,
		Block: mem.Addr(block), Mode: core.ModeWrite,
		DirBefore: from, DirAfter: to,
		Ctrs: stats.Snapshot{Invalidations: inv},
	})
}

func TestFlightRecorderBoundsAndChurn(t *testing.T) {
	l := New(Config{FlightDepth: 4, MaxBlocks: 2})
	for i := 0; i < 10; i++ {
		txn(l, 0x100, cache.Shared, cache.Modified, 2)
	}
	txn(l, 0x200, cache.Invalid, cache.Exclusive, 0)
	txn(l, 0x300, cache.Invalid, cache.Exclusive, 0) // over MaxBlocks
	f := l.Flight()
	b := f.Block(0x100)
	if b == nil {
		t.Fatal("block 0x100 untracked")
	}
	if got := len(b.Timeline()); got != 4 {
		t.Fatalf("ring holds %d, want FlightDepth=4", got)
	}
	if b.Dropped != 6 || b.Transactions != 10 {
		t.Fatalf("Dropped=%d Transactions=%d, want 6/10", b.Dropped, b.Transactions)
	}
	if b.Invalidations != 20 || b.InvChains != 10 || b.MaxChain != 2 {
		t.Fatalf("churn aggregates wrong: %+v", b)
	}
	if f.Block(0x300) != nil || f.Untracked != 1 {
		t.Fatalf("MaxBlocks not enforced: untracked=%d", f.Untracked)
	}
	// Hottest-first ordering and summaries.
	blocks := f.Blocks()
	if len(blocks) != 2 || blocks[0].Block != 0x100 {
		t.Fatalf("Blocks() order wrong: %+v", blocks)
	}
	var buf bytes.Buffer
	if err := f.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if lines := bytes.Count(buf.Bytes(), []byte("\n")); lines != 2 {
		t.Fatalf("WriteJSONL wrote %d lines, want 2", lines)
	}
}

func TestExplainSumsExactlyToDelta(t *testing.T) {
	subject := New(Config{BucketBytes: 64})
	instr(subject, 0, core.EvLoad, 0, 100, 0x0)
	instr(subject, 0, core.EvStore, 100, 50, 0x40)
	instr(subject, 1, core.EvLoad, 0, 20, 0x0)

	baseline := New(Config{BucketBytes: 64})
	instr(baseline, 0, core.EvLoad, 0, 120, 0x0)
	instr(baseline, 0, core.EvAtomic, 120, 60, 0x80)

	ex, err := Explain("warden", subject, 150, "mesi", baseline, 180)
	if err != nil {
		t.Fatalf("Explain: %v", err)
	}
	if ex.CycleDelta != -30 {
		t.Fatalf("CycleDelta = %d, want -30", ex.CycleDelta)
	}
	var sum int64
	for _, d := range ex.Deltas {
		sum += d.Delta
	}
	if sum != ex.CycleDelta {
		t.Fatalf("bucket deltas sum %d != delta %d", sum, ex.CycleDelta)
	}
	// Thread 1's 20 cycles are off the critical path and must not appear.
	for _, d := range ex.Deltas {
		if d.Subject == 20 {
			t.Fatalf("non-critical thread leaked into decomposition: %+v", d)
		}
	}
	kinds := ex.TopKinds()
	if len(kinds) == 0 || abs64(kinds[0].Delta) < abs64(kinds[len(kinds)-1].Delta) {
		t.Fatalf("TopKinds not |delta|-descending: %+v", kinds)
	}
	var txt bytes.Buffer
	if err := ex.WriteText(&txt, 5); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(txt.String(), "residue 0") {
		t.Fatalf("text report missing reconciliation line:\n%s", txt.String())
	}
}

func TestExplainRejectsResidue(t *testing.T) {
	subject := New(Config{})
	instr(subject, 0, core.EvLoad, 0, 10, 0)
	baseline := New(Config{})
	instr(baseline, 0, core.EvLoad, 0, 10, 0)
	if _, err := Explain("a", subject, 11, "b", baseline, 10); err == nil {
		t.Fatal("Explain accepted a subject-side residue")
	}
}

func TestLedgerJSONLDeterministic(t *testing.T) {
	build := func() *Ledger {
		l := New(Config{BucketBytes: 64})
		instr(l, 1, core.EvStore, 0, 3, 0x40)
		instr(l, 0, core.EvLoad, 0, 2, 0x0)
		instr(l, 0, core.EvCompute, 2, 1, 0)
		return l
	}
	var a, b bytes.Buffer
	if err := build().WriteJSONL(&a); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("JSONL not deterministic:\n%s\nvs\n%s", a.String(), b.String())
	}
	if !strings.Contains(a.String(), `"bucket":"-"`) {
		t.Fatalf("NoBucket not rendered as '-':\n%s", a.String())
	}
}

func TestAnnotateVocabulary(t *testing.T) {
	cases := []struct {
		tr   Transition
		want string
	}{
		{Transition{Kind: "transaction", Mode: "read", From: "I", To: "E"}, "read miss"},
		{Transition{Kind: "transaction", Mode: "write", From: "S", To: "M", Invalidations: 3}, "3 sharer(s) invalidated"},
		{Transition{Kind: "transaction", Mode: "read", From: "E", To: "S", Downgrades: 1}, "Fwd-GetS"},
		{Transition{Kind: "transaction", Mode: "write", From: "I", To: "W"}, "ward grant"},
		{Transition{Kind: "transaction", Mode: "atomic", From: "W", To: "M"}, "forced reconcile"},
		{Transition{Kind: "evict", LineState: "M"}, "PutM"},
		{Transition{Kind: "reconcile", Writers: 2, SectorMask: 0x3}, "2 writer(s)"},
	}
	for _, c := range cases {
		if got := Annotate(c.tr); !strings.Contains(got, c.want) {
			t.Errorf("Annotate(%+v) = %q, want substring %q", c.tr, got, c.want)
		}
	}
}

func TestSampling(t *testing.T) {
	l := New(Config{SampleEvery: 2})
	for i := uint64(0); i < 6; i++ {
		instr(l, 0, core.EvLoad, i*4, 4, 0)
	}
	s := l.Samples()
	if len(s) != 3 {
		t.Fatalf("got %d samples, want 3", len(s))
	}
	if s[2].ByKind["load"] != 24 {
		t.Fatalf("last sample cumulative = %d, want 24", s[2].ByKind["load"])
	}
}

// refLedger is the map-based ledger the dense Ledger replaced, kept as the
// reference model for TestLedgerMatchesReference. It keys every account by
// its full Key, phase string included, in plain Go maps. Reconcile walks
// thread ids in ascending order, so that with several residues it names
// the same thread on every run.
type refLedger struct {
	cfg        Config
	accounts   map[Key]*Account
	threads    map[int]*refTotal
	stacks     map[int][]string
	unbalanced uint64
	events     uint64
	perKind    map[core.EventKind]uint64
	samples    []Sample
}

type refTotal struct{ sum, clock uint64 }

func newRef(cfg Config) *refLedger {
	return &refLedger{
		cfg:      cfg.withDefaults(),
		accounts: make(map[Key]*Account),
		threads:  make(map[int]*refTotal),
		stacks:   make(map[int][]string),
		perKind:  make(map[core.EventKind]uint64),
	}
}

func (l *refLedger) Event(ev *core.Event) {
	l.events++
	switch ev.Kind {
	case core.EvPhaseBegin:
		l.stacks[ev.Thread] = append(l.stacks[ev.Thread], ev.Label)
		return
	case core.EvPhaseEnd:
		st := l.stacks[ev.Thread]
		if n := len(st); n > 0 && st[n-1] == ev.Label {
			l.stacks[ev.Thread] = st[:n-1]
		} else {
			l.unbalanced++
		}
		return
	case core.EvTransaction, core.EvEvict, core.EvReconcile:
		return
	}
	if ev.Thread >= 0 {
		tt := l.threads[ev.Thread]
		if tt == nil {
			tt = &refTotal{}
			l.threads[ev.Thread] = tt
		}
		tt.sum += ev.Advance
		if end := ev.Cycle + ev.Advance; end > tt.clock {
			tt.clock = end
		}
	}
	bucket := NoBucket
	switch ev.Kind {
	case core.EvLoad, core.EvStore, core.EvAtomic:
		bucket = uint64(ev.Block) &^ (l.cfg.BucketBytes - 1)
	}
	phase := OutsidePhase
	if ev.Thread < 0 {
		phase = SystemPhase
	} else if st := l.stacks[ev.Thread]; len(st) > 0 {
		phase = st[len(st)-1]
	}
	k := Key{Thread: ev.Thread, Kind: ev.Kind, Bucket: bucket, Phase: phase}
	acct := l.accounts[k]
	if acct == nil {
		acct = &Account{Key: k, Core: ev.Core}
		l.accounts[k] = acct
	}
	acct.Cycles += ev.Advance
	acct.Events++
	l.perKind[ev.Kind] += ev.Advance
	if l.cfg.SampleEvery > 0 && l.events%l.cfg.SampleEvery == 0 {
		by := make(map[string]uint64, len(l.perKind))
		for k, v := range l.perKind {
			by[k.String()] = v
		}
		l.samples = append(l.samples, Sample{Cycle: ev.Cycle + ev.Advance, ByKind: by, Untimed: l.events})
	}
}

func (l *refLedger) Rows() []*Account {
	rows := make([]*Account, 0, len(l.accounts))
	for _, a := range l.accounts {
		c := *a
		rows = append(rows, &c)
	}
	sortRows(rows)
	return rows
}

func (l *refLedger) ThreadCycles(t int) uint64 {
	if tt := l.threads[t]; tt != nil {
		return tt.clock
	}
	return 0
}

func (l *refLedger) CriticalThread() (thread int, cycles uint64, ok bool) {
	thread = -1
	for id, tt := range l.threads {
		if !ok || tt.clock > cycles || (tt.clock == cycles && id < thread) {
			thread, cycles, ok = id, tt.clock, true
		}
	}
	return thread, cycles, ok
}

func (l *refLedger) Reconcile(total uint64) error {
	ids := make([]int, 0, len(l.threads))
	for id := range l.threads {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var maxClock uint64
	for _, id := range ids {
		tt := l.threads[id]
		if tt.sum != tt.clock {
			return fmt.Errorf("attrib: thread %d residue: sum of advances %d != final clock %d (residue %d)",
				id, tt.sum, tt.clock, int64(tt.sum)-int64(tt.clock))
		}
		if tt.clock > maxClock {
			maxClock = tt.clock
		}
	}
	if maxClock != total {
		return fmt.Errorf("attrib: run residue: max thread clock %d != measured cycles %d (residue %d)",
			maxClock, total, int64(maxClock)-int64(total))
	}
	return nil
}

func (l *refLedger) dims(t int) map[DimKey]uint64 {
	acc := make(map[DimKey]uint64)
	for _, a := range l.accounts {
		if a.Thread == t {
			acc[DimKey{Kind: a.Kind, Bucket: a.Bucket, Phase: a.Phase}] += a.Cycles
		}
	}
	return acc
}

// genStream builds a seeded random event stream: instruction events of
// every kind (zero advances and address-less kinds included) on threads
// -1..5, nested, mismatched and foreign-thread phase markers, and flight
// events. With residue set, some events jump their thread's clock, so the
// per-thread sums and clocks disagree.
func genStream(rng *rand.Rand, n int, residue bool) []core.Event {
	labels := []string{"build", "reduce", "scan", OutsidePhase, SystemPhase}
	clocks := map[int]uint64{}
	open := map[int][]string{}
	var evs []core.Event
	for i := 0; i < n; i++ {
		t := rng.Intn(7) - 1
		switch r := rng.Intn(20); {
		case r < 2:
			l := labels[rng.Intn(len(labels))]
			open[t] = append(open[t], l)
			evs = append(evs, core.Event{Kind: core.EvPhaseBegin, Thread: t, Label: l})
		case r < 4:
			l := labels[rng.Intn(len(labels))]
			if st := open[t]; len(st) > 0 && rng.Intn(3) > 0 {
				l = st[len(st)-1] // mostly balanced
				open[t] = st[:len(st)-1]
			}
			if rng.Intn(4) == 0 {
				t = rng.Intn(7) - 1 // foreign thread
			}
			evs = append(evs, core.Event{Kind: core.EvPhaseEnd, Thread: t, Label: l})
		case r < 5:
			evs = append(evs, core.Event{Kind: core.EvTransaction, Thread: t, Block: mem.Addr(rng.Intn(8) * 64)})
		default:
			kind := core.EventKind(rng.Intn(int(core.EvDrain) + 1))
			adv := uint64(rng.Intn(4))
			if rng.Intn(8) == 0 {
				adv = uint64(rng.Intn(200))
			}
			cycle := clocks[t]
			if residue && rng.Intn(50) == 0 {
				cycle += uint64(rng.Intn(5))
			}
			clocks[t] = cycle + adv
			evs = append(evs, core.Event{
				Kind: kind, Thread: t, Core: t / 2, Cycle: cycle, Advance: adv,
				Block: mem.Addr(rng.Intn(1 << 14)),
			})
		}
	}
	return evs
}

// TestLedgerMatchesReference feeds the dense Ledger and the map-based
// refLedger the same random streams and requires every output to agree:
// rows, JSONL bytes, per-thread clocks, the critical thread, Reconcile's
// verdict and text, samples, the unbalanced count, and Explain's report.
func TestLedgerMatchesReference(t *testing.T) {
	explained := 0
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{
			BucketBytes: []uint64{1, 64, 4096}[rng.Intn(3)],
			SampleEvery: []uint64{0, 1, 3, 7}[rng.Intn(4)],
		}
		residue := seed%4 == 3
		build := func() (*Ledger, *refLedger) {
			l, r := New(cfg), newRef(cfg)
			for _, ev := range genStream(rng, 50+rng.Intn(400), residue) {
				e := ev
				l.Event(&e)
				r.Event(&ev)
			}
			return l, r
		}
		l, r := build()
		where := fmt.Sprintf("seed %d (cfg %+v)", seed, cfg)
		compareLedgers(t, where, l, r)
		if t.Failed() {
			return
		}

		// Explain over a second pair, both sides reconciled at their
		// critical clocks (or rejected identically when they cannot be).
		l2, r2 := build()
		_, sc, _ := r.CriticalThread()
		_, bc, _ := r2.CriticalThread()
		ex, err := Explain("subject", l, sc, "baseline", l2, bc)
		rex, rerr := explain("subject", r, sc, "baseline", r2, bc)
		if fmt.Sprint(err) != fmt.Sprint(rerr) {
			t.Fatalf("%s: Explain error %v, reference %v", where, err, rerr)
		}
		if err != nil {
			continue
		}
		var got, want bytes.Buffer
		if err := ex.WriteText(&got, 5); err != nil {
			t.Fatal(err)
		}
		if err := rex.WriteText(&want, 5); err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Fatalf("%s: Explain text differs:\n%s\nreference:\n%s", where, got.String(), want.String())
		}
		explained++
	}
	if explained < 100 {
		t.Fatalf("only %d of 200 seeds reached an explanation", explained)
	}
}

func compareLedgers(t *testing.T, where string, l *Ledger, r *refLedger) {
	t.Helper()
	rows, rrows := l.Rows(), r.Rows()
	if len(rows) != len(rrows) {
		t.Fatalf("%s: %d rows, reference %d", where, len(rows), len(rrows))
	}
	for i := range rows {
		if *rows[i] != *rrows[i] {
			t.Fatalf("%s: row %d = %+v, reference %+v", where, i, *rows[i], *rrows[i])
		}
	}
	var got, want bytes.Buffer
	if err := l.WriteJSONL(&got); err != nil {
		t.Fatal(err)
	}
	if err := writeJSONL(&want, rrows); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("%s: JSONL differs:\n%s\nreference:\n%s", where, got.String(), want.String())
	}
	for th := -2; th <= 7; th++ {
		if a, b := l.ThreadCycles(th), r.ThreadCycles(th); a != b {
			t.Fatalf("%s: ThreadCycles(%d) = %d, reference %d", where, th, a, b)
		}
	}
	ct, cc, cok := l.CriticalThread()
	rt, rc, rok := r.CriticalThread()
	if ct != rt || cc != rc || cok != rok {
		t.Fatalf("%s: CriticalThread = %d,%d,%v, reference %d,%d,%v", where, ct, cc, cok, rt, rc, rok)
	}
	for _, total := range []uint64{rc, rc + 1, 0} {
		err, rerr := l.Reconcile(total), r.Reconcile(total)
		if fmt.Sprint(err) != fmt.Sprint(rerr) {
			t.Fatalf("%s: Reconcile(%d) = %v, reference %v", where, total, err, rerr)
		}
	}
	if !reflect.DeepEqual(l.Samples(), r.samples) {
		t.Fatalf("%s: samples differ:\n%+v\nreference:\n%+v", where, l.Samples(), r.samples)
	}
	if l.Unbalanced != r.unbalanced || l.Events() != r.events {
		t.Fatalf("%s: Unbalanced/Events = %d/%d, reference %d/%d", where, l.Unbalanced, l.Events(), r.unbalanced, r.events)
	}
}

// BenchmarkLedgerEvent measures folding one instruction event into a
// ledger whose accounts already exist: loads on a thread inside a phase,
// switching between two pages every 64th event, so one event in 64 takes
// a different account than its thread's last one of its kind (lens-2s
// measures about one in 75).
func BenchmarkLedgerEvent(b *testing.B) {
	l := New(Config{})
	l.Event(&core.Event{Kind: core.EvPhaseBegin, Thread: 3, Label: "build"})
	ev := core.Event{Kind: core.EvLoad, Thread: 3, Core: 1, Advance: 2}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ev.Block = mem.Addr(i>>6&1) << 12
		ev.Cycle = uint64(2 * i)
		l.Event(&ev)
	}
}
