// Package attrib is the exact cycle-attribution layer: a core.Sink that
// folds the instruction-level event stream into per-core × per-event-kind ×
// per-address-bucket × per-phase cycle accounts, together with a bounded
// per-block flight recorder of coherence transitions (flight.go) and a
// protocol-delta explainer (explain.go) that decomposes a subject-vs-
// baseline cycle difference into those accounts with zero residue.
//
// The exactness contract rests on one engine identity: a thread's clock
// advances only by the value the machine's op handler returns, and that
// value is stamped on every instruction-level event as Event.Advance. The
// sum of Advance over a thread's events is therefore the thread's final
// clock, and the run's cycle count is the maximum over threads. Reconcile
// checks both equalities and treats any residue as an error — an
// attribution that does not sum to the measurement is a bug, not a caveat.
//
// Like every sink before it (telemetry, trace), a Ledger is pure
// observation: it copies what it needs from each event and never mutates
// the simulated system, so attribution-enabled runs are byte-identical to
// bare runs (TestAttribMatchesUnobserved).
package attrib

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"warden/internal/core"
)

// Pseudo-phase names, shared with internal/telemetry's phase table so the
// two attributions of one run agree row for row.
const (
	// OutsidePhase attributes events on a thread with no open phase.
	OutsidePhase = "(outside)"
	// SystemPhase attributes threadless events (the end-of-run drain).
	SystemPhase = "(system)"
)

// NoBucket is the address-bucket value for instruction kinds that carry no
// address operand (compute, fences, region ops, drain).
const NoBucket = ^uint64(0)

// Config parameterizes a Ledger. The zero value is usable: defaults are
// filled in by New.
type Config struct {
	// BucketBytes is the address-bucket granularity (power of two).
	// Default 4096 — one page, matching the telemetry heatmap.
	BucketBytes uint64
	// FlightDepth bounds the per-block transition ring. Default 32.
	FlightDepth int
	// MaxBlocks bounds how many distinct blocks the flight recorder
	// tracks; once full, transitions on new blocks are counted but not
	// recorded. Default 4096.
	MaxBlocks int
	// SampleEvery emits one cumulative-cycles sample per this many
	// instruction events, feeding the Perfetto counter tracks. 0 disables
	// sampling.
	SampleEvery uint64
}

func (c Config) withDefaults() Config {
	if c.BucketBytes == 0 {
		c.BucketBytes = 4096
	}
	if c.BucketBytes&(c.BucketBytes-1) != 0 {
		panic("attrib: BucketBytes must be a power of two")
	}
	if c.FlightDepth <= 0 {
		c.FlightDepth = 32
	}
	if c.MaxBlocks <= 0 {
		c.MaxBlocks = 4096
	}
	return c
}

// Key identifies one attribution account. Bucket is the address bucket
// (NoBucket for address-less kinds); Phase is the innermost program phase
// open on the thread when the instruction retired.
type Key struct {
	Thread int
	Kind   core.EventKind
	Bucket uint64
	Phase  string
}

// Account is one ledger cell: every cycle the engine charged Thread for
// Kind instructions touching Bucket inside Phase.
type Account struct {
	Key
	Core   int    // core the thread maps to (topology-invariant per run)
	Cycles uint64 // sum of Event.Advance
	Events uint64 // instruction count
}

// Sample is one point of the cumulative attributed-cycles series, for
// counter tracks: total cycles attributed per kind up to Cycle.
type Sample struct {
	Cycle   uint64
	ByKind  map[string]uint64
	Untimed uint64 // events observed so far (all kinds)
}

// numKinds bounds the dense per-kind tables: the instruction-level kinds,
// the only ones the ledger charges.
const numKinds = int(core.EvDrain) + 1

// Interned ids of the pseudo-phases.
const (
	outsideID int32 = iota
	systemID
)

// acctKey is the string-free form of Key: 24 bytes with no padding.
type acctKey struct {
	bucket uint64
	thread int
	kind   int32
	phase  int32
}

// account is the dense form of one ledger cell. Phase is an interned id;
// the Key/Account form is built only when a report asks for rows.
type account struct {
	thread int
	core   int
	bucket uint64
	cycles uint64
	events uint64
	phase  int32
	kind   core.EventKind
}

// threadSlot is one thread's slot in the ledger.
type threadSlot struct {
	// seen marks a thread with at least one instruction event; sum and
	// clock reconstruct its clock two independent ways: the sum of
	// Advance over its events, and the max over events of Cycle+Advance
	// (the post-op clock).
	seen       bool
	sum, clock uint64
	stack      []int32 // open phases (interned ids), innermost last
	// last caches, per kind, 1 + the index of the account the thread's
	// latest event of that kind was charged to (0: none yet). On lens-2s
	// about 74 events in 75 hit it and skip the index.
	last [numKinds]int32
}

// Ledger is the attribution sink. Not safe for concurrent use; the event
// stream is serialized by construction.
//
// Its tables are dense: threads is indexed by thread id + 1 (slot 0 holds
// the threadless id -1), phases are interned to int32 ids, per-kind totals
// are an array indexed by kind, and accounts live in one slice found
// through a per-thread, per-kind last-account cache backed by a map over
// the string-free key. No event hashes a string.
type Ledger struct {
	cfg     Config
	threads []threadSlot
	accts   []account
	index   map[acctKey]int32 // full key -> index into accts
	phases  []string
	phaseID map[string]int32
	flight  *Flight

	// Unbalanced counts EvPhaseEnd markers that did not match the top of
	// their thread's stack. Always zero for runtime-emitted markers.
	Unbalanced uint64

	events   uint64
	perKind  [numKinds]uint64 // cumulative cycles per kind
	kindSeen uint32           // bit k: kind k has been charged (even zero cycles)
	samples  []Sample
	reconOK  bool
	reconFor uint64
}

// New builds a Ledger with cfg (zero value → defaults).
func New(cfg Config) *Ledger {
	cfg = cfg.withDefaults()
	return &Ledger{
		cfg:     cfg,
		phases:  []string{outsideID: OutsidePhase, systemID: SystemPhase},
		phaseID: map[string]int32{OutsidePhase: outsideID, SystemPhase: systemID},
		index:   make(map[acctKey]int32),
		flight:  newFlight(cfg),
	}
}

// Flight returns the ledger's block flight recorder.
func (l *Ledger) Flight() *Flight { return l.flight }

// Config returns the (defaulted) configuration the ledger runs with.
func (l *Ledger) Config() Config { return l.cfg }

// Events returns how many events of any kind the ledger observed.
func (l *Ledger) Events() uint64 { return l.events }

// Event implements core.Sink.
func (l *Ledger) Event(ev *core.Event) {
	l.events++
	switch ev.Kind {
	case core.EvPhaseBegin:
		th := l.thread(ev.Thread)
		th.stack = append(th.stack, l.intern(ev.Label))
		return
	case core.EvPhaseEnd:
		th := l.thread(ev.Thread)
		if n := len(th.stack); n > 0 && l.phases[th.stack[n-1]] == ev.Label {
			th.stack = th.stack[:n-1]
		} else {
			l.Unbalanced++
		}
		return
	case core.EvTransaction, core.EvEvict, core.EvReconcile:
		l.flight.observe(ev)
		return
	}
	// Instruction-level event: charge its Advance to the account of its
	// thread, kind, bucket and innermost open phase.
	th := l.thread(ev.Thread)
	phase := systemID
	if ev.Thread >= 0 {
		th.seen = true
		th.sum += ev.Advance
		if end := ev.Cycle + ev.Advance; end > th.clock {
			th.clock = end
		}
		phase = outsideID
		if n := len(th.stack); n > 0 {
			phase = th.stack[n-1]
		}
	}
	bucket := l.bucketOf(ev)
	i := th.last[ev.Kind] - 1
	if i < 0 || l.accts[i].bucket != bucket || l.accts[i].phase != phase {
		i = l.account(ev.Thread, ev.Kind, bucket, phase, ev.Core)
		th.last[ev.Kind] = i + 1
	}
	a := &l.accts[i]
	a.cycles += ev.Advance
	a.events++
	l.perKind[ev.Kind] += ev.Advance
	l.kindSeen |= 1 << uint(ev.Kind)
	if l.cfg.SampleEvery > 0 && l.events%l.cfg.SampleEvery == 0 {
		l.sample(ev.Cycle + ev.Advance)
	}
}

// thread returns t's slot (t >= -1), creating it on first use.
func (l *Ledger) thread(t int) *threadSlot {
	if t+1 >= len(l.threads) {
		l.threads = append(l.threads, make([]threadSlot, t+2-len(l.threads))...)
	}
	return &l.threads[t+1]
}

// intern returns the id of phase name, assigning the next one if new.
func (l *Ledger) intern(name string) int32 {
	id, ok := l.phaseID[name]
	if !ok {
		id = int32(len(l.phases))
		l.phases = append(l.phases, name)
		l.phaseID[name] = id
	}
	return id
}

// account returns the index of the account for the full key, creating it
// (owned by coreID) if new.
func (l *Ledger) account(t int, kind core.EventKind, bucket uint64, phase int32, coreID int) int32 {
	k := acctKey{bucket: bucket, thread: t, kind: int32(kind), phase: phase}
	i, ok := l.index[k]
	if !ok {
		i = int32(len(l.accts))
		l.accts = append(l.accts, account{thread: t, core: coreID, bucket: bucket, phase: phase, kind: kind})
		l.index[k] = i
	}
	return i
}

// sample appends one cumulative per-kind point over the kinds seen so far.
func (l *Ledger) sample(cycle uint64) {
	by := make(map[string]uint64)
	for k := range l.perKind {
		if l.kindSeen&(1<<uint(k)) != 0 {
			by[core.EventKind(k).String()] = l.perKind[k]
		}
	}
	l.samples = append(l.samples, Sample{Cycle: cycle, ByKind: by, Untimed: l.events})
}

// Samples returns the cumulative counter-track series (nil when sampling
// is disabled).
func (l *Ledger) Samples() []Sample { return l.samples }

// bucketOf maps an instruction event to its address bucket.
func (l *Ledger) bucketOf(ev *core.Event) uint64 {
	switch ev.Kind {
	case core.EvLoad, core.EvStore, core.EvAtomic:
		return uint64(ev.Block) &^ (l.cfg.BucketBytes - 1)
	}
	return NoBucket
}

// Rows returns every account in deterministic order: thread, kind, bucket,
// phase ascending.
func (l *Ledger) Rows() []*Account {
	cells := make([]Account, len(l.accts))
	rows := make([]*Account, len(l.accts))
	for i := range l.accts {
		a := &l.accts[i]
		cells[i] = Account{
			Key:  Key{Thread: a.thread, Kind: a.kind, Bucket: a.bucket, Phase: l.phases[a.phase]},
			Core: a.core, Cycles: a.cycles, Events: a.events,
		}
		rows[i] = &cells[i]
	}
	sortRows(rows)
	return rows
}

// sortRows orders accounts by thread, kind, bucket, phase.
func sortRows(rows []*Account) {
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		if a.Thread != b.Thread {
			return a.Thread < b.Thread
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Bucket != b.Bucket {
			return a.Bucket < b.Bucket
		}
		return a.Phase < b.Phase
	})
}

// dims sums thread t's accounts by attribution dimension.
func (l *Ledger) dims(t int) map[DimKey]uint64 {
	acc := make(map[DimKey]uint64)
	for i := range l.accts {
		if a := &l.accts[i]; a.thread == t {
			acc[DimKey{Kind: a.kind, Bucket: a.bucket, Phase: l.phases[a.phase]}] += a.cycles
		}
	}
	return acc
}

// ThreadCycles returns thread t's reconstructed final clock (0 if the
// thread emitted no events).
func (l *Ledger) ThreadCycles(t int) uint64 {
	if t < 0 || t+1 >= len(l.threads) {
		return 0
	}
	return l.threads[t+1].clock
}

// CriticalThread returns the thread whose final clock equals the run's
// cycle count (the critical path), smallest id on ties, and that clock.
// ok is false when the ledger saw no threaded instruction events.
func (l *Ledger) CriticalThread() (thread int, cycles uint64, ok bool) {
	thread = -1
	for t := 0; t+1 < len(l.threads); t++ {
		if th := &l.threads[t+1]; th.seen && (!ok || th.clock > cycles) {
			thread, cycles, ok = t, th.clock, true
		}
	}
	return thread, cycles, ok
}

// Reconcile verifies the ledger against the measured run cycle count: per
// thread, the sum of charged advances must equal the reconstructed clock,
// and the maximum clock must equal total. Any difference is returned as an
// error naming the residue (the lowest-numbered thread's first) —
// attribution that does not reconcile exactly is always a bug.
func (l *Ledger) Reconcile(total uint64) error {
	var maxClock uint64
	for t := 0; t+1 < len(l.threads); t++ {
		th := &l.threads[t+1]
		if !th.seen {
			continue
		}
		if th.sum != th.clock {
			return fmt.Errorf("attrib: thread %d residue: sum of advances %d != final clock %d (residue %d)",
				t, th.sum, th.clock, int64(th.sum)-int64(th.clock))
		}
		if th.clock > maxClock {
			maxClock = th.clock
		}
	}
	if maxClock != total {
		return fmt.Errorf("attrib: run residue: max thread clock %d != measured cycles %d (residue %d)",
			maxClock, total, int64(maxClock)-int64(total))
	}
	l.reconOK, l.reconFor = true, total
	return nil
}

// Reconciled reports whether Reconcile has succeeded, and for what total.
func (l *Ledger) Reconciled() (uint64, bool) { return l.reconFor, l.reconOK }

// accountJSON is the JSONL artifact row for one account.
type accountJSON struct {
	Thread int    `json:"thread"`
	Core   int    `json:"core"`
	Kind   string `json:"kind"`
	Bucket string `json:"bucket"` // hex, or "-" for NoBucket
	Phase  string `json:"phase"`
	Cycles uint64 `json:"cycles"`
	Events uint64 `json:"events"`
}

// BucketLabel renders an address bucket for humans: hex, "-" for NoBucket.
func BucketLabel(b uint64) string {
	if b == NoBucket {
		return "-"
	}
	return fmt.Sprintf("0x%x", b)
}

// WriteJSONL dumps the ledger accounts, one JSON object per line, in
// deterministic row order.
func (l *Ledger) WriteJSONL(w io.Writer) error { return writeJSONL(w, l.Rows()) }

func writeJSONL(w io.Writer, rows []*Account) error {
	enc := json.NewEncoder(w)
	for _, a := range rows {
		row := accountJSON{
			Thread: a.Thread, Core: a.Core, Kind: a.Kind.String(),
			Bucket: BucketLabel(a.Bucket), Phase: a.Phase,
			Cycles: a.Cycles, Events: a.Events,
		}
		if err := enc.Encode(row); err != nil {
			return err
		}
	}
	return nil
}
