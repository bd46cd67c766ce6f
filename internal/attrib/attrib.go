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

// threadTotal reconstructs one thread's clock two independent ways.
type threadTotal struct {
	sum   uint64 // sum of Advance over the thread's events
	clock uint64 // max over events of Cycle+Advance (the post-op clock)
}

// Sample is one point of the cumulative attributed-cycles series, for
// counter tracks: total cycles attributed per kind up to Cycle.
type Sample struct {
	Cycle   uint64
	ByKind  map[string]uint64
	Untimed uint64 // events observed so far (all kinds)
}

// Ledger is the attribution sink. Not safe for concurrent use; the event
// stream is serialized by construction.
type Ledger struct {
	cfg      Config
	accounts map[Key]*Account
	threads  map[int]*threadTotal
	stacks   map[int][]string // per-thread open-phase stack (LIFO)
	flight   *Flight

	// Unbalanced counts EvPhaseEnd markers that did not match the top of
	// their thread's stack. Always zero for runtime-emitted markers.
	Unbalanced uint64

	events   uint64
	perKind  map[core.EventKind]uint64 // cumulative cycles per kind
	samples  []Sample
	reconOK  bool
	reconFor uint64
}

// New builds a Ledger with cfg (zero value → defaults).
func New(cfg Config) *Ledger {
	cfg = cfg.withDefaults()
	return &Ledger{
		cfg:      cfg,
		accounts: make(map[Key]*Account),
		threads:  make(map[int]*threadTotal),
		stacks:   make(map[int][]string),
		perKind:  make(map[core.EventKind]uint64),
		flight:   newFlight(cfg),
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
		l.stacks[ev.Thread] = append(l.stacks[ev.Thread], ev.Label)
		return
	case core.EvPhaseEnd:
		st := l.stacks[ev.Thread]
		if n := len(st); n > 0 && st[n-1] == ev.Label {
			l.stacks[ev.Thread] = st[:n-1]
		} else {
			l.Unbalanced++
		}
		return
	case core.EvTransaction, core.EvEvict, core.EvReconcile:
		l.flight.observe(ev)
		return
	}
	// Instruction-level event: charge its Advance to the account.
	if ev.Thread >= 0 {
		tt := l.threads[ev.Thread]
		if tt == nil {
			tt = &threadTotal{}
			l.threads[ev.Thread] = tt
		}
		tt.sum += ev.Advance
		if end := ev.Cycle + ev.Advance; end > tt.clock {
			tt.clock = end
		}
	}
	k := Key{Thread: ev.Thread, Kind: ev.Kind, Bucket: l.bucketOf(ev), Phase: l.phaseOf(ev)}
	acct := l.accounts[k]
	if acct == nil {
		acct = &Account{Key: k, Core: ev.Core}
		l.accounts[k] = acct
	}
	acct.Cycles += ev.Advance
	acct.Events++
	l.perKind[ev.Kind] += ev.Advance
	if l.cfg.SampleEvery > 0 && l.events%l.cfg.SampleEvery == 0 {
		l.sample(ev.Cycle + ev.Advance)
	}
}

// sample appends one cumulative per-kind point.
func (l *Ledger) sample(cycle uint64) {
	by := make(map[string]uint64, len(l.perKind))
	for k, v := range l.perKind {
		by[k.String()] = v
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

// phaseOf charges an instruction event to the innermost phase open on its
// thread, like telemetry's PhaseAccount.
func (l *Ledger) phaseOf(ev *core.Event) string {
	if ev.Thread < 0 {
		return SystemPhase
	}
	if st := l.stacks[ev.Thread]; len(st) > 0 {
		return st[len(st)-1]
	}
	return OutsidePhase
}

// Rows returns every account in deterministic order: thread, kind, bucket,
// phase ascending.
func (l *Ledger) Rows() []*Account {
	rows := make([]*Account, 0, len(l.accounts))
	for _, a := range l.accounts {
		rows = append(rows, a)
	}
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
	return rows
}

// ThreadCycles returns thread t's reconstructed final clock (0 if the
// thread emitted no events).
func (l *Ledger) ThreadCycles(t int) uint64 {
	if tt := l.threads[t]; tt != nil {
		return tt.clock
	}
	return 0
}

// CriticalThread returns the thread whose final clock equals the run's
// cycle count (the critical path), smallest id on ties, and that clock.
// ok is false when the ledger saw no threaded instruction events.
func (l *Ledger) CriticalThread() (thread int, cycles uint64, ok bool) {
	thread = -1
	for id, tt := range l.threads {
		if !ok || tt.clock > cycles || (tt.clock == cycles && id < thread) {
			thread, cycles, ok = id, tt.clock, true
		}
	}
	return thread, cycles, ok
}

// Reconcile verifies the ledger against the measured run cycle count: per
// thread, the sum of charged advances must equal the reconstructed clock,
// and the maximum clock must equal total. Any difference is returned as an
// error naming the residue — attribution that does not reconcile exactly
// is always a bug.
func (l *Ledger) Reconcile(total uint64) error {
	var maxClock uint64
	for id, tt := range l.threads {
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
func (l *Ledger) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, a := range l.Rows() {
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
