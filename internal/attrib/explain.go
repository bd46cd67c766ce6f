package attrib

import (
	"fmt"
	"io"
	"sort"

	"warden/internal/core"
)

// DimKey is an attribution dimension independent of thread identity: the
// axes a subject-vs-baseline delta is decomposed along. (The two sides'
// critical threads may be different hardware threads; what is comparable
// is what kinds of work, on which addresses, in which phases, filled their
// critical paths.)
type DimKey struct {
	Kind   core.EventKind
	Bucket uint64
	Phase  string
}

// Delta is one bucket of a cycle-delta decomposition.
type Delta struct {
	DimKey
	Subject  uint64 // cycles on the subject's critical thread
	Baseline uint64 // cycles on the baseline's critical thread
	Delta    int64  // Subject - Baseline
}

// Explanation decomposes the cycle difference between a subject and a
// baseline run of the same benchmark into attribution buckets that sum
// exactly to the measured delta. Exactness follows from Reconcile: each
// side's critical thread's accounts sum to that side's cycle count, so
// bucket-wise subtraction sums to the difference with zero residue.
type Explanation struct {
	SubjectName    string
	BaselineName   string
	SubjectCycles  uint64
	BaselineCycles uint64
	CycleDelta     int64 // SubjectCycles - BaselineCycles
	SubjectThread  int   // subject's critical thread
	BaselineThread int
	Deltas         []Delta // every bucket, |Delta| descending
}

// ledgerView is what Explain reads from each side's ledger; the tests
// pass their map-based reference ledger through it.
type ledgerView interface {
	Reconcile(total uint64) error
	CriticalThread() (thread int, cycles uint64, ok bool)
	// dims sums one thread's accounts by attribution dimension.
	dims(thread int) map[DimKey]uint64
}

// criticalAccounts gathers one side's critical-thread accounts keyed by
// dimension, verifying they sum to the side's cycle total.
func criticalAccounts(name string, l ledgerView, cycles uint64) (int, map[DimKey]uint64, error) {
	thread, clock, ok := l.CriticalThread()
	if !ok {
		if cycles != 0 {
			return -1, nil, fmt.Errorf("attrib: %s: no threaded events but %d cycles measured", name, cycles)
		}
		return -1, map[DimKey]uint64{}, nil
	}
	if clock != cycles {
		return -1, nil, fmt.Errorf("attrib: %s residue: critical thread %d clock %d != measured cycles %d",
			name, thread, clock, cycles)
	}
	acc := l.dims(thread)
	var sum uint64
	for _, c := range acc {
		sum += c
	}
	if sum != cycles {
		return -1, nil, fmt.Errorf("attrib: %s residue: critical-thread accounts sum %d != measured cycles %d (residue %d)",
			name, sum, cycles, int64(sum)-int64(cycles))
	}
	return thread, acc, nil
}

// Explain builds the exact decomposition of subjectCycles-baselineCycles.
// Both ledgers must observe runs of the same benchmark; any reconciliation
// residue — per thread, per side, or across the final bucket sum — is an
// error, never a warning.
func Explain(subjectName string, subject *Ledger, subjectCycles uint64,
	baselineName string, baseline *Ledger, baselineCycles uint64) (*Explanation, error) {
	return explain(subjectName, subject, subjectCycles, baselineName, baseline, baselineCycles)
}

func explain(subjectName string, subject ledgerView, subjectCycles uint64,
	baselineName string, baseline ledgerView, baselineCycles uint64) (*Explanation, error) {
	if err := subject.Reconcile(subjectCycles); err != nil {
		return nil, fmt.Errorf("subject %s: %w", subjectName, err)
	}
	if err := baseline.Reconcile(baselineCycles); err != nil {
		return nil, fmt.Errorf("baseline %s: %w", baselineName, err)
	}
	st, sacc, err := criticalAccounts(subjectName, subject, subjectCycles)
	if err != nil {
		return nil, err
	}
	bt, bacc, err := criticalAccounts(baselineName, baseline, baselineCycles)
	if err != nil {
		return nil, err
	}
	keys := make(map[DimKey]bool, len(sacc)+len(bacc))
	for k := range sacc {
		keys[k] = true
	}
	for k := range bacc {
		keys[k] = true
	}
	ex := &Explanation{
		SubjectName: subjectName, BaselineName: baselineName,
		SubjectCycles: subjectCycles, BaselineCycles: baselineCycles,
		CycleDelta:    int64(subjectCycles) - int64(baselineCycles),
		SubjectThread: st, BaselineThread: bt,
	}
	var sum int64
	for k := range keys {
		d := Delta{DimKey: k, Subject: sacc[k], Baseline: bacc[k]}
		d.Delta = int64(d.Subject) - int64(d.Baseline)
		sum += d.Delta
		ex.Deltas = append(ex.Deltas, d)
	}
	if sum != ex.CycleDelta {
		return nil, fmt.Errorf("attrib: decomposition residue: bucket deltas sum %d != cycle delta %d (residue %d)",
			sum, ex.CycleDelta, sum-ex.CycleDelta)
	}
	sort.Slice(ex.Deltas, func(i, j int) bool {
		a, b := ex.Deltas[i], ex.Deltas[j]
		am, bm := abs64(a.Delta), abs64(b.Delta)
		if am != bm {
			return am > bm
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Bucket != b.Bucket {
			return a.Bucket < b.Bucket
		}
		return a.Phase < b.Phase
	})
	return ex, nil
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// TopKinds aggregates the decomposition over the kind axis, |delta|
// descending.
func (ex *Explanation) TopKinds() []Delta {
	agg := make(map[core.EventKind]*Delta)
	for _, d := range ex.Deltas {
		a := agg[d.Kind]
		if a == nil {
			a = &Delta{DimKey: DimKey{Kind: d.Kind, Bucket: NoBucket, Phase: ""}}
			agg[d.Kind] = a
		}
		a.Subject += d.Subject
		a.Baseline += d.Baseline
		a.Delta += d.Delta
	}
	out := make([]Delta, 0, len(agg))
	for _, a := range agg {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool {
		am, bm := abs64(out[i].Delta), abs64(out[j].Delta)
		if am != bm {
			return am > bm
		}
		return out[i].Kind < out[j].Kind
	})
	return out
}

// TopBuckets aggregates the decomposition over the address-bucket axis
// (dropping NoBucket rows), |delta| descending, at most n rows (n<=0: all).
func (ex *Explanation) TopBuckets(n int) []Delta {
	agg := make(map[uint64]*Delta)
	for _, d := range ex.Deltas {
		if d.Bucket == NoBucket {
			continue
		}
		a := agg[d.Bucket]
		if a == nil {
			a = &Delta{DimKey: DimKey{Bucket: d.Bucket, Phase: ""}}
			agg[d.Bucket] = a
		}
		a.Subject += d.Subject
		a.Baseline += d.Baseline
		a.Delta += d.Delta
	}
	out := make([]Delta, 0, len(agg))
	for _, a := range agg {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool {
		am, bm := abs64(out[i].Delta), abs64(out[j].Delta)
		if am != bm {
			return am > bm
		}
		return out[i].Bucket < out[j].Bucket
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// TopPhases aggregates the decomposition over the phase axis, |delta|
// descending.
func (ex *Explanation) TopPhases() []Delta {
	agg := make(map[string]*Delta)
	order := []string{}
	for _, d := range ex.Deltas {
		a := agg[d.Phase]
		if a == nil {
			a = &Delta{DimKey: DimKey{Bucket: NoBucket, Phase: d.Phase}}
			agg[d.Phase] = a
			order = append(order, d.Phase)
		}
		a.Subject += d.Subject
		a.Baseline += d.Baseline
		a.Delta += d.Delta
	}
	out := make([]Delta, 0, len(agg))
	for _, p := range order {
		out = append(out, *agg[p])
	}
	sort.Slice(out, func(i, j int) bool {
		am, bm := abs64(out[i].Delta), abs64(out[j].Delta)
		if am != bm {
			return am > bm
		}
		return out[i].Phase < out[j].Phase
	})
	return out
}

// WriteText renders the explanation as an aligned text report: the
// headline delta, then the kind, phase, and top-n bucket aggregations.
func (ex *Explanation) WriteText(w io.Writer, topN int) error {
	rel := "slower than"
	if ex.CycleDelta < 0 {
		rel = "faster than"
	} else if ex.CycleDelta == 0 {
		rel = "equal to"
	}
	if _, err := fmt.Fprintf(w, "%s: %d cycles (critical thread %d)\n%s: %d cycles (critical thread %d)\ndelta: %+d cycles — %s is %s %s\n",
		ex.SubjectName, ex.SubjectCycles, ex.SubjectThread,
		ex.BaselineName, ex.BaselineCycles, ex.BaselineThread,
		ex.CycleDelta, ex.SubjectName, rel, ex.BaselineName); err != nil {
		return err
	}
	write := func(title, keyHdr string, rows []Delta, key func(Delta) string) error {
		if len(rows) == 0 {
			return nil
		}
		if _, err := fmt.Fprintf(w, "\n%s\n%-24s %14s %14s %14s\n", title, keyHdr, ex.SubjectName, ex.BaselineName, "delta"); err != nil {
			return err
		}
		for _, d := range rows {
			if _, err := fmt.Fprintf(w, "%-24s %14d %14d %+14d\n", key(d), d.Subject, d.Baseline, d.Delta); err != nil {
				return err
			}
		}
		return nil
	}
	if err := write("by event kind (critical-path cycles):", "kind", ex.TopKinds(),
		func(d Delta) string { return d.Kind.String() }); err != nil {
		return err
	}
	if err := write("by phase:", "phase", ex.TopPhases(),
		func(d Delta) string { return d.Phase }); err != nil {
		return err
	}
	if err := write(fmt.Sprintf("top %d address buckets:", topN), "bucket", ex.TopBuckets(topN),
		func(d Delta) string { return BucketLabel(d.Bucket) }); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "\nreconciliation: buckets sum exactly to the %+d-cycle delta (residue 0)\n", ex.CycleDelta)
	return err
}
