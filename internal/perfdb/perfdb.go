// Package perfdb is the append-only performance-history store: one JSONL
// line per benchmark step, keyed by a config fingerprint and git revision,
// written by `wardenbench -history` and compared by `wardendiff`.
//
// The same Record schema backs the point-in-time BENCH_*.json snapshots
// (wardenbench -timing) and the longitudinal history file, so a snapshot
// can be diffed against history without translation. Records carry both
// deterministic measurements (simulated cycles — identical across hosts
// for the same code and inputs) and noisy host-side ones (wall-clock,
// allocation stats); the diff layer applies different thresholds to each.
package perfdb

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
)

// SchemaVersion is written into every record; bump on incompatible field
// changes so old history lines remain identifiable.
const SchemaVersion = 1

// Record is one step of one benchmark run. A full run (a "snapshot")
// is the set of records sharing a RunID.
type Record struct {
	Schema int `json:"schema"`
	// RunID groups the records of one wardenbench invocation.
	RunID string `json:"run_id,omitempty"`
	// Time is the run's RFC3339 UTC wall-clock timestamp.
	Time string `json:"time,omitempty"`
	// GitRev identifies the code that produced the record.
	GitRev string `json:"git_rev,omitempty"`
	// Fingerprint identifies *what* was measured (experiment selection,
	// size class): snapshots are only comparable at equal fingerprints.
	Fingerprint string `json:"fingerprint,omitempty"`
	// Step names the experiment ("fig8", "ablations", or "total").
	Step string `json:"step"`
	// Engine names the simulation engine mode the step ran under ("seq" or
	// "pdes"); GOMAXPROCS records the host parallelism available to it.
	// Both are context for interpreting WallSeconds — engine timing is
	// host-dependent — and absent from pre-PDES history lines (additive
	// fields; the schema version is unchanged).
	Engine     string `json:"engine,omitempty"`
	GOMAXPROCS int    `json:"gomaxprocs,omitempty"`

	// Deterministic simulation measurements.
	SimulatedCycles uint64 `json:"simulated_cycles"`
	SimulatedRuns   uint64 `json:"simulated_runs"`

	// Host-side (noisy) measurements.
	WallSeconds     float64 `json:"wall_seconds"`
	CyclesPerSecond float64 `json:"cycles_per_second"`
	HostAllocs      uint64  `json:"host_allocs,omitempty"`      // heap allocations during the step
	HostAllocBytes  uint64  `json:"host_alloc_bytes,omitempty"` // bytes allocated during the step
	HostHeapBytes   uint64  `json:"host_heap_bytes,omitempty"`  // live heap at step end

	// Worker is legacy provenance: the name of the remote worker that
	// executed the step, in history written by the since-removed
	// distributed sweep runner. Nothing writes it any more; it stays so
	// such history still round-trips byte-identically. Fingerprints and the
	// wardendiff pairing/compare logic ignore it, and omitempty keeps it
	// out of every other record, including the committed
	// perf/baseline.jsonl.
	Worker string `json:"worker,omitempty"`

	// Attribution summary, also legacy provenance from the same remote
	// workers: the event kind holding the largest share of attributed
	// cycles, that share of the total, and the reconciliation residue
	// (0 by construction). Nothing writes them any more; like Worker they
	// stay so older history round-trips byte-identically, and wardendiff
	// ignores them.
	AttribTopKind  string  `json:"attrib_top_kind,omitempty"`
	AttribTopShare float64 `json:"attrib_top_share,omitempty"`
	AttribResidue  int64   `json:"attrib_residue,omitempty"`
}

// Append writes recs to path as JSONL, creating the file if needed and
// never rewriting existing lines — the store is strictly append-only.
func Append(path string, recs []Record) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("perfdb: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, rec := range recs {
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return fmt.Errorf("perfdb: encode %s/%s: %w", rec.RunID, rec.Step, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("perfdb: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("perfdb: %w", err)
	}
	return nil
}

// Read loads every record from a JSONL history file in file order. Blank
// lines are skipped; a malformed line is an error naming its line number,
// since a corrupt history would silently weaken the perf gate.
func Read(path string) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("perfdb: %w", err)
	}
	defer f.Close()
	var recs []Record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(b, &rec); err != nil {
			return nil, fmt.Errorf("perfdb: %s:%d: %w", path, line, err)
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("perfdb: %s: %w", path, err)
	}
	return recs, nil
}

// Snapshot is one benchmark run reassembled from its records.
type Snapshot struct {
	RunID       string
	Time        string
	GitRev      string
	Fingerprint string
	Steps       []Record // file order
}

// Step returns the named step's record.
func (s *Snapshot) Step(name string) (Record, bool) {
	for _, rec := range s.Steps {
		if rec.Step == name {
			return rec, true
		}
	}
	return Record{}, false
}

// GroupSnapshots reassembles records into snapshots by RunID, ordered by
// each RunID's first appearance (append order = chronological order for a
// well-formed history). Records without a RunID group together under "".
func GroupSnapshots(recs []Record) []Snapshot {
	index := make(map[string]int)
	var out []Snapshot
	for _, rec := range recs {
		i, ok := index[rec.RunID]
		if !ok {
			i = len(out)
			index[rec.RunID] = i
			out = append(out, Snapshot{
				RunID:       rec.RunID,
				Time:        rec.Time,
				GitRev:      rec.GitRev,
				Fingerprint: rec.Fingerprint,
			})
		}
		out[i].Steps = append(out[i].Steps, rec)
	}
	return out
}

// LatestSnapshot returns the last snapshot in recs whose fingerprint
// matches (empty fingerprint matches anything).
func LatestSnapshot(recs []Record, fingerprint string) (Snapshot, bool) {
	snaps := GroupSnapshots(recs)
	for i := len(snaps) - 1; i >= 0; i-- {
		if fingerprint == "" || snaps[i].Fingerprint == fingerprint {
			return snaps[i], true
		}
	}
	return Snapshot{}, false
}

// ByRunID returns the snapshot with the given RunID.
func ByRunID(recs []Record, runID string) (Snapshot, bool) {
	for _, s := range GroupSnapshots(recs) {
		if s.RunID == runID {
			return s, true
		}
	}
	return Snapshot{}, false
}
