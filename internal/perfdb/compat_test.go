package perfdb_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"warden/internal/core"
	"warden/internal/perfdb"
	"warden/internal/runner"
)

// TestBaselineFingerprintsStable proves the protocol-registry refactor
// did not disturb the perf-history pairing key: every record in the
// committed baseline still carries exactly the fingerprint wardendiff
// recomputes today, so old snapshots keep gating new runs.
func TestBaselineFingerprintsStable(t *testing.T) {
	recs, err := perfdb.Read(filepath.Join("..", "..", "perf", "baseline.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("committed baseline is empty")
	}
	want := runner.Fingerprint("wardenbench", "all", "small")
	for i, rec := range recs {
		if rec.Fingerprint != want {
			t.Errorf("baseline record %d (step %s): fingerprint %q, want %q",
				i, rec.Step, rec.Fingerprint, want)
		}
	}
}

// TestBaselineRoundTripsByteStable proves the legacy Worker and
// attribution fields are purely additive: every committed baseline line —
// none of which carries them — decodes and re-encodes to exactly its
// original bytes, so such history files are untouched by the reader and
// writer. (Single-process records never gain the keys.)
func TestBaselineRoundTripsByteStable(t *testing.T) {
	f, err := os.Open(filepath.Join("..", "..", "perf", "baseline.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		orig := bytes.TrimSpace(sc.Bytes())
		if len(orig) == 0 {
			continue
		}
		var rec perfdb.Record
		if err := json.Unmarshal(orig, &rec); err != nil {
			t.Fatalf("baseline line %d: %v", line, err)
		}
		if rec.Worker != "" {
			t.Fatalf("baseline line %d: baseline record decoded a worker id %q", line, rec.Worker)
		}
		if rec.AttribTopKind != "" || rec.AttribTopShare != 0 || rec.AttribResidue != 0 {
			t.Fatalf("baseline line %d: pre-attribution record decoded attribution fields: %+v", line, rec)
		}
		out, err := json.Marshal(rec)
		if err != nil {
			t.Fatalf("baseline line %d: re-encode: %v", line, err)
		}
		if !bytes.Equal(out, orig) {
			t.Fatalf("baseline line %d not byte-stable:\n old %s\n new %s", line, orig, out)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if line == 0 {
		t.Fatal("committed baseline is empty")
	}
}

// TestWorkerFieldTolerated pins the wardendiff-facing contract for legacy
// records that carry a worker id: it parses, survives a round trip, and
// never participates in snapshot pairing or step comparison.
func TestWorkerFieldTolerated(t *testing.T) {
	const in = `{"schema":1,"run_id":"J1","fingerprint":"fp","step":"primes/MESI","simulated_cycles":42,"simulated_runs":1,"wall_seconds":0.5,"cycles_per_second":84,"worker":"w1"}`
	var rec perfdb.Record
	if err := json.Unmarshal([]byte(in), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Worker != "w1" {
		t.Fatalf("worker = %q, want w1", rec.Worker)
	}
	if rec.Fingerprint != "fp" {
		t.Fatalf("fingerprint = %q: worker id must not disturb the pairing key", rec.Fingerprint)
	}
	out, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != in {
		t.Fatalf("worker-bearing record not byte-stable:\n old %s\n new %s", in, out)
	}

	// Comparison is worker-blind: a worker-tagged snapshot gates against a
	// single-process baseline of the same fingerprint with no deltas beyond
	// the measurements themselves.
	base := perfdb.Snapshot{RunID: "base", Fingerprint: "fp",
		Steps: []perfdb.Record{{Step: "primes/MESI", SimulatedCycles: 42, WallSeconds: 0.4}}}
	next := perfdb.Snapshot{RunID: "J1", Fingerprint: "fp", Steps: []perfdb.Record{rec}}
	deltas := perfdb.Compare(base, next, perfdb.DefaultThresholds())
	if len(deltas) != 1 {
		t.Fatalf("got %d deltas, want 1: %+v", len(deltas), deltas)
	}
	if deltas[0].Regression {
		t.Fatalf("identical cycles flagged as regression: %+v", deltas[0])
	}
}

// TestAttribFieldsTolerated pins the contract for the legacy attribution
// summary fields, which older history written by remote workers carries:
// they parse, survive a round trip byte-identically, and never participate in
// fingerprint pairing or step comparison — wardendiff gates on the
// measurements alone.
func TestAttribFieldsTolerated(t *testing.T) {
	const in = `{"schema":1,"run_id":"J2","fingerprint":"fp","step":"fib/WARDen","simulated_cycles":42,"simulated_runs":1,"wall_seconds":0.5,"cycles_per_second":84,"worker":"w1","attrib_top_kind":"load","attrib_top_share":0.71}`
	var rec perfdb.Record
	if err := json.Unmarshal([]byte(in), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.AttribTopKind != "load" || rec.AttribTopShare != 0.71 {
		t.Fatalf("attribution summary = %q/%v, want load/0.71", rec.AttribTopKind, rec.AttribTopShare)
	}
	if rec.AttribResidue != 0 {
		t.Fatalf("residue = %d; records with nonzero residue must not exist (the run fails instead)", rec.AttribResidue)
	}
	out, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != in {
		t.Fatalf("attribution-bearing record not byte-stable:\n old %s\n new %s", in, out)
	}

	// Comparison ignores the summary: identical measurements gate clean
	// whether or not either side carries attribution fields.
	base := perfdb.Snapshot{RunID: "base", Fingerprint: "fp",
		Steps: []perfdb.Record{{Step: "fib/WARDen", SimulatedCycles: 42, WallSeconds: 0.4}}}
	next := perfdb.Snapshot{RunID: "J2", Fingerprint: "fp", Steps: []perfdb.Record{rec}}
	deltas := perfdb.Compare(base, next, perfdb.DefaultThresholds())
	if len(deltas) != 1 {
		t.Fatalf("got %d deltas, want 1: %+v", len(deltas), deltas)
	}
	if deltas[0].Regression {
		t.Fatalf("identical cycles flagged as regression: %+v", deltas[0])
	}
}

// TestUnknownFieldsIgnored pins that the history reader is forward-
// compatible: a record written by a future schema with keys this build
// has never heard of still parses, and the known measurements come
// through intact — wardendiff keeps gating old binaries against new
// histories instead of erroring out.
func TestUnknownFieldsIgnored(t *testing.T) {
	const in = `{"schema":1,"run_id":"J3","fingerprint":"fp","step":"fib/MESI","simulated_cycles":7,"simulated_runs":1,"wall_seconds":0.1,"cycles_per_second":70,"some_future_field":"x","another":{"nested":true}}`
	var rec perfdb.Record
	if err := json.Unmarshal([]byte(in), &rec); err != nil {
		t.Fatalf("record with unknown fields rejected: %v", err)
	}
	if rec.Step != "fib/MESI" || rec.SimulatedCycles != 7 {
		t.Fatalf("known fields corrupted by unknown neighbours: %+v", rec)
	}
}

// TestFingerprintsEmbedProtocolNames pins that a protocol contributes
// its registered *name* to fingerprints and formatted records, never the
// registry ordinal: serialized artifacts survive registration-order
// changes (SiSd registering fourth moved no existing protocol's ordinal,
// and even if it had, no stored record would notice).
func TestFingerprintsEmbedProtocolNames(t *testing.T) {
	for _, tc := range []struct {
		p    core.Protocol
		name string
	}{
		{core.MESI, "MESI"},
		{core.WARDen, "WARDen"},
		{core.MOESI, "MOESI"},
	} {
		if got := runner.Fingerprint(tc.p); got != tc.name {
			t.Errorf("Fingerprint(%s) = %q, want the registered name", tc.name, got)
		}
		if got := fmt.Sprint(tc.p); got != tc.name {
			t.Errorf("Sprint = %q, want %q", got, tc.name)
		}
		b, err := tc.p.MarshalText()
		if err != nil || string(b) != tc.name {
			t.Errorf("MarshalText = %q, %v; want %q", b, err, tc.name)
		}
		var q core.Protocol
		if err := q.UnmarshalText(b); err != nil || q != tc.p {
			t.Errorf("UnmarshalText(%q) = %v, %v; want %v", b, q, err, tc.p)
		}
	}
}
