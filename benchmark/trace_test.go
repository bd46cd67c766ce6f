package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"warden/internal/telemetry"
)

// TestTracedRun runs the traced path on a one-core lens workload (the
// deep-dive cells at Small size), and checks that every replay is exact,
// every per-layer metric is reported, the sink share shows, and the span
// file is a valid trace_event document.
func TestTracedRun(t *testing.T) {
	w := &workload{name: "lens-1c", cfg: serialSlice(), protos: []string{"warden", "mesi"}, lens: true}
	want := digest(sweepPass(w.cellsOf(deepDive), identity(2*len(deepDive))).runs)
	dir := t.TempDir()
	var out bytes.Buffer
	start := time.Now()
	rep, err := traced(w, 1, want, dir, &out)
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	// One attempt per cell and repetition, plus one per explanation.
	if !rep.Correct || rep.Failed != 0 || rep.Attempted != traceReps*3*len(deepDive) {
		t.Fatalf("report %+v\n%s", rep, out.String())
	}
	if len(rep.Metrics) != len(perLayer) {
		t.Errorf("%d metrics reported, want %d", len(rep.Metrics), len(perLayer))
	}
	if s := rep.Metrics["sinks.share"].Value; s <= 0 {
		t.Errorf("sinks.share = %v with a ledger attached, want > 0", s)
	}
	if h := rep.Metrics["hlpl.steals"].Value; h != 0 {
		t.Errorf("hlpl.steals = %v on one core, want 0", h)
	}

	f, err := os.Open(filepath.Join(dir, "lens-1c.trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	st, err := telemetry.ValidatePerfetto(f)
	if err != nil {
		t.Fatal(err)
	}
	// Per rep and cell: setup, simulate, verify, three replays, observed;
	// plus one record per cell and traceReps explains per benchmark.
	cells := 2 * len(deepDive)
	if wantSlices := cells*(1+7*traceReps) + len(deepDive)*traceReps; st.Slices != wantSlices {
		t.Errorf("span file has %d slices, want %d", st.Slices, wantSlices)
	}
	// Timestamps and durations are microseconds: every span ends within the
	// run.
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph      string
			TS, Dur float64
		}
	}
	if err := json.NewDecoder(f).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	for _, ev := range doc.TraceEvents {
		if end := time.Duration((ev.TS + ev.Dur) * 1e3); ev.Ph == "X" && end > elapsed {
			t.Fatalf("a span ends %v into the file, after the whole %v run", end, elapsed)
		}
	}
	if fi, err := os.Stat(filepath.Join(dir, "lens-1c.cpu.pprof")); err != nil || fi.Size() == 0 {
		t.Errorf("cpu profile missing or empty: %v", err)
	}
}

// TestRunArguments checks the command line: bad arguments exit 2 without a
// result line.
func TestRunArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "fig7-1s", "-trace", "2"},
		{"-workload", "fig7-1s", "-seconds", "0"},
		{"-workload", "fig7-1s", "extra"},
		{"-bogus"},
	} {
		var stdout bytes.Buffer
		if code := run(args, &stdout, io.Discard); code != 2 {
			t.Errorf("run(%q) = %d, want 2", args, code)
		}
		if strings.Contains(stdout.String(), "{") {
			t.Errorf("run(%q) printed a result: %q", args, stdout.String())
		}
	}
}

// TestReportShape checks the result line's keys.
func TestReportShape(t *testing.T) {
	b, err := json.Marshal(report{Correct: true, Attempted: 1, Metrics: map[string]metric{"wall_s": {1.5, "s"}}})
	if err != nil {
		t.Fatal(err)
	}
	want := `{"correct":true,"attempted":1,"failed":0,"metrics":{"wall_s":{"value":1.5,"unit":"s"}}}`
	if string(b) != want {
		t.Errorf("report JSON %s, want %s", b, want)
	}
}
