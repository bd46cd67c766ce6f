package telemetry

import (
	"bytes"
	"compress/gzip"
	"strings"
	"testing"

	"warden/internal/span"
	"warden/internal/trace"
)

// fleetSpans models a small traced sweep: a coordinator job with two units
// (overlapping in time, so they need separate lanes), one attempt nested in
// each unit, and a worker-side execute span with PDES epoch children.
func fleetSpans() []span.Span {
	mk := func(id, parent, name, track string, start, end int64) span.Span {
		return span.Span{
			TraceID: "00000000000000010000000000000002",
			SpanID:  id, Parent: parent, Name: name, Track: track,
			StartUS: start, EndUS: end,
		}
	}
	return []span.Span{
		mk("0000000000000001", "", "job", "coordinator", 100, 900),
		mk("0000000000000002", "0000000000000001", "unit", "coordinator", 110, 500),
		mk("0000000000000003", "0000000000000001", "unit", "coordinator", 120, 600),
		mk("0000000000000004", "0000000000000002", "attempt", "coordinator", 115, 490),
		mk("0000000000000005", "0000000000000004", "execute", "worker-1", 130, 480),
		mk("0000000000000006", "0000000000000005", "pdes-phase2", "worker-1", 140, 200),
		mk("0000000000000007", "0000000000000005", "pdes-phase2", "worker-1", 210, 300),
	}
}

func TestWriteSpansValidates(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSpans(&buf, fleetSpans()); err != nil {
		t.Fatal(err)
	}
	st, err := ValidatePerfetto(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("exported spans fail validation: %v\n%s", err, buf.Bytes())
	}
	if st.Slices != 7 {
		t.Fatalf("slices = %d, want 7\n%s", st.Slices, buf.Bytes())
	}
	if st.Instants != 0 || st.PhasePairs != 0 {
		t.Fatalf("span export must be X-only, got %d instants, %d B/E pairs", st.Instants, st.PhasePairs)
	}
	out := buf.String()
	// Overlapping sibling units land on separate coordinator lanes; the
	// nested attempt rides its parent's lane, so exactly one extra lane.
	if !strings.Contains(out, `"name":"coordinator"`) || !strings.Contains(out, `"name":"coordinator #1"`) {
		t.Fatalf("expected coordinator lanes 0 and 1:\n%s", out)
	}
	if strings.Contains(out, `"coordinator #2"`) {
		t.Fatalf("attempt span opened a third lane:\n%s", out)
	}
	if !strings.Contains(out, `"name":"worker-1"`) {
		t.Fatalf("missing worker track:\n%s", out)
	}
	// Timestamps are normalized to the earliest span.
	if !strings.Contains(out, `"ts":0`) {
		t.Fatalf("expected a ts-0 event after normalization:\n%s", out)
	}
}

// TestWriteSpansDurationMicroseconds: dur shares ts's unit (µs).
func TestWriteSpansDurationMicroseconds(t *testing.T) {
	var buf bytes.Buffer
	err := WriteSpans(&buf, []span.Span{{
		TraceID: "00000000000000010000000000000002", SpanID: "0000000000000001",
		Name: "job", Track: "coordinator", StartUS: 2000, EndUS: 3500,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"dur":1500,`) {
		t.Fatalf("a 1500 µs span must write \"dur\":1500:\n%s", buf.Bytes())
	}
}

func TestWriteSpansDeterministic(t *testing.T) {
	spans := fleetSpans()
	var a, b bytes.Buffer
	if err := WriteSpans(&a, spans); err != nil {
		t.Fatal(err)
	}
	// Reversed input order must produce identical bytes.
	rev := make([]span.Span, len(spans))
	for i, s := range spans {
		rev[len(spans)-1-i] = s
	}
	if err := WriteSpans(&b, rev); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("output depends on input order:\n%s\nvs\n%s", a.Bytes(), b.Bytes())
	}
}

func TestWriteSpansEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSpans(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := ValidatePerfetto(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("empty span set fails validation: %v", err)
	}
}

// TestGzipTraceRoundTrip proves the wardenreport -validate path is gzip
// transparent: a compressed trace validates byte-identically to the plain
// one through trace.Reader's magic-byte sniffing.
func TestGzipTraceRoundTrip(t *testing.T) {
	var plain bytes.Buffer
	if err := WriteSpans(&plain, fleetSpans()); err != nil {
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
	st, err := ValidatePerfetto(r)
	if err != nil {
		t.Fatalf("gzip trace fails validation: %v", err)
	}
	if st.Slices != 7 {
		t.Fatalf("gzip round trip lost slices: got %d, want 7", st.Slices)
	}
}
