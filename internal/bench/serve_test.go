package bench

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"warden/internal/engine"
	"warden/internal/obs"
)

// TestServeScrapeNonPerturbing is the observability plane's acceptance
// criterion: a run scraped continuously over HTTP — /metrics and /runs
// hammered from another goroutine for the whole sweep — must render a
// byte-identical report and identical simulated cycle totals to a bare,
// unobserved run. The plane reads only host-side state (atomics and
// mutex-guarded aggregates), so observation cannot leak into simulated
// results.
func TestServeScrapeNonPerturbing(t *testing.T) {
	bare := NewRunner(Small)
	plain := renderTelemetrySubset(t, bare)
	bareCycles, bareRuns := bare.SimulatedCycles()

	observed := NewRunner(Small)
	probe := &engine.Probe{}
	observed.SetProbe(probe)
	reg := obs.NewRegistry()
	observed.SetObserver(reg)
	srv := &obs.Server{
		Registry: reg,
		Probe:    probe.Sample,
		Sources:  []obs.Source{observed},
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Hammer the plane from a separate goroutine for the duration of the
	// sweep. Every response must be a successful scrape, not just ignored.
	var scrapes, failures atomic.Uint64
	stop := make(chan struct{})
	hammerDone := make(chan struct{})
	go func() {
		defer close(hammerDone)
		paths := []string{"/metrics", "/runs", "/healthz"}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Get(ts.URL + paths[i%len(paths)])
			if err != nil {
				failures.Add(1)
				continue
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK || len(body) == 0 {
				failures.Add(1)
				continue
			}
			scrapes.Add(1)
		}
	}()

	scraped := renderTelemetrySubset(t, observed)
	close(stop)
	<-hammerDone

	if failures.Load() != 0 {
		t.Fatalf("%d scrapes failed during the run", failures.Load())
	}
	if scrapes.Load() == 0 {
		t.Fatal("hammer goroutine never completed a scrape")
	}

	if !bytes.Equal(plain, scraped) {
		t.Fatalf("report bytes diverge under scrape load:\n--- bare ---\n%s\n--- scraped ---\n%s", plain, scraped)
	}
	obsCycles, obsRuns := observed.SimulatedCycles()
	if obsCycles != bareCycles || obsRuns != bareRuns {
		t.Fatalf("simulated totals diverge: bare %d cycles/%d runs, observed %d cycles/%d runs",
			bareCycles, bareRuns, obsCycles, obsRuns)
	}

	// The plane must have seen the real work: the probe's cumulative
	// thread-cycles and the registry's finished runs are live state, not
	// placeholders.
	pc, po := probe.Sample()
	if pc == 0 || po == 0 {
		t.Fatalf("probe saw no work: cycles=%d ops=%d", pc, po)
	}
	infos := reg.Runs()
	if len(infos) != 4 { // 2 benchmarks x 2 protocols
		t.Fatalf("registry has %d runs, want 4", len(infos))
	}
	var total uint64
	for _, ri := range infos {
		if ri.State != "done" {
			t.Fatalf("run %d (%s) state = %q", ri.ID, ri.Name, ri.State)
		}
		if ri.Cycles == 0 {
			t.Fatalf("run %d (%s) recorded zero cycles", ri.ID, ri.Name)
		}
		if ri.Counters["instructions"] == 0 {
			t.Fatalf("run %d (%s) missing machine counters", ri.ID, ri.Name)
		}
		total += ri.Cycles
	}
	if total != bareCycles {
		t.Fatalf("registry cycles sum %d != simulated total %d", total, bareCycles)
	}
}

// TestMemoFamiliesExposition pins the runner's memo-cache families on
// /metrics byte for byte, HELP and TYPE lines included: scrapes and the
// CI smoke check key on these names.
func TestMemoFamiliesExposition(t *testing.T) {
	r := NewRunner(Small)
	for _, key := range []string{"a", "a", "b"} {
		if _, err := r.memo.Do(key, func() (Result, error) { return Result{}, nil }); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := obs.WriteFamilies(&buf, r.MetricFamilies()); err != nil {
		t.Fatal(err)
	}
	const want = `# HELP warden_memo_entries Distinct Simulation memo entries cached.
# TYPE warden_memo_entries gauge
warden_memo_entries 2
# HELP warden_memo_hits_total Simulation memo lookups satisfied by an existing entry.
# TYPE warden_memo_hits_total counter
warden_memo_hits_total 1
# HELP warden_memo_misses_total Simulation memo lookups that missed and had to compute.
# TYPE warden_memo_misses_total counter
warden_memo_misses_total 2
`
	if !strings.Contains(buf.String(), want) {
		t.Fatalf("memo families missing or changed; want\n%s\ngot\n%s", want, buf.String())
	}
}
