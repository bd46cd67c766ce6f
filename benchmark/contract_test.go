package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// TestBenchmarkJSON checks that the repository's BENCHMARK.json describes
// this benchmark: the same workloads (with the same reasons) and exactly
// the metrics each mode reports, within the format's limits.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metricSpec struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var spec struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []metricSpec                 `json:"end_to_end"`
		PerLayer  []metricSpec                 `json:"per_layer"`
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(b, &raw); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := raw[k]; !ok {
			t.Errorf("BENCHMARK.json lacks %q", k)
		}
	}
	if len(raw) != 6 {
		t.Errorf("BENCHMARK.json has %d keys, want 6", len(raw))
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}

	if len(spec.Workloads) != len(workloads) {
		t.Errorf("%d workloads listed, benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if i < len(workloads) && (w.Name != workloads[i].name || w.Why != workloads[i].why) {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), benchmark has %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	check := func(kind string, got []metricSpec, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics listed, benchmark reports %d", kind, len(got), len(want))
		}
		for i, m := range got {
			if i < len(want) && (m.Name != want[i].name || m.Unit != want[i].unit) {
				t.Errorf("%s metric %d: listed %s (%s), benchmark reports %s (%s)", kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
			if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
				t.Errorf("%s metric %+v breaks the format", kind, m)
			}
			if bounded != (m.Bound != nil) || (bounded && (*m.Bound <= 0 || *m.Bound > 0.25)) {
				t.Errorf("%s metric %s: bad bound", kind, m.Name)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, true)
	check("per_layer", spec.PerLayer, perLayer, false)

	var setup, widest float64
	for _, m := range spec.EndToEnd {
		if m.Name == "setup_s" {
			setup = *m.Bound
		}
		if *m.Bound > widest {
			widest = *m.Bound
		}
	}
	if setup == 0 || setup < widest {
		t.Errorf("setup_s bound %v, want the widest bound (%v)", setup, widest)
	}
}
