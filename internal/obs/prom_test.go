package obs

import (
	"strings"
	"testing"
)

func render(t *testing.T, fams []Family) string {
	t.Helper()
	var b strings.Builder
	if err := WriteFamilies(&b, fams); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestWriteFamiliesHelpTypeAndEscaping(t *testing.T) {
	out := render(t, []Family{{
		Name: "warden_test_total",
		Help: "line one\nline two with backslash \\",
		Type: "counter",
		Metrics: []Metric{{
			Labels: []Label{{Name: "path", Value: `a\b"c` + "\n"}},
			Value:  3,
		}},
	}})
	want := "# HELP warden_test_total line one\\nline two with backslash \\\\\n" +
		"# TYPE warden_test_total counter\n" +
		"warden_test_total{path=\"a\\\\b\\\"c\\n\"} 3\n"
	if out != want {
		t.Fatalf("exposition mismatch:\ngot:\n%s\nwant:\n%s", out, want)
	}
}

func TestWriteFamiliesSanitizesNames(t *testing.T) {
	out := render(t, []Family{{
		Name:    "9bad name-with.dots",
		Metrics: []Metric{{Labels: []Label{{Name: "bad-label.name", Value: "v"}}, Value: 1}},
	}})
	if !strings.Contains(out, "_9bad_name_with_dots{bad_label_name=\"v\"} 1\n") {
		t.Fatalf("names not sanitized:\n%s", out)
	}
	if !strings.Contains(out, "# TYPE _9bad_name_with_dots untyped\n") {
		t.Fatalf("missing untyped TYPE default:\n%s", out)
	}
}

func TestWriteFamiliesDeterministicOrdering(t *testing.T) {
	fams := []Family{
		Gauge("warden_z", "", 1),
		{Name: "warden_a", Type: "gauge", Metrics: []Metric{
			{Labels: []Label{{Name: "x", Value: "2"}}, Value: 2},
			{Labels: []Label{{Name: "x", Value: "1"}}, Value: 1},
		}},
		Gauge("warden_m", "", 5),
	}
	first := render(t, fams)
	// Families sorted by name, samples by label block.
	wantOrder := []string{
		"# TYPE warden_a gauge",
		`warden_a{x="1"} 1`,
		`warden_a{x="2"} 2`,
		"# TYPE warden_m gauge",
		"warden_m 5",
		"# TYPE warden_z gauge",
		"warden_z 1",
	}
	pos := -1
	for _, line := range wantOrder {
		i := strings.Index(first, line)
		if i < 0 {
			t.Fatalf("missing line %q in:\n%s", line, first)
		}
		if i < pos {
			t.Fatalf("line %q out of order in:\n%s", line, first)
		}
		pos = i
	}
	// Reversing the input changes nothing.
	rev := render(t, []Family{fams[2], fams[1], fams[0]})
	if first != rev {
		t.Fatalf("ordering depends on input order:\n%s\nvs\n%s", first, rev)
	}
}

func TestMetricSuffixAndSeqDoNotDisturbPlainFamilies(t *testing.T) {
	// Metric once carried Suffix/Seq sort keys for histogram families. A
	// plain family must still render byte for byte as it did alongside
	// them: sorted purely by label block, whatever the input order.
	out := render(t, []Family{{Name: "warden_plain", Type: "gauge", Metrics: []Metric{
		{Labels: []Label{{Name: "x", Value: "b"}}, Value: 2},
		{Labels: []Label{{Name: "x", Value: "a"}}, Value: 1},
	}}})
	want := "# TYPE warden_plain gauge\n" +
		"warden_plain{x=\"a\"} 1\n" +
		"warden_plain{x=\"b\"} 2\n"
	if out != want {
		t.Fatalf("plain family ordering changed:\ngot:\n%s\nwant:\n%s", out, want)
	}
}

func TestWriteFamiliesMergesDuplicateNames(t *testing.T) {
	out := render(t, []Family{
		Counter("warden_dup_total", "first help", 1, Label{Name: "a", Value: "1"}),
		Counter("warden_dup_total", "second help", 2, Label{Name: "a", Value: "2"}),
	})
	if got := strings.Count(out, "# TYPE warden_dup_total"); got != 1 {
		t.Fatalf("TYPE line emitted %d times:\n%s", got, out)
	}
	if !strings.Contains(out, `warden_dup_total{a="1"} 1`) ||
		!strings.Contains(out, `warden_dup_total{a="2"} 2`) {
		t.Fatalf("samples lost in merge:\n%s", out)
	}
}

func TestFormatValueSpecials(t *testing.T) {
	cases := map[float64]string{1: "1", 1.5: "1.5", 0: "0"}
	for v, want := range cases {
		if got := formatValue(v); got != want {
			t.Errorf("formatValue(%v) = %q, want %q", v, got, want)
		}
	}
	inf := 1.0
	for i := 0; i < 2000; i++ {
		inf *= 2
	}
	if got := formatValue(inf); got != "+Inf" {
		t.Errorf("formatValue(+inf) = %q", got)
	}
	if got := formatValue(-inf); got != "-Inf" {
		t.Errorf("formatValue(-inf) = %q", got)
	}
	if got := formatValue(inf - inf); got != "NaN" {
		t.Errorf("formatValue(NaN) = %q", got)
	}
}
