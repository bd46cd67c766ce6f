// Package obs is the live observability plane: a dependency-free
// Prometheus text-format exposition writer, a registry of experiment and
// simulation runs, and an HTTP server that exposes both (plus pprof and Go
// runtime stats) from a running wardenbench/wardensim process.
//
// The plane is strictly read-only with respect to the simulation: metric
// sources are either host-side aggregates updated outside the simulated
// hot path or lock-free atomic probes (engine.Probe), so serving a scrape
// while a sweep is running cannot change a single simulated cycle — the
// bench tests assert byte-identical reports under continuous scraping.
package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Label is one name="value" pair on a metric.
type Label struct {
	Name  string
	Value string
}

// Metric is one sample: a label set and a value. The family supplies the
// metric name.
type Metric struct {
	Labels []Label
	Value  float64
}

// Family is a named group of samples sharing HELP and TYPE metadata, the
// unit of Prometheus exposition.
type Family struct {
	Name    string
	Help    string
	Type    string // "counter", "gauge", "untyped", ...
	Metrics []Metric
}

// Source supplies metric families for a scrape. Implementations must be
// safe for concurrent use: scrapes arrive on the serving goroutine while
// the process is doing its real work.
type Source interface {
	MetricFamilies() []Family
}

// SourceFunc adapts a function to the Source interface.
type SourceFunc func() []Family

// MetricFamilies calls f.
func (f SourceFunc) MetricFamilies() []Family { return f() }

// Gauge is a convenience constructor for a single-sample gauge family.
func Gauge(name, help string, v float64, labels ...Label) Family {
	return Family{Name: name, Help: help, Type: "gauge",
		Metrics: []Metric{{Labels: labels, Value: v}}}
}

// Counter is a convenience constructor for a single-sample counter family.
func Counter(name, help string, v float64, labels ...Label) Family {
	return Family{Name: name, Help: help, Type: "counter",
		Metrics: []Metric{{Labels: labels, Value: v}}}
}

// SanitizeName maps s onto the Prometheus metric-name alphabet
// [a-zA-Z_:][a-zA-Z0-9_:]*: every invalid byte becomes '_', and a leading
// digit gets a '_' prefix. Empty input yields "_".
func SanitizeName(s string) string {
	if s == "" {
		return "_"
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// SanitizeLabelName is SanitizeName restricted to the label-name alphabet,
// which excludes ':'.
func SanitizeLabelName(s string) string {
	return strings.ReplaceAll(SanitizeName(s), ":", "_")
}

// escapeHelp escapes a HELP string: backslash and newline, per the text
// exposition format.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabelValue escapes a label value: backslash, double-quote, newline.
func escapeLabelValue(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

// formatValue renders a sample value the way Prometheus expects: shortest
// round-trip representation, with +Inf/-Inf/NaN spelled out.
func formatValue(v float64) string {
	switch {
	case v != v: // NaN
		return "NaN"
	case v > 0 && v*2 == v: // +Inf
		return "+Inf"
	case v < 0 && v*2 == v: // -Inf
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// renderLabels renders a sorted, escaped {a="x",b="y"} block, or "" for an
// empty label set. Label names are sanitized; duplicate names keep their
// first occurrence.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := make([]Label, 0, len(labels))
	seen := make(map[string]bool, len(labels))
	for _, l := range labels {
		n := SanitizeLabelName(l.Name)
		if seen[n] {
			continue
		}
		seen[n] = true
		ls = append(ls, Label{Name: n, Value: l.Value})
	}
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// WriteFamilies renders families in the Prometheus text exposition format
// (version 0.0.4). Output is fully deterministic: families are sorted by
// (sanitized) name, samples within a family by their rendered label block,
// and families with identical names are merged (first HELP/TYPE wins) so a
// scrape never repeats a TYPE line, which Prometheus rejects.
func WriteFamilies(w io.Writer, families []Family) error {
	merged := make(map[string]*Family)
	names := make([]string, 0, len(families))
	for _, f := range families {
		name := SanitizeName(f.Name)
		m, ok := merged[name]
		if !ok {
			cp := f
			cp.Name = name
			cp.Metrics = append([]Metric(nil), f.Metrics...)
			merged[name] = &cp
			names = append(names, name)
			continue
		}
		m.Metrics = append(m.Metrics, f.Metrics...)
	}
	sort.Strings(names)
	for _, name := range names {
		f := merged[name]
		typ := f.Type
		if typ == "" {
			typ = "untyped"
		}
		if f.Help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", name, escapeHelp(f.Help)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, typ); err != nil {
			return err
		}
		type sample struct {
			labels string
			value  float64
		}
		samples := make([]sample, len(f.Metrics))
		for i, m := range f.Metrics {
			samples[i] = sample{renderLabels(m.Labels), m.Value}
		}
		sort.SliceStable(samples, func(i, j int) bool { return samples[i].labels < samples[j].labels })
		for _, s := range samples {
			if _, err := fmt.Fprintf(w, "%s%s %s\n", name, s.labels, formatValue(s.value)); err != nil {
				return err
			}
		}
	}
	return nil
}
