package telemetry

import (
	"fmt"
	"html/template"
	"io"
	"strings"

	"warden/internal/stats"
)

// RunReport bundles everything the HTML report renders for one observed run.
type RunReport struct {
	Benchmark string
	Protocol  string
	Size      string // human label ("small", "n=100000", ...)
	Machine   string // topology name
	Cycles    uint64
	Counters  stats.Counters
	Capture   *Capture
}

// Label names the run in headings.
func (r *RunReport) Label() string { return r.Benchmark + " · " + r.Protocol }

// sparkline renders a series as an inline SVG polyline with a max-value
// caption. Deterministic output: coordinates are formatted with fixed
// precision.
func sparkline(series []uint64) template.HTML {
	const w, h = 260, 42
	var max uint64
	for _, v := range series {
		if v > max {
			max = v
		}
	}
	if len(series) == 0 || max == 0 {
		return template.HTML(`<span class="flat">no activity</span>`)
	}
	var pts strings.Builder
	n := len(series)
	for i, v := range series {
		x := 2.0
		if n > 1 {
			x = 2 + float64(i)*(w-4)/float64(n-1)
		}
		y := 2 + (h-4)*(1-float64(v)/float64(max))
		if i > 0 {
			pts.WriteByte(' ')
		}
		fmt.Fprintf(&pts, "%.1f,%.1f", x, y)
	}
	svg := fmt.Sprintf(
		`<svg class="spark" width="%d" height="%d" viewBox="0 0 %d %d" preserveAspectRatio="none">`+
			`<polyline fill="none" stroke="#2563eb" stroke-width="1.5" points="%s"/></svg>`+
			`<span class="sparkmax">max %d</span>`,
		w, h, w, h, pts.String(), max)
	return template.HTML(svg)
}

// reportSeries is one named sparkline row.
type reportSeries struct {
	Name  string
	Spark template.HTML
}

// reportRun is the template-facing view of one run.
type reportRun struct {
	*RunReport
	IPC        float64
	InvDownPKI float64
	Series     []reportSeries
	Phases     []*PhaseStats
	Hot        []*BucketStats
	Windows    int
	WindowCyc  uint64
	LateDrops  uint64
	Evicted    uint64
}

// reportPair is the optional WARDen-vs-baseline comparison header.
type reportPair struct {
	Base, Other *RunReport
	Speedup     float64
	InvDownCut  float64 // fraction of (inv+downg) removed, 0..1
	MsgCut      float64
}

func buildRun(r *RunReport) *reportRun {
	rr := &reportRun{
		RunReport:  r,
		IPC:        r.Counters.IPC(r.Cycles),
		InvDownPKI: r.Counters.InvDowngradesPerKiloInstr(),
	}
	if c := r.Capture; c != nil {
		ws := c.Windows
		rr.Windows = len(ws.Live())
		rr.WindowCyc = ws.WindowCycles
		rr.LateDrops = ws.LateDrops
		rr.Evicted = ws.EvictedWindows
		for _, s := range []struct {
			name string
			f    func(*WinCounters) uint64
		}{
			{"instructions", func(w *WinCounters) uint64 { return w.Instructions }},
			{"transactions", func(w *WinCounters) uint64 { return w.Transactions }},
			{"invalidations", func(w *WinCounters) uint64 { return w.Invalidations }},
			{"downgrades", func(w *WinCounters) uint64 { return w.Downgrades }},
			{"messages", func(w *WinCounters) uint64 { return w.Msgs }},
			{"DRAM accesses", func(w *WinCounters) uint64 { return w.DRAMAccesses }},
			{"WARD accesses", func(w *WinCounters) uint64 { return w.WardAccesses }},
			{"reconciles", func(w *WinCounters) uint64 { return w.Reconciles }},
		} {
			rr.Series = append(rr.Series, reportSeries{Name: s.name, Spark: sparkline(ws.Series(s.f))})
		}
		rr.Phases = c.Phases.Table()
		rr.Hot = c.Heat.Hottest(20)
	}
	return rr
}

// cut returns the fraction of base removed by other (negative if other grew).
func cut(base, other uint64) float64 {
	if base == 0 {
		return 0
	}
	return 1 - float64(other)/float64(base)
}

// reportCSS is the shared stylesheet of every HTML artifact (run reports
// and the attribution explainer).
const reportCSS = `
body { font: 14px/1.45 system-ui, sans-serif; margin: 2rem auto; max-width: 72rem; color: #111; }
h1 { font-size: 1.4rem; } h2 { font-size: 1.15rem; margin-top: 2rem; } h3 { font-size: 1rem; }
table { border-collapse: collapse; margin: .5rem 0 1rem; }
th, td { border: 1px solid #d4d4d8; padding: .25rem .6rem; text-align: right; }
th:first-child, td:first-child { text-align: left; }
thead th { background: #f4f4f5; }
.spark { vertical-align: middle; background: #f8fafc; border: 1px solid #e4e4e7; }
.sparkmax { color: #71717a; font-size: .8rem; margin-left: .5rem; }
.flat { color: #a1a1aa; font-size: .85rem; }
.good { color: #15803d; } .bad { color: #b91c1c; }
.meta { color: #52525b; font-size: .85rem; }
`

var reportTmpl = template.Must(template.New("report").Funcs(template.FuncMap{
	"f2":  func(v float64) string { return fmt.Sprintf("%.2f", v) },
	"pct": func(v float64) string { return fmt.Sprintf("%.1f%%", v*100) },
	"hex": func(v uint64) string { return fmt.Sprintf("%#x", v) },
}).Parse(`<!DOCTYPE html>
<html lang="en"><head><meta charset="utf-8"><title>{{.Title}}</title>
<style>` + reportCSS + `</style></head><body>
<h1>{{.Title}}</h1>
{{with .Pair}}
<h2>WARDen vs {{.Base.Protocol}}</h2>
<table><thead><tr><th></th><th>{{.Base.Protocol}}</th><th>{{.Other.Protocol}}</th><th>change</th></tr></thead>
<tbody>
<tr><td>cycles</td><td>{{.Base.Cycles}}</td><td>{{.Other.Cycles}}</td>
    <td class="{{if ge .Speedup 1.0}}good{{else}}bad{{end}}">{{f2 .Speedup}}× speedup</td></tr>
<tr><td>invalidations + downgrades</td>
    <td>{{.BaseInvDown}}</td><td>{{.OtherInvDown}}</td>
    <td class="{{if ge .InvDownCut 0.0}}good{{else}}bad{{end}}">{{pct .InvDownCut}} removed</td></tr>
<tr><td>coherence messages</td>
    <td>{{.BaseMsgs}}</td><td>{{.OtherMsgs}}</td>
    <td class="{{if ge .MsgCut 0.0}}good{{else}}bad{{end}}">{{pct .MsgCut}} removed</td></tr>
</tbody></table>
{{end}}
{{range .Runs}}
<h2>{{.Label}}</h2>
<p class="meta">machine {{.Machine}}{{with .Size}} · size {{.}}{{end}} ·
{{.Cycles}} cycles · IPC {{f2 .IPC}} · {{f2 .InvDownPKI}} inv+downg per kilo-instruction
{{if .Capture}} · {{.Windows}} windows of {{.WindowCyc}} cycles
{{if .Evicted}} · {{.Evicted}} evicted{{end}}{{if .LateDrops}} · {{.LateDrops}} late drops{{end}}{{end}}</p>
{{if .Series}}
<h3>Activity over time</h3>
<table><tbody>
{{range .Series}}<tr><td>{{.Name}}</td><td>{{.Spark}}</td></tr>
{{end}}</tbody></table>
{{end}}
{{if .Phases}}
<h3>Phases</h3>
<table><thead><tr><th>phase</th><th>opens</th><th>span cycles</th><th>instr</th><th>loads</th><th>stores</th><th>inv</th><th>downg</th><th>msgs</th><th>WARD</th></tr></thead>
<tbody>
{{range .Phases}}<tr><td>{{.Name}}</td><td>{{.Opens}}</td><td>{{.Cycles}}</td><td>{{.Ctrs.Instructions}}</td><td>{{.Ctrs.Loads}}</td><td>{{.Ctrs.Stores}}</td><td>{{.Ctrs.Invalidations}}</td><td>{{.Ctrs.Downgrades}}</td><td>{{.Ctrs.Msgs}}</td><td>{{.Ctrs.WardAccesses}}</td></tr>
{{end}}</tbody></table>
{{end}}
{{if .Hot}}
<h3>Hottest address buckets</h3>
<table><thead><tr><th>bucket</th><th>txns</th><th>inv</th><th>downg</th><th>ping-pongs</th><th>max sharers</th><th>WARD txns</th><th>reconciles</th></tr></thead>
<tbody>
{{range .Hot}}<tr><td>{{hex .Base}}</td><td>{{.Transactions}}</td><td>{{.Invalidations}}</td><td>{{.Downgrades}}</td><td>{{.PingPongs}}</td><td>{{.MaxSharers}}</td><td>{{.WardTxns}}</td><td>{{.Reconciles}}</td></tr>
{{end}}</tbody></table>
{{end}}
{{end}}
</body></html>
`))

// pairView extends reportPair with the aggregate numbers the template shows.
type pairView struct {
	reportPair
	BaseInvDown, OtherInvDown uint64
	BaseMsgs, OtherMsgs       uint64
}

// WriteHTML renders a self-contained static report for the given runs. With
// exactly two runs the first is treated as the baseline and a comparison
// header is added. The document embeds everything inline (styles, SVG), so
// it can be attached to CI artifacts and opened anywhere.
func WriteHTML(w io.Writer, title string, runs []*RunReport) error {
	data := struct {
		Title string
		Pair  *pairView
		Runs  []*reportRun
	}{Title: title}
	if len(runs) == 2 && runs[1].Cycles > 0 {
		base, other := runs[0], runs[1]
		data.Pair = &pairView{
			reportPair: reportPair{
				Base:       base,
				Other:      other,
				Speedup:    float64(base.Cycles) / float64(other.Cycles),
				InvDownCut: cut(base.Counters.Invalidations+base.Counters.Downgrades, other.Counters.Invalidations+other.Counters.Downgrades),
				MsgCut:     cut(base.Counters.TotalMsgs(), other.Counters.TotalMsgs()),
			},
			BaseInvDown:  base.Counters.Invalidations + base.Counters.Downgrades,
			OtherInvDown: other.Counters.Invalidations + other.Counters.Downgrades,
			BaseMsgs:     base.Counters.TotalMsgs(),
			OtherMsgs:    other.Counters.TotalMsgs(),
		}
	}
	for _, r := range runs {
		data.Runs = append(data.Runs, buildRun(r))
	}
	return reportTmpl.Execute(w, data)
}
