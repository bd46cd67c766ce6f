package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"

	"warden/internal/attrib"
	"warden/internal/core"
	"warden/internal/machine"
)

// traceReps is how many times the traced run measures each deep-dive cell
// and each of its replays; per-layer times are medians over them.
const traceReps = 3

// spanRec is one timed interval of the traced run.
type spanRec struct {
	name       string
	track      int // index into the run's track names
	rep        int
	start, end time.Time
}

// tracer keeps the traced run's spans in memory until the run ends.
type tracer struct {
	origin time.Time
	tracks []string
	spans  []spanRec
}

// span runs fn as a span named name on track, repetition rep.
func (t *tracer) span(name string, track, rep int, fn func()) {
	s := spanRec{name: name, track: track, rep: rep, start: time.Now()}
	fn()
	s.end = time.Now()
	t.spans = append(t.spans, s)
}

// add records a span measured elsewhere.
func (t *tracer) add(name string, track, rep int, start time.Time, d time.Duration) {
	t.spans = append(t.spans, spanRec{name: name, track: track, rep: rep, start: start, end: start.Add(d)})
}

// writeChrome writes the spans as a Chrome trace_event document: one
// thread per track, one complete ("X") event per span, timestamps in
// microseconds from the start of the run.
func (t *tracer) writeChrome(w io.Writer) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat,omitempty"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	var evs []event
	for i, name := range t.tracks {
		evs = append(evs, event{Name: "thread_name", Ph: "M", TID: i, Args: map[string]any{"name": name}})
	}
	us := func(at time.Time) float64 { return float64(at.Sub(t.origin).Nanoseconds()) / 1e3 }
	// Spans are appended in start order per track: every track's spans are
	// recorded sequentially on one goroutine.
	for _, s := range t.spans {
		evs = append(evs, event{
			Name: s.name, Cat: "benchmark", Ph: "X", TS: us(s.start), Dur: us(s.end) - us(s.start),
			TID: s.track, Args: map[string]any{"rep": s.rep},
		})
	}
	return json.NewEncoder(w).Encode(map[string]any{"displayTimeUnit": "ms", "traceEvents": evs})
}

// layerCell accumulates one deep-dive cell's per-repetition measurements.
type layerCell struct {
	bare, eng, core, mach, obs       []float64 // seconds
	build, inputs, verify, sched     []float64
	gcCPU, cpu                       float64 // over the bare runs
	ops, accesses, hits, dir, invdg  uint64  // deterministic
	instr, forks, steals, sinkEvents uint64
	untraced                         []float64 // bare simulate before tracing started
}

// traced runs the deep-dive cells of w layer by layer and reports the
// per-layer metrics. For each cell it records the instruction stream once,
// then runs traceReps repetitions of: the bare cell (set-up, simulate,
// verify), the engine, memory-system and machine replays, and (lens-2s
// only) the cell with an attribution ledger attached. Every bare result
// must match the golden digest and every replay must be exact.
func traced(w *workload, seed int64, want golden, dir string, out io.Writer) (report, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return report{}, err
	}
	cells := w.cellsOf(deepDive)
	order := rand.New(rand.NewSource(seed)).Perm(len(cells))
	if r := runCell(cells[0], nil); r.err != nil {
		return report{}, fmt.Errorf("warm-up: %w", r.err)
	}

	lc := make([]layerCell, len(cells))
	// Untraced reference: the same bare runs before the profiler starts and
	// without spans; the traced bare runs' excess over them is the tracing
	// overhead.
	for rep := 0; rep < traceReps; rep++ {
		for _, k := range order {
			lc[k].untraced = append(lc[k].untraced, runCell(cells[k], nil).sim.Seconds())
		}
	}

	prof, err := os.Create(filepath.Join(dir, w.name+".cpu.pprof"))
	if err != nil {
		return report{}, err
	}
	defer prof.Close()
	if err := pprof.StartCPUProfile(prof); err != nil {
		return report{}, err
	}
	tr := &tracer{origin: time.Now()}
	for _, c := range cells {
		tr.tracks = append(tr.tracks, c.String())
	}
	explainTrack := len(tr.tracks)
	tr.tracks = append(tr.tracks, "explain")

	attempted := 0
	var failures []error
	fail := func(err error) { failures = append(failures, err) }
	ledgers := make([]*attrib.Ledger, len(cells)) // lens: last repetition's ledger per cell
	for _, k := range order {
		c, l := cells[k], &lc[k]
		var rec *recording
		var recRun cellRun
		tr.span("record", k, 0, func() {
			rec = newRecording(c.cfg, c.proto)
			recRun = runCell(c, rec.attach)
			rec.finish()
		})
		l.ops = rec.engineOps()
		for rep := 0; rep < traceReps; rep++ {
			attempted++
			h0 := readHost()
			start := time.Now()
			bare := runCell(c, nil)
			hd := h0.to(readHost())
			tr.add("setup", k, rep, start, bare.setup())
			tr.add("simulate", k, rep, start.Add(bare.setup()), bare.sim)
			tr.add("verify", k, rep, start.Add(bare.setup()+bare.sim), bare.verify)
			if bare.err == nil && sha(resultLine(&bare)) != want.Cells[c.String()] {
				bare.err = fmt.Errorf("%s: result digest does not match golden", c)
			}
			if bare.err == nil && (recRun.err != nil || recRun.cycles != bare.cycles || recRun.counters != bare.counters) {
				bare.err = fmt.Errorf("%s: recorded run differs from the bare run (recording error: %v)", c, recRun.err)
			}
			if bare.err != nil {
				fail(bare.err)
				continue
			}
			l.bare = append(l.bare, bare.sim.Seconds())
			l.build = append(l.build, bare.build.Seconds())
			l.inputs = append(l.inputs, bare.inputs.Seconds())
			l.verify = append(l.verify, bare.verify.Seconds())
			l.sched = append(l.sched, float64(hd.schedEvents))
			l.gcCPU += hd.gcCPU
			l.cpu += hd.cpu.Seconds()
			ctr := bare.counters
			l.accesses, l.hits, l.dir = ctr.L1Accesses, ctr.L1Hits, ctr.DirAccesses
			l.invdg, l.instr = ctr.Invalidations+ctr.Downgrades, ctr.Instructions
			l.forks, l.steals = bare.forks, bare.steals

			lt, err := replayAll(rec, &bare, func(name string, fn func()) { tr.span(name, k, rep, fn) })
			if err != nil {
				fail(err)
				continue
			}
			l.eng = append(l.eng, lt.engine.Seconds())
			l.core = append(l.core, lt.core.Seconds())
			l.mach = append(l.mach, lt.machine.Seconds())

			if w.lens {
				led := attrib.New(attrib.Config{})
				start := time.Now()
				obs := runCell(c, func(*machine.Machine) core.Sink { return led })
				tr.add("simulate.observed", k, rep, start.Add(obs.setup()), obs.sim)
				if obs.err == nil {
					obs.err = led.Reconcile(obs.cycles)
				}
				if obs.err != nil {
					fail(obs.err)
					continue
				}
				l.obs = append(l.obs, obs.sim.Seconds())
				l.sinkEvents = led.Events()
				ledgers[k] = led
			}
		}
	}

	// lens-2s: time the WARDen-vs-MESI explanation of each deep-dive
	// benchmark from the observed runs' ledgers.
	var explain []float64
	if w.lens {
		np := len(w.protos)
		for k := 0; k+1 < len(cells); k += np {
			if ledgers[k] == nil || ledgers[k+1] == nil {
				continue
			}
			// Reconcile succeeded on both, so each reconciled total is the
			// run's measured cycle count.
			sc, _ := ledgers[k].Reconciled()
			bc, _ := ledgers[k+1].Reconciled()
			var ds []float64
			for rep := 0; rep < traceReps; rep++ {
				attempted++
				var err error
				t0 := time.Now()
				tr.span("explain", explainTrack, rep, func() {
					_, err = attrib.Explain(w.protos[0], ledgers[k], sc, w.protos[1], ledgers[k+1], bc)
				})
				ds = append(ds, time.Since(t0).Seconds())
				if err != nil {
					fail(fmt.Errorf("%s: explain: %w", cells[k].entry.Name, err))
				}
			}
			explain = append(explain, median(ds))
		}
	}
	pprof.StopCPUProfile()
	if err := prof.Close(); err != nil {
		return report{}, err
	}
	spanPath := filepath.Join(dir, w.name+".trace.json")
	if err := writeFile(spanPath, tr.writeChrome); err != nil {
		return report{}, err
	}

	m := layerMetrics(w, lc, explain)
	for _, err := range failures {
		fmt.Fprintf(out, "FAIL %v\n", err)
	}
	printLayers(out, cells, lc, m)
	fmt.Fprintf(out, "spans: %s\ncpu profile: %s\n", spanPath, prof.Name())
	return report{Correct: len(failures) == 0, Attempted: attempted, Failed: len(failures), Metrics: m}, nil
}

// writeFile creates path and fills it with write, checking every error.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	err = write(bw)
	if ferr := bw.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// layerMetrics sums each cell's per-repetition medians over the deep-dive
// cells and derives the per-layer metrics. Shares are fractions of the
// cells' bare simulate time.
func layerMetrics(w *workload, lc []layerCell, explain []float64) map[string]metric {
	var bare, eng, cor, mach, obs, build, inputs, verify, sched, untraced, gc, cpu float64
	var ops, acc, hits, dir, invdg, instr, forks, steals, events uint64
	for i := range lc {
		l := &lc[i]
		bare += median(l.bare)
		eng += median(l.eng)
		cor += median(l.core)
		mach += median(l.mach)
		obs += median(l.obs)
		build += median(l.build)
		inputs += median(l.inputs)
		verify += median(l.verify)
		sched += median(l.sched)
		untraced += median(l.untraced)
		gc += l.gcCPU
		cpu += l.cpu
		ops += l.ops
		acc += l.accesses
		hits += l.hits
		dir += l.dir
		invdg += l.invdg
		instr += l.instr
		forks += l.forks
		steals += l.steals
		events += l.sinkEvents
	}
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	machSelf := mach - eng - cor
	vals := map[string]float64{
		"engine.ops":                float64(ops),
		"engine.replay_ns_per_op":   div(eng*1e9, float64(ops)),
		"engine.share":              div(eng, bare),
		"go.sched_events":           sched,
		"core.accesses":             float64(acc),
		"core.replay_ns_per_access": div(cor*1e9, float64(acc)),
		"core.share":                div(cor, bare),
		"core.l1_hit_ratio":         div(float64(hits), float64(acc)),
		"core.dir_per_kaccess":      div(1e3*float64(dir), float64(acc)),
		"core.inv_dg_per_kinstr":    div(1e3*float64(invdg), float64(instr)),
		"machine.self_ns_per_op":    div(machSelf*1e9, float64(ops)),
		"machine.share":             div(machSelf, bare),
		"machine.build_ms":          build * 1e3,
		"hlpl.self_share":           div(bare-mach, bare),
		"hlpl.forks":                float64(forks),
		"hlpl.steals":               float64(steals),
		"pbbs.setup_ms":             inputs * 1e3,
		"pbbs.verify_ms":            verify * 1e3,
		"sinks.share":               0,
		"sinks.ns_per_event":        0,
		"attrib.explain_ms":         0,
		"go.gc_cpu_frac":            div(gc, cpu),
		"trace.overhead_share":      div(bare-untraced, untraced),
		"sim.bare_ms":               bare * 1e3,
	}
	if w.lens {
		vals["sinks.share"] = div(obs-bare, bare)
		vals["sinks.ns_per_event"] = div((obs-bare)*1e9, float64(events))
		var ex float64
		for _, d := range explain {
			ex += d
		}
		vals["attrib.explain_ms"] = ex * 1e3
	}
	return metricsOf(perLayer, vals)
}

// perLayer lists the per-layer metrics, in print order, with their units.
var perLayer = []metricDef{
	{"sim.bare_ms", "ms"},
	{"engine.ops", "count"}, {"engine.replay_ns_per_op", "ns/op"}, {"engine.share", "ratio"}, {"go.sched_events", "count"},
	{"core.accesses", "count"}, {"core.replay_ns_per_access", "ns/access"}, {"core.share", "ratio"},
	{"core.l1_hit_ratio", "ratio"}, {"core.dir_per_kaccess", "1/kaccess"}, {"core.inv_dg_per_kinstr", "1/kinstr"},
	{"machine.self_ns_per_op", "ns/op"}, {"machine.share", "ratio"}, {"machine.build_ms", "ms"},
	{"hlpl.self_share", "ratio"}, {"hlpl.forks", "count"}, {"hlpl.steals", "count"},
	{"pbbs.setup_ms", "ms"}, {"pbbs.verify_ms", "ms"},
	{"sinks.share", "ratio"}, {"sinks.ns_per_event", "ns/event"}, {"attrib.explain_ms", "ms"},
	{"go.gc_cpu_frac", "ratio"}, {"trace.overhead_share", "ratio"},
}

// printLayers prints the per-cell split and the per-layer metrics.
func printLayers(out io.Writer, cells []cell, lc []layerCell, m map[string]metric) {
	fmt.Fprintf(out, "\n%-20s %10s %10s %10s %10s %10s  (median ms of %d reps)\n", "cell", "bare", "engine", "core", "machine", "observed", traceReps)
	for i, c := range cells {
		l := &lc[i]
		fmt.Fprintf(out, "%-20s %10.2f %10.2f %10.2f %10.2f %10.2f\n", c,
			median(l.bare)*1e3, median(l.eng)*1e3, median(l.core)*1e3, median(l.mach)*1e3, median(l.obs)*1e3)
	}
	fmt.Fprintln(out)
	for _, d := range perLayer {
		fmt.Fprintf(out, "%-26s %14.4f %s\n", d.name, m[d.name].Value, d.unit)
	}
}
