package telemetry

// Span export: render a collected []span.Span as a Chrome trace_event /
// Perfetto JSON document, one track per span Track (coordinator, each
// worker), so a traced fleet sweep opens as a single timeline in
// ui.perfetto.dev. The output satisfies every invariant ValidatePerfetto
// enforces — only M and X phase letters, per-tid nondecreasing timestamps,
// nonnegative durations — and the wardenfleet CI job round-trips it through
// `wardenreport -validate`.
//
// Overlapping siblings on one track (concurrent units on the coordinator,
// say) cannot share a Perfetto thread lane without melting into one
// slice, so each track's spans are split into lanes by greedy interval
// coloring: a span fits a lane iff it is disjoint from everything open
// there or fully contained in the innermost open span (Perfetto nests
// contained X slices within a lane). The parent's lane is preferred, then
// the lowest-numbered lane that fits, then a fresh one. Lane 0 keeps the
// bare track name; lane k is named "track #k".

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"warden/internal/span"
)

// laneKey identifies one emitted Perfetto thread.
type laneKey struct {
	track string
	lane  int
}

// WriteSpans writes spans as a trace_event JSON object document. Timestamps
// are normalized so the earliest span starts at ts 0; durations are
// microseconds end-to-end. Span order in the input is irrelevant — output
// is fully deterministic for a given set of spans.
func WriteSpans(w io.Writer, spans []span.Span) error {
	byTrack := make(map[string][]span.Span)
	byID := make(map[string]span.Span, len(spans))
	var base int64
	for i, s := range spans {
		byTrack[s.Track] = append(byTrack[s.Track], s)
		byID[s.SpanID] = s
		if i == 0 || s.StartUS < base {
			base = s.StartUS
		}
	}
	tracks := make([]string, 0, len(byTrack))
	for t := range byTrack {
		tracks = append(tracks, t)
	}
	sort.Strings(tracks)

	// Assign lanes per track, then a global tid per (track, lane).
	lanes := make(map[string]int, len(spans)) // span id -> lane within its track
	tids := make(map[laneKey]int)
	type meta struct {
		key laneKey
		tid int
	}
	var metas []meta
	for _, t := range tracks {
		ss := byTrack[t]
		sort.Slice(ss, func(i, j int) bool {
			if ss[i].StartUS != ss[j].StartUS {
				return ss[i].StartUS < ss[j].StartUS
			}
			if ss[i].EndUS != ss[j].EndUS {
				return ss[i].EndUS > ss[j].EndUS // wider first, so parents precede children
			}
			return ss[i].SpanID < ss[j].SpanID
		})
		byTrack[t] = ss
		// Per lane, the stack of currently-open interval ends (a nesting
		// chain — each entry is contained in the one below it).
		var stacks [][]int64
		fits := func(l int, s span.Span) bool {
			st := stacks[l]
			for len(st) > 0 && st[len(st)-1] <= s.StartUS {
				st = st[:len(st)-1] // closed before s starts
			}
			stacks[l] = st
			return len(st) == 0 || s.EndUS <= st[len(st)-1]
		}
		for _, s := range ss {
			lane := -1
			if p, ok := byID[s.Parent]; ok && p.Track == s.Track {
				if pl, ok := lanes[p.SpanID]; ok && fits(pl, s) {
					lane = pl
				}
			}
			if lane == -1 {
				for l := range stacks {
					if fits(l, s) {
						lane = l
						break
					}
				}
			}
			if lane == -1 {
				lane = len(stacks)
				stacks = append(stacks, nil)
			}
			end := s.EndUS
			if end < s.StartUS {
				end = s.StartUS
			}
			stacks[lane] = append(stacks[lane], end)
			lanes[s.SpanID] = lane
		}
		nLanes := 0
		for _, s := range ss {
			if lanes[s.SpanID]+1 > nLanes {
				nLanes = lanes[s.SpanID] + 1
			}
		}
		for l := 0; l < nLanes; l++ {
			k := laneKey{track: t, lane: l}
			tids[k] = len(metas)
			metas = append(metas, meta{key: k, tid: len(metas)})
		}
	}

	ew := &eventWriter{w: w}
	ew.raw(`{"displayTimeUnit":"ms","otherData":{"generator":"warden"},"traceEvents":[`)
	ew.emit(map[string]any{
		"name": "process_name", "ph": "M", "pid": 0,
		"args": map[string]any{"name": "warden fleet"},
	})
	for _, m := range metas {
		name := m.key.track
		if m.key.lane > 0 {
			name = fmt.Sprintf("%s #%d", m.key.track, m.key.lane)
		}
		ew.emit(map[string]any{
			"name": "thread_name", "ph": "M", "pid": 0, "tid": m.tid,
			"args": map[string]any{"name": name},
		})
		ew.emit(map[string]any{
			"name": "thread_sort_index", "ph": "M", "pid": 0, "tid": m.tid,
			"args": map[string]any{"sort_index": m.tid},
		})
	}
	// One pass per tid keeps each track's timestamps contiguous and
	// nondecreasing in document order (the validator tracks ts per tid,
	// but grouped output also diffs cleanly).
	for _, m := range metas {
		for _, s := range byTrack[m.key.track] {
			if lanes[s.SpanID] != m.key.lane {
				continue
			}
			args := map[string]any{
				"trace_id": s.TraceID,
				"span_id":  s.SpanID,
			}
			if s.Parent != "" {
				args["parent"] = s.Parent
			}
			for k, v := range s.Attrs {
				args[k] = v
			}
			ew.emit(map[string]any{
				"name": s.Name, "cat": "span", "ph": "X",
				"ts": s.StartUS - base, "dur": s.Duration().Microseconds(),
				"pid": 0, "tid": m.tid, "args": args,
			})
		}
	}
	ew.raw("\n]}\n")
	return ew.err
}

// eventWriter shares the streaming comma/newline discipline of Perfetto's
// writer but marshals whole event objects (span attrs are caller data, so
// hand-formatting JSON would be fragile).
type eventWriter struct {
	w   io.Writer
	n   int
	err error
}

func (e *eventWriter) raw(s string) {
	if e.err != nil {
		return
	}
	_, e.err = io.WriteString(e.w, s)
}

func (e *eventWriter) emit(obj map[string]any) {
	if e.err != nil {
		return
	}
	b, err := json.Marshal(obj)
	if err != nil {
		e.err = err
		return
	}
	sep := ",\n"
	if e.n == 0 {
		sep = "\n"
	}
	e.n++
	if _, err := io.WriteString(e.w, sep); err != nil {
		e.err = err
		return
	}
	_, e.err = e.w.Write(b)
}
