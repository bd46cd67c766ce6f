// Command wardendiff compares performance snapshots from the perfdb
// history store and exits non-zero on regression — the CI perf gate.
//
// Usage:
//
//	wardendiff -history results/history.jsonl
//	    compare the last two snapshots in the history
//	wardendiff -history results/history.jsonl -baseline perf/baseline.jsonl
//	    compare the history's latest snapshot against the committed
//	    baseline (latest baseline snapshot with a matching fingerprint)
//	wardendiff -history h.jsonl -run-a 20260805T120000-1 -run-b 20260805T130000-9
//	    compare two specific run ids from the history
//
// Simulated cycles are deterministic — the same code and inputs produce
// identical counts on any host — so they gate at a tight threshold
// (-threshold, default 1%). Host wall-clock is machine-dependent; it is
// compared only with -wall, at its own threshold (-wall-threshold,
// default 25%) above a noise floor (-min-wall, default 0.5 s).
//
// Older histories whose records carry the legacy worker-provenance field
// are accepted unchanged: pairing and comparison ignore it.
//
// Exit status: 0 no regression, 1 regression detected, 2 usage or I/O
// error.
package main

import (
	"flag"
	"fmt"
	"os"

	"warden/internal/perfdb"
)

func fail(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "wardendiff: "+format+"\n", args...)
	os.Exit(code)
}

func main() {
	history := flag.String("history", "", "perfdb JSONL history file (required)")
	baseline := flag.String("baseline", "", "baseline JSONL file to gate against (default: previous snapshot in -history)")
	runA := flag.String("run-a", "", "base snapshot run id (from -history)")
	runB := flag.String("run-b", "", "new snapshot run id (from -history)")
	threshold := flag.Float64("threshold", perfdb.DefaultThresholds().CyclePct,
		"simulated-cycle regression threshold in percent")
	wall := flag.Bool("wall", false, "also gate on host wall-clock (same-machine comparisons only)")
	wallThreshold := flag.Float64("wall-threshold", perfdb.DefaultThresholds().WallPct,
		"wall-clock regression threshold in percent (with -wall)")
	minWall := flag.Float64("min-wall", perfdb.DefaultThresholds().MinWallSeconds,
		"ignore wall-clock deltas on steps faster than this many seconds (with -wall)")
	flag.Parse()

	if *history == "" {
		fail(2, "-history is required")
	}
	if (*runA == "") != (*runB == "") {
		fail(2, "-run-a and -run-b must be given together")
	}
	if *runA != "" && *baseline != "" {
		fail(2, "-run-a/-run-b and -baseline are mutually exclusive")
	}

	recs, err := perfdb.Read(*history)
	if err != nil {
		fail(2, "%v", err)
	}
	if len(recs) == 0 {
		fail(2, "%s: empty history", *history)
	}

	var base, next perfdb.Snapshot
	switch {
	case *runA != "":
		var ok bool
		if base, ok = perfdb.ByRunID(recs, *runA); !ok {
			fail(2, "run id %q not in %s", *runA, *history)
		}
		if next, ok = perfdb.ByRunID(recs, *runB); !ok {
			fail(2, "run id %q not in %s", *runB, *history)
		}
	case *baseline != "":
		var ok bool
		if next, ok = perfdb.LatestSnapshot(recs, ""); !ok {
			fail(2, "%s: no snapshots", *history)
		}
		baseRecs, err := perfdb.Read(*baseline)
		if err != nil {
			fail(2, "%v", err)
		}
		if base, ok = perfdb.LatestSnapshot(baseRecs, next.Fingerprint); !ok {
			fail(2, "%s: no snapshot with fingerprint %q", *baseline, next.Fingerprint)
		}
	default:
		snaps := perfdb.GroupSnapshots(recs)
		if len(snaps) < 2 {
			fail(2, "%s: need at least two snapshots to compare (have %d); see -baseline", *history, len(snaps))
		}
		base, next = snaps[len(snaps)-2], snaps[len(snaps)-1]
	}

	th := perfdb.Thresholds{
		CyclePct:       *threshold,
		CompareWall:    *wall,
		WallPct:        *wallThreshold,
		MinWallSeconds: *minWall,
	}
	deltas := perfdb.Compare(base, next, th)
	perfdb.WriteReport(os.Stdout, base, next, deltas)
	if perfdb.HasRegression(deltas) {
		fmt.Fprintln(os.Stderr, "wardendiff: performance regression detected")
		os.Exit(1)
	}
	fmt.Println("no regression")
}
