package main

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.json from fresh runs of every workload")

// identity returns the order 0..n-1.
func identity(n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	return order
}

// TestGolden checks that testdata/golden.json covers exactly the cells of
// every workload and that a few cheap cells still match it. With -update it
// runs every workload once and rewrites the file.
func TestGolden(t *testing.T) {
	if *update {
		out := make(map[string]golden)
		for _, w := range workloads {
			cells := w.cells()
			runs := sweepPass(cells, identity(len(cells))).runs
			for i := range runs {
				if runs[i].err != nil {
					t.Fatal(runs[i].err)
				}
			}
			out[w.name] = digest(runs)
		}
		b, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join("testdata", "golden.json"), append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}

	gold, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	if len(gold) != len(workloads) {
		t.Errorf("golden.json has %d workloads, want %d", len(gold), len(workloads))
	}
	for _, w := range workloads {
		g, ok := gold[w.name]
		if !ok {
			t.Errorf("golden.json has no entry for %s", w.name)
			continue
		}
		cells := w.cells()
		if len(g.Cells) != len(cells) {
			t.Errorf("%s: golden.json has %d cells, workload has %d", w.name, len(g.Cells), len(cells))
		}
		for _, c := range cells {
			if _, ok := g.Cells[c.String()]; !ok {
				t.Errorf("%s: golden.json lacks cell %s", w.name, c)
			}
		}
	}

	w, _ := workloadByName("fig7-1s")
	for _, c := range w.cellsOf([]string{"fib", "nqueens"}) {
		r := runCell(c, nil)
		if r.err != nil {
			t.Fatal(r.err)
		}
		if got, want := sha(resultLine(&r)), gold[w.name].Cells[c.String()]; got != want {
			t.Errorf("%s: digest %s, golden %s", c, got, want)
		}
	}
}
