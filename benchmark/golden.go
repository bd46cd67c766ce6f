package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// goldenJSON holds every workload's expected simulated results. Regenerate
// it with `go test -run Golden -update` in this directory after a change
// that deliberately alters simulated results.
//
//go:embed testdata/golden.json
var goldenJSON []byte

// golden is one workload's expected results: a SHA-256 per cell and one
// over all cells in workload order.
type golden struct {
	SHA256 string            `json:"sha256"`
	Cells  map[string]string `json:"cells"`
}

func loadGolden() (map[string]golden, error) {
	var g map[string]golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("testdata/golden.json: %w", err)
	}
	return g, nil
}

// resultLine is the canonical text of a cell's simulated result: benchmark,
// protocol, machine, size, cycles and every counter.
func resultLine(r *cellRun) string {
	return fmt.Sprintf("%s|%s|%s|%d|%d|%+v\n", r.entry.Name, r.proto, r.cfg.Name, r.size, r.cycles, r.counters)
}

func sha(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// digest returns the per-cell digests of runs (keyed by cell name) and the
// digest over all of them in the order given.
func digest(runs []cellRun) golden {
	g := golden{Cells: make(map[string]string, len(runs))}
	all := sha256.New()
	for i := range runs {
		line := resultLine(&runs[i])
		g.Cells[runs[i].String()] = sha(line)
		all.Write([]byte(line))
	}
	g.SHA256 = hex.EncodeToString(all.Sum(nil))
	return g
}
