package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
)

//go:embed golden.json
var builtinGolden []byte

// goldenTol is the relative agreement required with a recorded answer.
// The solvers are bitwise reproducible on one machine; the tolerance
// leaves room for another architecture's fused multiply-adds.
const goldenTol = 1e-9

// goldenEntry is the recorded answer of one library workload at one seed.
type goldenEntry struct {
	Flux   []float64 `json:"flux"`
	Inners int       `json:"inners"`
}

// goldenSet holds the recorded answers: the file built into the binary,
// or the one named by -golden.
type goldenSet struct {
	entries map[string]goldenEntry
	path    string // where save writes
	update  bool
	dirty   bool
}

func loadGolden(path string, update bool) (*goldenSet, error) {
	g := &goldenSet{entries: map[string]goldenEntry{}, path: path, update: update}
	data := builtinGolden
	if path != "" {
		var err error
		if data, err = os.ReadFile(path); err != nil {
			if !(update && os.IsNotExist(err)) {
				return nil, err
			}
			data = []byte("{}")
		}
	} else if update {
		return nil, fmt.Errorf("-update-golden needs -golden <path of golden.json> to write to")
	}
	if err := json.Unmarshal(data, &g.entries); err != nil {
		return nil, fmt.Errorf("golden file: %w", err)
	}
	return g, nil
}

func goldenKey(workload string, rc runConfig) string {
	scale := "full"
	if rc.tiny {
		scale = "tiny"
	}
	return fmt.Sprintf("%s/seed=%d/%s", workload, rc.seed, scale)
}

// check compares an answer with the recorded one and returns a message
// when they disagree. Seeds without a recorded answer pass (the other
// oracles still apply to them); with -update-golden the answer is
// recorded instead.
func (g *goldenSet) check(key string, flux []float64, inners int) string {
	if g.update {
		g.entries[key] = goldenEntry{Flux: flux, Inners: inners}
		g.dirty = true
		return ""
	}
	want, ok := g.entries[key]
	if !ok {
		return ""
	}
	if want.Inners != inners {
		return fmt.Sprintf("golden %s: %d inners, recorded %d", key, inners, want.Inners)
	}
	if d := relDiff(flux, want.Flux); !(d <= goldenTol) || math.IsNaN(d) {
		return fmt.Sprintf("golden %s: flux integrals differ from the recorded ones by %.3g > %.0e", key, d, goldenTol)
	}
	return ""
}

func (g *goldenSet) save() error {
	if !g.dirty {
		return nil
	}
	data, err := json.MarshalIndent(g.entries, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(g.path, append(data, '\n'), 0o644)
}
