package main

import (
	"testing"

	"unsnap/internal/build"
)

// TestCyclicStatsCondensesOnce pins that -cyclic shares its whole-domain
// condensation with the stats' cycle summary: a -cyclic stats run
// classifies and condenses exactly as much as a plain stats run.
func TestCyclicStatsCondensesOnce(t *testing.T) {
	work := func(args ...string) (classifications, condensations int64) {
		t.Helper()
		cl0, co0 := build.Classifications(), build.Condensations()
		if err := run(args); err != nil {
			t.Fatal(err)
		}
		return build.Classifications() - cl0, build.Condensations() - co0
	}
	mesh := []string{"-nx", "6", "-twist", "0.35", "-periods", "2"}
	cl, co := work(append(mesh, "stats")...)
	ccl, cco := work(append(mesh, "-cyclic", "stats")...)
	if ccl != cl || cco != co {
		t.Fatalf("-cyclic stats: %d classifications, %d condensations; stats alone: %d, %d", ccl, cco, cl, co)
	}
}
