package comm

import (
	"errors"
	"fmt"
	"testing"

	"unsnap/internal/core"
	"unsnap/internal/mesh"
	"unsnap/internal/quadrature"
	"unsnap/internal/xs"
)

// TestLaggedDSADivergenceIsTyped pins that a diverging solve says so. On
// the (PY 1, PZ 2) split of a cyclic 4^3 mesh, the lagged protocol with
// rank-local DSA diverges — df settles near 2 and the flux integral runs
// off to -1e138 — at both twists below, while the (2, 1) split
// converges. The health guards run on every solve, so with no option set
// the run must end in a HealthDiverged *core.HealthError, not spend its
// whole budget and return a wrong flux with a nil error; the converging
// split must not trip them.
func TestLaggedDSADivergenceIsTyped(t *testing.T) {
	for _, tc := range []struct {
		twist, periods float64
		py, pz         int
	}{{0.35, 2, 1, 2}, {0.8, 3, 1, 2}, {0.35, 2, 2, 1}} {
		t.Run(fmt.Sprintf("twist%g/%dx%d", tc.twist, tc.py, tc.pz), func(t *testing.T) {
			m, err := mesh.New(mesh.Config{NX: 4, NY: 4, NZ: 4, LX: 10, LY: 10, LZ: 10,
				Twist: tc.twist, TwistPeriods: tc.periods,
				MatOpt: xs.MatOptCentre, SrcOpt: xs.SrcOptEverywhere})
			if err != nil {
				t.Fatal(err)
			}
			q, err := quadrature.NewSNAP(1)
			if err != nil {
				t.Fatal(err)
			}
			lib, err := xs.NewLibraryRatio(1, 0.95)
			if err != nil {
				t.Fatal(err)
			}
			d, err := New(Config{Mesh: m, PY: tc.py, PZ: tc.pz, Protocol: Lagged,
				Rank: core.Config{Order: 1, Quad: q, Lib: lib, Scheme: core.SchemeEngine, Threads: 1,
					AllowCycles: true, Accelerate: core.AccelDSA,
					Epsi: 1e-6, MaxInners: 3000, MaxOuters: 50}})
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			res, err := d.Run()
			if tc.py == 2 {
				if err != nil || !res.Converged {
					t.Fatalf("the (2, 1) split should converge: err %v, result %+v", err, res)
				}
				return
			}
			var he *core.HealthError
			if !errors.As(err, &he) || he.Kind != core.HealthDiverged {
				t.Fatalf("want a HealthDiverged *core.HealthError, got %v (result %+v)", err, res)
			}
		})
	}
}
