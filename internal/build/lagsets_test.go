package build

import (
	"errors"
	"testing"

	"unsnap/internal/fem"
	"unsnap/internal/mesh"
	"unsnap/internal/quadrature"
	"unsnap/internal/sweep"
)

// TestGlobalLagSets holds the whole-domain condensation to the build's
// own: on oscillating-twist meshes, under both cut rules, every
// ordinate's lag set is, as an edge set, the lagged couplings of the
// schedule Build makes for it; AnyLag and MaxComp >= 2 hold exactly when
// some ordinate lags. An acyclic mesh gives all-nil sets, and without
// allowCycles a cyclic mesh fails with sweep.ErrCycle.
func TestGlobalLagSets(t *testing.T) {
	q, err := quadrature.NewSNAP(4)
	if err != nil {
		t.Fatal(err)
	}
	re, err := fem.NewRefElement(1)
	if err != nil {
		t.Fatal(err)
	}
	newMesh := func(n int, twist, periods float64) *mesh.Mesh {
		t.Helper()
		m, err := mesh.New(mesh.Config{NX: n, NY: n, NZ: n, LX: 1, LY: 1, LZ: 1,
			Twist: twist, TwistPeriods: periods})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}

	cyclicSeen := false
	for _, n := range []int{4, 6} {
		m := newMesh(n, 0.35, 2)
		for _, co := range sweep.CycleOrders() {
			ls, err := GlobalLagSets(m, re, q, co, true)
			if err != nil {
				t.Fatalf("%d^3 %s: %v", n, co, err)
			}
			art, err := Build(Spec{Mesh: m, Order: 1, Quad: q, Threads: 1, AllowCycles: true, CycleOrder: co})
			if err != nil {
				t.Fatalf("%d^3 %s: %v", n, co, err)
			}
			if len(ls.Of) != q.NumAngles() {
				t.Fatalf("%d^3 %s: %d lag sets for %d ordinates", n, co, len(ls.Of), q.NumAngles())
			}
			lags := false
			for a, of := range ls.Of {
				want := art.Topos[a].Sched.Lagged
				if len(want) == 0 {
					if of != nil {
						t.Fatalf("%d^3 %s angle %d: acyclic ordinate has lag set %v", n, co, a, of)
					}
					continue
				}
				lags = true
				if len(of) != len(want) {
					t.Fatalf("%d^3 %s angle %d: %d lagged edges, Build lags %d", n, co, a, len(of), len(want))
				}
				for _, l := range want {
					if !of[l] {
						t.Fatalf("%d^3 %s angle %d: Build lags %v, the whole-domain set does not", n, co, a, l)
					}
				}
			}
			if ls.AnyLag != lags || (ls.MaxComp >= 2) != lags {
				t.Fatalf("%d^3 %s: AnyLag %t, MaxComp %d, some ordinate lags: %t", n, co, ls.AnyLag, ls.MaxComp, lags)
			}
			cyclicSeen = cyclicSeen || lags
			if lags {
				if _, err := GlobalLagSets(m, re, q, co, false); !errors.Is(err, sweep.ErrCycle) {
					t.Fatalf("%d^3 %s without allowCycles: err %v, want sweep.ErrCycle", n, co, err)
				}
			}
		}
	}
	if !cyclicSeen {
		t.Fatal("no test mesh is cyclic: the lag-set comparison is vacuous")
	}

	ls, err := GlobalLagSets(newMesh(4, 0.001, 0), re, q, sweep.OrderElementIndex, true)
	if err != nil {
		t.Fatal(err)
	}
	for a, of := range ls.Of {
		if of != nil {
			t.Fatalf("acyclic mesh: angle %d has lag set %v", a, of)
		}
	}
	if ls.AnyLag || ls.MaxComp != 1 {
		t.Fatalf("acyclic mesh: AnyLag %t, MaxComp %d", ls.AnyLag, ls.MaxComp)
	}
}
