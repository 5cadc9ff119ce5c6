// Benchmarks regenerating the paper's tables and figures as testing.B
// targets (one family per table/figure; the cmd/unsnap-bench harness
// prints the corresponding full tables). Sizes are bench-scale so that
// `go test -bench=.` completes on a laptop; the shapes — cost growth with
// element order, scheme orderings, GE-vs-LU crossover, Jacobi iteration
// growth — are what matters, not absolute numbers.
package unsnap_test

import (
	"math/rand"
	"strconv"
	"testing"

	"unsnap"
	"unsnap/internal/la"
)

// sweepBench builds a solver and times PrepareInner+SweepAllAngles pairs.
func sweepBench(b *testing.B, p unsnap.Problem, o unsnap.Options) {
	b.Helper()
	o.MaxInners = 1
	o.MaxOuters = 1
	o.ForceIterations = true
	s, err := unsnap.NewSolver(p, o)
	if err != nil {
		b.Fatal(err)
	}
	inner := s.Internal()
	inner.ComputeOuterSource()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inner.PrepareInner()
		if err := inner.SweepAllAngles(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableI times the assemble+solve of a full sweep on a
// single-element problem per element order: the per-system cost growth
// behind Table I's matrix sizes.
func BenchmarkTableI(b *testing.B) {
	for _, order := range []int{1, 2, 3, 4, 5} {
		b.Run(orderName(order), func(b *testing.B) {
			p := unsnap.Problem{
				NX: 1, NY: 1, NZ: 1, LX: 1, LY: 1, LZ: 1,
				Twist: 0.01, MatOpt: unsnap.MatHomogeneous, SrcOpt: unsnap.SrcEverywhere,
				Order: order, AnglesPerOctant: 1, Groups: 1,
			}
			sweepBench(b, p, unsnap.Options{Threads: 1})
		})
	}
}

func orderName(order int) string {
	return "order-" + strconv.Itoa(order)
}

// BenchmarkTableII compares the two local solvers across orders on a small
// twisted mesh (the paper's Table II comparison).
func BenchmarkTableII(b *testing.B) {
	for _, kind := range []unsnap.SolverKind{unsnap.GE, unsnap.DGESV} {
		b.Run(kind.String(), func(b *testing.B) {
			for _, order := range []int{1, 2, 3} {
				b.Run(orderName(order), func(b *testing.B) {
					p := unsnap.DefaultProblem()
					p.NX, p.NY, p.NZ = 4, 4, 4
					p.AnglesPerOctant = 2
					p.Groups = 2
					p.Order = order
					sweepBench(b, p, unsnap.Options{Solver: kind, Threads: 1})
				})
			}
		})
	}
}

// BenchmarkFig3 sweeps the concurrency schemes at two worker counts with
// linear elements (the paper's Figure 3 series).
func BenchmarkFig3(b *testing.B) {
	schemes := []unsnap.Scheme{unsnap.AEg, unsnap.AEG, unsnap.AeG, unsnap.AGe, unsnap.AGE, unsnap.AgE}
	for _, scheme := range schemes {
		b.Run(scheme.String(), func(b *testing.B) {
			for _, threads := range []int{1, 2} {
				b.Run(threadName(threads), func(b *testing.B) {
					p := unsnap.DefaultProblem()
					p.NX, p.NY, p.NZ = 6, 6, 6
					p.AnglesPerOctant = 2
					p.Groups = 4
					sweepBench(b, p, unsnap.Options{Scheme: scheme, Threads: threads})
				})
			}
		})
	}
}

func threadName(t int) string {
	return "threads-" + strconv.Itoa(t)
}

// BenchmarkFig4 repeats the scheme comparison with cubic elements
// (Figure 4).
func BenchmarkFig4(b *testing.B) {
	schemes := []unsnap.Scheme{unsnap.AEG, unsnap.AGE}
	for _, scheme := range schemes {
		b.Run(scheme.String(), func(b *testing.B) {
			for _, threads := range []int{1, 2} {
				b.Run(threadName(threads), func(b *testing.B) {
					p := unsnap.DefaultProblem()
					p.NX, p.NY, p.NZ = 3, 3, 3
					p.AnglesPerOctant = 1
					p.Groups = 2
					p.Order = 3
					sweepBench(b, p, unsnap.Options{Scheme: scheme, Threads: threads})
				})
			}
		})
	}
}

// BenchmarkEngine is the engine-vs-legacy family: the persistent
// worker-pool sweep engine against the legacy bucket executor (SchemeAEg,
// the paper's element-threading baseline) on a Fig. 3-style workload —
// linear elements, several angles per octant, shallow buckets — across
// thread counts. The cmd/unsnap-bench `engine` experiment (and
// scripts/bench.sh) records the same comparison into BENCH_sweep.json.
func BenchmarkEngine(b *testing.B) {
	modes := []struct {
		name   string
		scheme unsnap.Scheme
	}{
		{"legacy-AEg", unsnap.AEg},
		{"engine", unsnap.Engine},
	}
	for _, mode := range modes {
		b.Run(mode.name, func(b *testing.B) {
			for _, threads := range []int{1, 4} {
				b.Run(threadName(threads), func(b *testing.B) {
					p := unsnap.DefaultProblem()
					p.NX, p.NY, p.NZ = 6, 6, 6
					p.AnglesPerOctant = 4
					p.Groups = 4
					sweepBench(b, p, unsnap.Options{Scheme: mode.scheme, Threads: threads})
				})
			}
		})
	}
}

// BenchmarkAtomicAngles compares angle threading against the collapsed
// legacy scheme. The paper's section IV-A3 found angle threading does
// not scale — with the striped-lock flux update it then had. The engine's
// wavefronts are angle-parallel with a lock-free ordered reduction, so it
// is expected to match or beat AEG; the series tracks how far the engine
// moved this ablation from the paper's published result.
func BenchmarkAtomicAngles(b *testing.B) {
	for _, scheme := range []unsnap.Scheme{unsnap.AEG, unsnap.Engine} {
		b.Run(scheme.String(), func(b *testing.B) {
			p := unsnap.DefaultProblem()
			p.NX, p.NY, p.NZ = 4, 4, 4
			p.AnglesPerOctant = 4
			p.Groups = 2
			sweepBench(b, p, unsnap.Options{Scheme: scheme, Threads: 2})
		})
	}
}

// BenchmarkPreassembled measures the section IV-B1 optimisation: sweeps
// with pre-factorised matrices versus on-the-fly assembly.
func BenchmarkPreassembled(b *testing.B) {
	for _, pre := range []struct {
		name string
		on   bool
	}{{"on-the-fly", false}, {"pre-assembled", true}} {
		b.Run(pre.name, func(b *testing.B) {
			p := unsnap.DefaultProblem()
			p.NX, p.NY, p.NZ = 4, 4, 4
			p.AnglesPerOctant = 2
			p.Groups = 2
			sweepBench(b, p, unsnap.Options{PreAssembled: pre.on, Threads: 1})
		})
	}
}

// BenchmarkJacobiBlocks times one block Jacobi inner iteration across rank
// counts (section III-A1; per-iteration cost shrinks with ranks while the
// iteration count to convergence grows — see cmd/unsnap-bench -experiment
// jacobi for the convergence side).
func BenchmarkJacobiBlocks(b *testing.B) {
	for _, grid := range [][2]int{{1, 1}, {2, 1}, {2, 2}} {
		name := "ranks-" + string(rune('0'+grid[0]*grid[1]))
		b.Run(name, func(b *testing.B) {
			p := unsnap.DefaultProblem()
			p.NX, p.NY, p.NZ = 6, 6, 6
			p.AnglesPerOctant = 2
			p.Groups = 2
			d, err := unsnap.NewDistributed(p, unsnap.Options{
				MaxInners: 1, MaxOuters: 1, ForceIterations: true, Threads: 1,
			}, grid[0], grid[1])
			if err != nil {
				b.Fatal(err)
			}
			defer d.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := d.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFDBaseline times the diamond-difference sweep for the section
// II-C trade-off comparison (same grid as BenchmarkTableII order 1).
func BenchmarkFDBaseline(b *testing.B) {
	p := unsnap.DefaultProblem()
	p.NX, p.NY, p.NZ = 4, 4, 4
	p.AnglesPerOctant = 2
	p.Groups = 2
	s, err := unsnap.NewFD(p, unsnap.Options{
		MaxInners: 1, MaxOuters: 1, ForceIterations: true,
	}, false)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLocalSolve times the raw dense solvers at the paper's Table I
// matrix sizes, isolating the GE-vs-blocked-LU crossover from the sweep.
func BenchmarkLocalSolve(b *testing.B) {
	sizes := []struct {
		name string
		n    int
	}{{"n8", 8}, {"n27", 27}, {"n64", 64}, {"n125", 125}, {"n216", 216}}
	rng := rand.New(rand.NewSource(42))
	for _, sz := range sizes {
		a0 := la.NewMatrix(sz.n)
		for i := 0; i < sz.n; i++ {
			rowSum := 0.0
			for j := 0; j < sz.n; j++ {
				v := rng.Float64()*2 - 1
				a0.Set(i, j, v)
				if v < 0 {
					rowSum -= v
				} else {
					rowSum += v
				}
			}
			a0.Add(i, i, rowSum+1)
		}
		b.Run("GE/"+sz.name, func(b *testing.B) {
			ws := la.NewWorkspace(sz.n)
			for i := 0; i < b.N; i++ {
				ws.A.CopyFrom(a0)
				for j := range ws.B {
					ws.B[j] = 1
				}
				if err := la.SolveGE(ws.A, ws.B, ws.X); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("DGESV/"+sz.name, func(b *testing.B) {
			ws := la.NewWorkspace(sz.n)
			for i := 0; i < b.N; i++ {
				ws.A.CopyFrom(a0)
				for j := range ws.B {
					ws.B[j] = 1
				}
				if err := la.SolveDGESV(ws.A, ws.B, ws.Piv); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
