// Package harness drives the experiments that regenerate every table and
// figure of the UnSNAP paper and its ablations, plus the task-kernel
// micro-table docs/BENCH.md documents (the one section of
// BENCH_sweep.json). Each experiment has a bench-scale default
// configuration that completes on a laptop and accepts the paper's full
// parameters; the cmd/unsnap-bench binary exposes them behind flags.
// Outputs are aligned text tables with the same rows/series the paper
// reports. End-to-end and per-layer performance claims are judged by
// the traced benchmark under benchmark/, not here.
package harness

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"unsnap"
	"unsnap/internal/fem"
	"unsnap/internal/la"
)

// nowSeconds returns a monotonic-ish wall-clock reading in seconds for
// coarse experiment timing.
func nowSeconds() float64 { return float64(time.Now().UnixNano()) / 1e9 }

// TableIRow is one row of the paper's Table I: the local matrix size and
// FP64 footprint per finite element order, optionally with a measured
// single-element assemble+solve time to make the growth concrete.
type TableIRow struct {
	Order           int
	MatrixDim       int
	FootprintKB     float64
	AssembleSolveNS int64 // 0 unless measured
}

// TableI computes Table I for orders 1..maxOrder. With measure set, each
// row also times one assembly and Gaussian-elimination solve of a twisted
// single element.
func TableI(maxOrder int, measure bool) ([]TableIRow, error) {
	rows := make([]TableIRow, 0, maxOrder)
	for p := 1; p <= maxOrder; p++ {
		n := (p + 1) * (p + 1) * (p + 1)
		row := TableIRow{
			Order:       p,
			MatrixDim:   n,
			FootprintKB: float64(fem.FootprintBytes(p)) / 1024,
		}
		if measure {
			ns, err := measureAssembleSolve(p)
			if err != nil {
				return nil, err
			}
			row.AssembleSolveNS = ns
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// measureAssembleSolve times one local-system assembly plus GE solve on a
// mildly deformed hexahedron of the given order.
func measureAssembleSolve(order int) (int64, error) {
	re, err := fem.NewRefElement(order)
	if err != nil {
		return 0, err
	}
	geo := &fem.Geometry{}
	for c := 0; c < 8; c++ {
		geo.V[c] = [3]float64{float64(c & 1), float64((c >> 1) & 1), float64((c >> 2) & 1)}
	}
	geo.V[7][0] += 0.03 // break the box fast path
	em, err := re.ComputeMatrices(geo)
	if err != nil {
		return 0, err
	}
	var normal [fem.NumFaces][3]float64
	for f := range normal {
		normal[f] = re.FaceUnitNormal(geo, f)
	}
	n := re.N
	ws := la.NewWorkspace(n)
	om := [3]float64{0.5, 0.62, 0.6}
	sigt := 1.0
	reps := 1
	if n <= 64 {
		reps = 50
	}
	start := time.Now()
	for r := 0; r < reps; r++ {
		for idx := range ws.A.Data {
			ws.A.Data[idx] = sigt*em.Mass[idx] - om[0]*em.Grad[0][idx] - om[1]*em.Grad[1][idx] - om[2]*em.Grad[2][idx]
		}
		for f := 0; f < fem.NumFaces; f++ {
			nrm := normal[f]
			if om[0]*nrm[0]+om[1]*nrm[1]+om[2]*nrm[2] <= 0 {
				continue
			}
			fn := re.FaceNodes[f]
			for k, gi := range fn {
				for l, gj := range fn {
					ws.A.Data[gi*n+gj] += om[0]*em.Face[f][0][k*re.NF+l] +
						om[1]*em.Face[f][1][k*re.NF+l] + om[2]*em.Face[f][2][k*re.NF+l]
				}
			}
		}
		for i := range ws.B {
			ws.B[i] = 1
		}
		if err := la.SolveGE(ws.A, ws.B, ws.X); err != nil {
			return 0, err
		}
	}
	return time.Since(start).Nanoseconds() / int64(reps), nil
}

// FprintTableI writes Table I in the paper's format.
func FprintTableI(w io.Writer, rows []TableIRow) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Order\tMatrix size\tFP64 footprint (kB)\tassemble+solve (us, measured)")
	for _, r := range rows {
		meas := "-"
		if r.AssembleSolveNS > 0 {
			meas = fmt.Sprintf("%.1f", float64(r.AssembleSolveNS)/1e3)
		}
		fmt.Fprintf(tw, "%d\t%dx%d\t%.1f\t%s\n", r.Order, r.MatrixDim, r.MatrixDim, r.FootprintKB, meas)
	}
	tw.Flush()
}

// FigConfig drives the Figure 3/4 thread-scaling experiment.
type FigConfig struct {
	Problem unsnap.Problem
	Threads []int
	Schemes []unsnap.Scheme
	Inners  int
	Outers  int
	Solver  unsnap.SolverKind
}

// DefaultFig3 is the Figure 3 experiment at bench scale: linear elements
// on a 12^3 twisted mesh with 32 groups (paper: 16^3, 36 angles, 64
// groups — pass unsnap.PaperFig3Problem(1) for full scale). The group
// count matters: schedule buckets times groups set the work available per
// parallel region, and linear-element solves are so cheap that small
// configurations measure fork-join overhead instead of the schemes.
func DefaultFig3() FigConfig {
	p := unsnap.DefaultProblem()
	p.Order = 1
	p.NX, p.NY, p.NZ = 12, 12, 12
	p.AnglesPerOctant = 2
	p.Groups = 32
	return FigConfig{
		Problem: p,
		Threads: []int{1, 2},
		Schemes: []unsnap.Scheme{unsnap.AEg, unsnap.AEG, unsnap.AeG, unsnap.AGe, unsnap.AGE, unsnap.AgE},
		Inners:  5,
		Outers:  1,
	}
}

// DefaultFig4 is the Figure 4 experiment at bench scale: cubic elements on
// a 4^3 twisted mesh.
func DefaultFig4() FigConfig {
	cfg := DefaultFig3()
	cfg.Problem.Order = 3
	cfg.Problem.NX, cfg.Problem.NY, cfg.Problem.NZ = 4, 4, 4
	cfg.Problem.AnglesPerOctant = 2
	cfg.Problem.Groups = 4
	return cfg
}

// FigRow is one measured point of the thread-scaling figures.
type FigRow struct {
	Scheme  unsnap.Scheme
	Threads int
	Seconds float64
}

// RunFig measures the assemble/solve (sweep) time for every scheme and
// thread count: the y-axis of Figures 3 and 4.
func RunFig(cfg FigConfig) ([]FigRow, error) {
	rows := make([]FigRow, 0, len(cfg.Schemes)*len(cfg.Threads))
	for _, scheme := range cfg.Schemes {
		for _, threads := range cfg.Threads {
			s, err := unsnap.NewSolver(cfg.Problem, unsnap.Options{
				Scheme: scheme, Threads: threads, Solver: cfg.Solver,
				MaxInners: cfg.Inners, MaxOuters: cfg.Outers, ForceIterations: true,
			})
			if err != nil {
				return nil, fmt.Errorf("harness: fig scheme %v threads %d: %w", scheme, threads, err)
			}
			res, err := s.Run()
			s.Close()
			if err != nil {
				return nil, err
			}
			rows = append(rows, FigRow{Scheme: scheme, Threads: threads, Seconds: res.SweepSeconds})
		}
	}
	return rows, nil
}

// FprintFig writes the figure series as a table: one row per scheme, one
// column per thread count.
func FprintFig(w io.Writer, cfg FigConfig, rows []FigRow) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "Scheme (bold=threaded)")
	for _, t := range cfg.Threads {
		fmt.Fprintf(tw, "\tT=%d (s)", t)
	}
	fmt.Fprintln(tw)
	for _, scheme := range cfg.Schemes {
		fmt.Fprintf(tw, "%s", scheme)
		for _, t := range cfg.Threads {
			for _, r := range rows {
				if r.Scheme == scheme && r.Threads == t {
					fmt.Fprintf(tw, "\t%.3f", r.Seconds)
				}
			}
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
}

// Table2Config drives the Table II solver comparison.
type Table2Config struct {
	Problem unsnap.Problem // order is overridden per row
	Orders  []int
	Inners  int
	Outers  int
	Threads int
}

// DefaultTable2 is Table II at bench scale: 6^3 elements, 2 angles per
// octant, 4 groups, orders 1..3 (the paper uses 32^3/10/16 and orders
// 1..4; order 4 at paper scale is hours of Go runtime).
func DefaultTable2() Table2Config {
	p := unsnap.DefaultProblem()
	p.NX, p.NY, p.NZ = 6, 6, 6
	p.AnglesPerOctant = 2
	p.Groups = 4
	return Table2Config{Problem: p, Orders: []int{1, 2, 3}, Inners: 5, Outers: 1, Threads: 1}
}

// Table2Row is one row of Table II: assemble/solve seconds and the
// fraction of that time inside the dense solve, for both solvers.
type Table2Row struct {
	Order        int
	GESeconds    float64
	GESolvePct   float64
	LUSeconds    float64
	LUSolvePct   float64
	SpeedupGEvLU float64 // GESeconds / LUSeconds (>1 means LU faster)
}

// RunTable2 measures the hand-written Gaussian elimination against the
// blocked-LU dgesv stand-in across element orders.
func RunTable2(cfg Table2Config) ([]Table2Row, error) {
	rows := make([]Table2Row, 0, len(cfg.Orders))
	for _, order := range cfg.Orders {
		p := cfg.Problem
		p.Order = order
		var secs [2]float64
		var pct [2]float64
		for i, kind := range []unsnap.SolverKind{unsnap.GE, unsnap.DGESV} {
			s, err := unsnap.NewSolver(p, unsnap.Options{
				Solver: kind, Threads: cfg.Threads, Scheme: unsnap.AEG,
				MaxInners: cfg.Inners, MaxOuters: cfg.Outers,
				ForceIterations: true, Instrument: true,
			})
			if err != nil {
				return nil, fmt.Errorf("harness: table2 order %d %v: %w", order, kind, err)
			}
			res, err := s.Run()
			if err != nil {
				return nil, err
			}
			secs[i] = res.SweepSeconds
			total := res.AssembleSeconds + res.SolveSeconds
			if total > 0 {
				pct[i] = 100 * res.SolveSeconds / total
			}
		}
		rows = append(rows, Table2Row{
			Order:     order,
			GESeconds: secs[0], GESolvePct: pct[0],
			LUSeconds: secs[1], LUSolvePct: pct[1],
			SpeedupGEvLU: secs[0] / secs[1],
		})
	}
	return rows, nil
}

// FprintTable2 writes Table II in the paper's format.
func FprintTable2(w io.Writer, rows []Table2Row) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Order\tGE (s)\t% in solve\tDGESV (s)\t% in solve\tGE/DGESV")
	for _, r := range rows {
		fmt.Fprintf(tw, "%d\t%.3f\t%.0f%%\t%.3f\t%.0f%%\t%.2fx\n",
			r.Order, r.GESeconds, r.GESolvePct, r.LUSeconds, r.LUSolvePct, r.SpeedupGEvLU)
	}
	tw.Flush()
}
