package harness

import (
	"fmt"
	"io"
	"math"
	"text/tabwriter"

	"unsnap"
)

// TradeoffRow quantifies the section II-C FD-vs-FEM trade-offs for one
// element order: storage ratio, the 0.67 N^3 solve flop count, and (for
// the measured orders) wall time and solution agreement against the
// diamond-difference baseline on a matched grid.
type TradeoffRow struct {
	Order       int
	MemoryRatio int     // FEM unknowns per cell vs FD's 1
	SolveFLOPs  float64 // 0.67 N^3 for the local dense solve
	FEMSeconds  float64 // measured sweep seconds (0 if not measured)
	FDSeconds   float64
	FluxRelDiff float64 // relative difference of group-0 flux integrals
}

// TradeoffConfig drives the FD/FEM comparison.
type TradeoffConfig struct {
	Problem       unsnap.Problem
	Orders        []int
	MeasureOrders int // measure wall time and flux for orders <= this
	Inners        int
	Outers        int
}

// DefaultTradeoffs compares on a 6^3 grid, measuring orders 1 and 2.
func DefaultTradeoffs() TradeoffConfig {
	p := unsnap.DefaultProblem()
	p.NX, p.NY, p.NZ = 6, 6, 6
	p.AnglesPerOctant = 3
	p.Groups = 2
	p.Twist = 0 // matched grids for the flux comparison
	return TradeoffConfig{Problem: p, Orders: []int{1, 2, 3, 4, 5},
		MeasureOrders: 2, Inners: 5, Outers: 1}
}

// RunTradeoffs computes the section II-C comparison table.
func RunTradeoffs(cfg TradeoffConfig) ([]TradeoffRow, error) {
	o := unsnap.Options{Epsi: 1e-7, MaxInners: 200, MaxOuters: 20}
	fdSolver, err := unsnap.NewFD(cfg.Problem, o, false)
	if err != nil {
		return nil, err
	}
	fdStart := nowSeconds()
	if _, err := fdSolver.Run(); err != nil {
		return nil, err
	}
	fdSecs := nowSeconds() - fdStart
	fdFlux := fdSolver.FluxIntegral(0)

	rows := make([]TradeoffRow, 0, len(cfg.Orders))
	for _, order := range cfg.Orders {
		n := (order + 1) * (order + 1) * (order + 1)
		row := TradeoffRow{
			Order:       order,
			MemoryRatio: unsnap.MemoryRatioFEMOverFD(order),
			SolveFLOPs:  0.67 * float64(n) * float64(n) * float64(n),
		}
		if order <= cfg.MeasureOrders {
			p := cfg.Problem
			p.Order = order
			s, err := unsnap.NewSolver(p, o)
			if err != nil {
				return nil, err
			}
			start := nowSeconds()
			_, err = s.Run()
			s.Close()
			if err != nil {
				return nil, err
			}
			row.FEMSeconds = nowSeconds() - start
			row.FDSeconds = fdSecs
			flux := s.FluxIntegral(0)
			row.FluxRelDiff = math.Abs(flux-fdFlux) / math.Abs(flux)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FprintTradeoffs writes the FD/FEM comparison.
func FprintTradeoffs(w io.Writer, rows []TradeoffRow) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Order\tmem x FD\tsolve FLOPs (0.67N^3)\tFEM (s)\tFD (s)\t|flux diff|")
	for _, r := range rows {
		fem, fd, diff := "-", "-", "-"
		if r.FEMSeconds > 0 {
			fem = fmt.Sprintf("%.3f", r.FEMSeconds)
			fd = fmt.Sprintf("%.3f", r.FDSeconds)
			diff = fmt.Sprintf("%.2f%%", 100*r.FluxRelDiff)
		}
		fmt.Fprintf(tw, "%d\t%dx\t%.0f\t%s\t%s\t%s\n",
			r.Order, r.MemoryRatio, r.SolveFLOPs, fem, fd, diff)
	}
	tw.Flush()
}

// JacobiRow reports convergence behaviour for one rank-grid size.
type JacobiRow struct {
	PY, PZ  int
	Ranks   int
	Inners  int
	FinalDF float64
	Seconds float64
}

// JacobiConfig drives the block Jacobi convergence-vs-ranks ablation
// (section III-A1's motivation, citing Garrett's observation).
type JacobiConfig struct {
	Problem unsnap.Problem
	Grids   [][2]int // (py, pz) pairs
	Epsi    float64
}

// DefaultJacobi sweeps 1, 2 and 4 ranks on a 4^3 problem.
func DefaultJacobi() JacobiConfig {
	p := unsnap.DefaultProblem()
	p.NX, p.NY, p.NZ = 4, 4, 4
	p.AnglesPerOctant = 2
	p.Groups = 1
	return JacobiConfig{Problem: p, Grids: [][2]int{{1, 1}, {2, 1}, {2, 2}}, Epsi: 1e-8}
}

// RunJacobi measures iterations-to-convergence as the block count grows.
func RunJacobi(cfg JacobiConfig) ([]JacobiRow, error) {
	rows := make([]JacobiRow, 0, len(cfg.Grids))
	for _, grid := range cfg.Grids {
		d, err := unsnap.NewDistributed(cfg.Problem, unsnap.Options{
			Epsi: cfg.Epsi, MaxInners: 1000, MaxOuters: 1, Scheme: unsnap.AEG,
		}, grid[0], grid[1])
		if err != nil {
			return nil, err
		}
		start := nowSeconds()
		res, err := d.Run()
		d.Close()
		if err != nil {
			return nil, err
		}
		rows = append(rows, JacobiRow{
			PY: grid[0], PZ: grid[1], Ranks: d.NumRanks(),
			Inners: res.Inners, FinalDF: res.FinalDF,
			Seconds: nowSeconds() - start,
		})
	}
	return rows, nil
}

// FprintJacobi writes the Jacobi ablation table.
func FprintJacobi(w io.Writer, rows []JacobiRow) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Rank grid\tRanks\tInners to converge\tfinal df\tseconds")
	for _, r := range rows {
		fmt.Fprintf(tw, "%dx%d\t%d\t%d\t%.2e\t%.3f\n", r.PY, r.PZ, r.Ranks, r.Inners, r.FinalDF, r.Seconds)
	}
	tw.Flush()
}

// AtomicRow compares the collapsed element/group scheme against the
// sweep engine at one thread count.
type AtomicRow struct {
	Threads       int
	AEGSeconds    float64
	EngineSeconds float64
}

// RunAtomic measures the section IV-A3 angle-threading experiment. The
// paper's original finding — angles threaded over a mutex-serialised
// scalar-flux update do not scale — was an artifact of that striped-lock
// implementation, which the sweep engine has since replaced: its
// wavefronts are angle-parallel by construction and its ordered
// reduction is lock-free, so this table documents the fix rather than
// reproducing the paper's negative result. Expect Engine to match or
// beat AEG.
func RunAtomic(p unsnap.Problem, threads []int, inners int) ([]AtomicRow, error) {
	rows := make([]AtomicRow, 0, len(threads))
	for _, t := range threads {
		var secs [2]float64
		for i, scheme := range []unsnap.Scheme{unsnap.AEG, unsnap.Engine} {
			s, err := unsnap.NewSolver(p, unsnap.Options{
				Scheme: scheme, Threads: t,
				MaxInners: inners, MaxOuters: 1, ForceIterations: true,
			})
			if err != nil {
				return nil, err
			}
			res, err := s.Run()
			s.Close()
			if err != nil {
				return nil, err
			}
			secs[i] = res.SweepSeconds
		}
		rows = append(rows, AtomicRow{Threads: t, AEGSeconds: secs[0], EngineSeconds: secs[1]})
	}
	return rows, nil
}

// FprintAtomic writes the angle-threading ablation table.
func FprintAtomic(w io.Writer, rows []AtomicRow) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Threads\tangle/ELEMENT/GROUP (s)\tANGLE threading (s)")
	for _, r := range rows {
		fmt.Fprintf(tw, "%d\t%.3f\t%.3f\n", r.Threads, r.AEGSeconds, r.EngineSeconds)
	}
	tw.Flush()
}

// PreassembledRow compares on-the-fly assembly with pre-assembled and
// pre-factorised matrices (section IV-B1's proposed optimisation).
type PreassembledRow struct {
	Order        int
	OnTheFlySecs float64
	PreSweepSecs float64
	PreSetupSecs float64
	MatrixMemMB  float64 // storage for the pre-factorised matrices
	SweepSpeedup float64
}

// RunPreassembled measures both modes across orders.
func RunPreassembled(p unsnap.Problem, orders []int, inners int) ([]PreassembledRow, error) {
	rows := make([]PreassembledRow, 0, len(orders))
	for _, order := range orders {
		prob := p
		prob.Order = order
		var sweep [2]float64
		var setup [2]float64
		for i, pre := range []bool{false, true} {
			s, err := unsnap.NewSolver(prob, unsnap.Options{
				Scheme: unsnap.AEG, PreAssembled: pre,
				MaxInners: inners, MaxOuters: 1, ForceIterations: true,
			})
			if err != nil {
				return nil, err
			}
			res, err := s.Run()
			s.Close()
			if err != nil {
				return nil, err
			}
			sweep[i] = res.SweepSeconds
			setup[i] = res.SetupSeconds
		}
		n := (order + 1) * (order + 1) * (order + 1)
		nmats := prob.NX * prob.NY * prob.NZ * 8 * prob.AnglesPerOctant * prob.Groups
		rows = append(rows, PreassembledRow{
			Order:        order,
			OnTheFlySecs: sweep[0],
			PreSweepSecs: sweep[1],
			PreSetupSecs: setup[1],
			MatrixMemMB:  float64(nmats) * float64(n*n) * 8 / (1 << 20),
			SweepSpeedup: sweep[0] / sweep[1],
		})
	}
	return rows, nil
}

// FprintPreassembled writes the pre-assembly ablation table.
func FprintPreassembled(w io.Writer, rows []PreassembledRow) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Order\ton-the-fly (s)\tpre-assembled (s)\tpre setup (s)\tmatrix mem (MB)\tsweep speedup")
	for _, r := range rows {
		fmt.Fprintf(tw, "%d\t%.3f\t%.3f\t%.3f\t%.1f\t%.2fx\n",
			r.Order, r.OnTheFlySecs, r.PreSweepSecs, r.PreSetupSecs, r.MatrixMemMB, r.SweepSpeedup)
	}
	tw.Flush()
}
