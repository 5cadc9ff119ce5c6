package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"text/tabwriter"
	"time"

	"unsnap"
	"unsnap/internal/core"
	"unsnap/internal/fem"
	"unsnap/internal/la"
	"unsnap/internal/mesh"
	"unsnap/internal/quadrature"
	"unsnap/internal/xs"
)

// KernelConfig drives the task-kernel experiment: the engine's batched
// (group-blocked, allocation-free) task body against the scalar
// per-group body on the same problem, across thread counts, on both the
// standard library (per-group sigma_t ramp — only the RHS batching and
// allocation elimination pay) and a flat-sigma_t variant (every group of
// a material shares one factorisation, solved as one column per group).
type KernelConfig struct {
	Problem unsnap.Problem
	Threads []int
	Inners  int
	// AllocSweeps is the number of steady-state sweeps the allocation
	// probe averages over (after one warm-up sweep builds the engine).
	AllocSweeps int
	// LASizes are the matrix sizes of the dense-solve table.
	LASizes []int
	// Uncached is the high-order problem whose factorisations the factor
	// cache refuses, so every task pays its O(n^3) solves.
	Uncached unsnap.Problem
	// MatrixOrders are the element orders of the element-matrix table,
	// timed on Uncached's (twisted) mesh.
	MatrixOrders []int
	// OneGroup is a one-group problem whose ordinates of an octant share
	// one sweep topology, so its engine tasks run angle sets: the row
	// that moves with the ordinate lanes.
	OneGroup unsnap.Problem
}

// DefaultKernel measures on a Figure 3-style workload at bench scale:
// linear elements on a twisted 6^3 mesh with 4 angles per octant and 8
// groups.
func DefaultKernel() KernelConfig {
	p := unsnap.DefaultProblem()
	p.NX, p.NY, p.NZ = 6, 6, 6
	p.AnglesPerOctant = 4
	p.Groups = 8
	// The benchmark's solve_ho shape: order 3 on a twisted 4^3 mesh makes
	// every element its own geometry class, and 16 angles x 64 classes x
	// 4 groups of 32 KiB factors is just over the factor cache's 128 MiB.
	ho := unsnap.DefaultProblem()
	ho.NX, ho.NY, ho.NZ = 4, 4, 4
	ho.Order, ho.AnglesPerOctant, ho.Groups = 3, 2, 4
	// The benchmark's median serve_cold job: order 2 on a 5^3 mesh with a
	// slight twist, 2 angles per octant, one group — two-ordinate sets.
	one := unsnap.DefaultProblem()
	one.NX, one.NY, one.NZ = 5, 5, 5
	one.Twist, one.TwistPeriods = 0.001, 0
	one.Order, one.AnglesPerOctant, one.Groups = 2, 2, 1
	return KernelConfig{
		Problem: p,
		Threads: []int{1, 2, 4},
		// 30 forced inners per timing run: the kernel comparison resolves
		// single-digit-percent per-task deltas, which 10-inner windows bury
		// in scheduler noise.
		Inners:      30,
		AllocSweeps: 3,
		// (order+1)^3 for orders 1..4.
		LASizes:      []int{8, 27, 64, 125},
		Uncached:     ho,
		MatrixOrders: []int{1, 2, 3},
		OneGroup:     one,
	}
}

// KernelRow is one measured thread count. The ns figures are per sweep
// task — one (ordinate, element) pair, all groups — so they are
// comparable across thread counts and mesh sizes; Flat* columns rerun
// both kernels on the flat-sigma_t library. AllocsPerTask is the
// steady-state heap allocation rate of the batched engine sweep
// (expected: zero).
type KernelRow struct {
	Threads       int     `json:"threads"`
	ScalarTaskNs  float64 `json:"scalar_task_ns"`
	BatchedTaskNs float64 `json:"batched_task_ns"`
	Speedup       float64 `json:"speedup"`
	FlatScalarNs  float64 `json:"flat_scalar_task_ns"`
	FlatBatchedNs float64 `json:"flat_batched_task_ns"`
	FlatSpeedup   float64 `json:"flat_speedup"`
	AllocsPerTask float64 `json:"allocs_per_task"`
}

// LARow is the dense local solve at one matrix size: nanoseconds per
// la.SolveGE, la.Factor and la.SolveFactored call, per system of a
// four-lane la.FactorLanes and la.TriSolveLanes call, and the rates
// computed from the 2n^3/3 flops of an elimination.
type LARow struct {
	N               int     `json:"n"`
	GENs            float64 `json:"ge_ns"`
	FactorNs        float64 `json:"factor_ns"`
	FactorLanesNs   float64 `json:"factor_lanes_ns"`
	TriSolveNs      float64 `json:"trisolve_ns"`
	TriSolveLanesNs float64 `json:"trisolve_lanes_ns"`
	GEGflops        float64 `json:"ge_gflops"`
	FactorGflops    float64 `json:"factor_gflops"`
}

// MatricesRow is fem.ComputeMatrices at one element order: nanoseconds
// per twisted element (the general quadrature path, every matrix of the
// element) and n, the element's node count.
type MatricesRow struct {
	Order        int     `json:"order"`
	N            int     `json:"n"`
	NsPerElement float64 `json:"ns_per_element"`
}

// ProblemShape is the serialised problem identification of the bench
// section.
type ProblemShape struct {
	NX              int `json:"nx"`
	Order           int `json:"order"`
	AnglesPerOctant int `json:"angles_per_octant"`
	Groups          int `json:"groups"`
}

func shapeOf(p unsnap.Problem) ProblemShape {
	return ProblemShape{NX: p.NX, Order: p.Order, AnglesPerOctant: p.AnglesPerOctant, Groups: p.Groups}
}

// MachineInfo identifies the hardware and toolchain the bench section
// was measured on: numbers from different machines (or Go versions) are
// not comparable, and the stamp makes mixing them visible.
type MachineInfo struct {
	NumCPU     int    `json:"num_cpu"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

func machineInfo() *MachineInfo {
	return &MachineInfo{
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
}

// KernelSection is the serialised kernel comparison for BENCH_sweep.json.
// UncachedTaskNs is the batched kernel's per-task time on Uncached, the
// high-order problem the factor cache refuses, OneGroupTaskNs its
// per-(ordinate, element) time on OneGroup. Previous is the
// measurement this one replaced, kept when it came from another commit
// on the same machine: the before/after pair a speedup claim needs.
// LAKernels is la.Kernels() at measure time ("avx2" or "generic"): which
// implementation of the dense-solve loops and of the element-matrix
// product the numbers belong to. It is
// not part of Machine, whose equality decides whether Previous is kept —
// a section measured before the vector kernels existed has none.
type KernelSection struct {
	Commit         string         `json:"commit,omitempty"`
	Machine        *MachineInfo   `json:"machine,omitempty"`
	LAKernels      string         `json:"la_kernels,omitempty"`
	Problem        ProblemShape   `json:"problem"`
	Inners         int            `json:"inners_per_run"`
	Rows           []KernelRow    `json:"rows"`
	LA             []LARow        `json:"la,omitempty"`
	Uncached       *ProblemShape  `json:"uncached_problem,omitempty"`
	UncachedTaskNs float64        `json:"uncached_task_ns,omitempty"`
	Matrices       []MatricesRow  `json:"matrices,omitempty"`
	OneGroup       *ProblemShape  `json:"one_group_problem,omitempty"`
	OneGroupTaskNs float64        `json:"one_group_task_ns,omitempty"`
	Previous       *KernelSection `json:"previous,omitempty"`
}

// KernelSectionOf packages a kernel run for WriteSweepJSON.
func KernelSectionOf(cfg KernelConfig, rows []KernelRow, laRows []LARow, uncachedNs float64, matrices []MatricesRow, oneGroupNs float64) *KernelSection {
	shape, one := shapeOf(cfg.Uncached), shapeOf(cfg.OneGroup)
	return &KernelSection{
		LAKernels:      la.Kernels(),
		Problem:        shapeOf(cfg.Problem),
		Inners:         cfg.Inners,
		Rows:           rows,
		LA:             laRows,
		Uncached:       &shape,
		UncachedTaskNs: uncachedNs,
		Matrices:       matrices,
		OneGroup:       &one,
		OneGroupTaskNs: oneGroupNs,
	}
}

// SweepReport is BENCH_sweep.json: the kernel section and the revision
// it was written at.
type SweepReport struct {
	Commit string         `json:"commit,omitempty"`
	Kernel *KernelSection `json:"kernel,omitempty"`
}

// WriteSweepJSON records the kernel section (scripts/bench.sh writes it
// to BENCH_sweep.json at the repo root), stamped with the measured git
// commit and the machine. The section it replaces is kept as Previous
// when it was measured at another commit on the same machine. An
// existing file that does not parse is an error, not a silent overwrite.
func WriteSweepJSON(path, commit string, sec *KernelSection) error {
	var old SweepReport
	if prev, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(prev, &old); err != nil {
			return fmt.Errorf("harness: existing %s is not a sweep report (refusing to overwrite): %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	// Stamp a copy: the caller's section stays untouched.
	stamped := *sec
	stamped.Commit, stamped.Machine = commit, machineInfo()
	if k := old.Kernel; k != nil && k.Commit != commit && k.Machine != nil && *k.Machine == *stamped.Machine {
		prev := *k
		prev.Previous = nil
		stamped.Previous = &prev
	}
	data, err := json.MarshalIndent(&SweepReport{Commit: commit, Kernel: &stamped}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// kernelParts builds the problem's mesh, quadrature and library the way
// the facade does, optionally flattening each material's total cross
// section to its group-0 value (the flat-sigma_t regime, where the whole
// group block of a task shares one factorisation).
func kernelParts(p unsnap.Problem, flat bool) (*mesh.Mesh, *quadrature.Set, *xs.Library, error) {
	m, err := mesh.New(mesh.Config{
		NX: p.NX, NY: p.NY, NZ: p.NZ,
		LX: p.LX, LY: p.LY, LZ: p.LZ,
		Twist: p.Twist, TwistPeriods: p.TwistPeriods,
		MatOpt: p.MatOpt, SrcOpt: p.SrcOpt,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	q, err := quadrature.NewSNAP(p.AnglesPerOctant)
	if err != nil {
		return nil, nil, nil, err
	}
	lib, err := xs.NewLibrary(p.Groups)
	if err != nil {
		return nil, nil, nil, err
	}
	if flat {
		for mat := range lib.Total {
			for g := range lib.Total[mat] {
				lib.Total[mat][g] = lib.Total[mat][0]
			}
		}
	}
	return m, q, lib, nil
}

// newKernelSolver builds an engine solver with the given task kernel on
// the (possibly flattened) problem.
func newKernelSolver(p unsnap.Problem, threads, inners int, k core.KernelMode, flat bool) (*core.Solver, error) {
	m, q, lib, err := kernelParts(p, flat)
	if err != nil {
		return nil, err
	}
	return core.New(core.Config{
		Mesh: m, Order: p.Order, Quad: q, Lib: lib,
		Scheme: core.SchemeEngine, Threads: threads, Kernel: k,
		MaxInners: inners, MaxOuters: 1, ForceIterations: true,
	})
}

// kernelTaskRepeats is the number of timing rounds per thread count; the
// reported figure per variant is the minimum across rounds. Task bodies
// are microsecond-scale and the comparison resolves single-digit-percent
// deltas, so RunKernel interleaves the four variants within each round —
// machine drift (a noisy neighbour, a frequency step) then lands on all
// variants of a round alike instead of biasing whichever variant ran
// during the bad stretch — and the min rejects the disturbed rounds.
const kernelTaskRepeats = 7

// kernelTaskNs times one kernel variant once and returns nanoseconds per
// sweep task (one ordinate-element pair, all groups).
func kernelTaskNs(p unsnap.Problem, threads, inners int, k core.KernelMode, flat bool) (float64, error) {
	// Collect the previous measurement's garbage (each run builds its own
	// mesh, library and artifact) so the collector does not run inside
	// the timed sweep window of a later variant.
	runtime.GC()
	s, err := newKernelSolver(p, threads, inners, k, flat)
	if err != nil {
		return 0, err
	}
	defer s.Close()
	res, err := s.Run()
	if err != nil {
		return 0, err
	}
	tasks := s.NumAngles() * s.NumElems()
	return res.SweepTime.Seconds() * 1e9 / float64(inners*tasks), nil
}

// kernelAllocsPerTask measures the steady-state heap allocation rate of
// the batched engine sweep: one warm-up sweep builds the engine and its
// scratch, then each of AllocSweeps full sweeps is measured as its own
// Mallocs delta and the minimum per-task rate is reported (the min
// rejects one-off runtime noise — goroutine stack growth, background GC
// bookkeeping — that is not part of the sweep path). The engine pre-sizes every task buffer at pool creation, so the
// expected value is zero.
func kernelAllocsPerTask(p unsnap.Problem, threads, sweeps int) (float64, error) {
	s, err := newKernelSolver(p, threads, 1, core.KernelBatched, false)
	if err != nil {
		return 0, err
	}
	defer s.Close()
	s.ComputeOuterSource()
	s.PrepareInner()
	if err := s.SweepAllAngles(); err != nil {
		return 0, err
	}
	var m0, m1 runtime.MemStats
	best := -1.0
	for i := 0; i < sweeps; i++ {
		runtime.ReadMemStats(&m0)
		s.PrepareInner()
		if err := s.SweepAllAngles(); err != nil {
			return 0, err
		}
		runtime.ReadMemStats(&m1)
		if d := float64(m1.Mallocs - m0.Mallocs); best < 0 || d < best {
			best = d
		}
	}
	tasks := s.NumAngles() * s.NumElems()
	return best / float64(tasks), nil
}

// RunKernel measures both task kernels at every thread count, on the
// standard and flat-sigma_t libraries, plus the batched sweep's
// steady-state allocation rate.
func RunKernel(cfg KernelConfig) ([]KernelRow, error) {
	sweeps := cfg.AllocSweeps
	if sweeps <= 0 {
		sweeps = 3
	}
	variants := []struct {
		kernel core.KernelMode
		flat   bool
	}{
		{core.KernelScalar, false},
		{core.KernelBatched, false},
		{core.KernelScalar, true},
		{core.KernelBatched, true},
	}
	rows := make([]KernelRow, 0, len(cfg.Threads))
	for _, threads := range cfg.Threads {
		row := KernelRow{Threads: threads}
		var best [4]float64
		for r := 0; r < kernelTaskRepeats; r++ {
			for i, v := range variants {
				ns, err := kernelTaskNs(cfg.Problem, threads, cfg.Inners, v.kernel, v.flat)
				if err != nil {
					return nil, fmt.Errorf("harness: kernel experiment threads %d: %w", threads, err)
				}
				if r == 0 || ns < best[i] {
					best[i] = ns
				}
			}
		}
		row.ScalarTaskNs, row.BatchedTaskNs = best[0], best[1]
		row.FlatScalarNs, row.FlatBatchedNs = best[2], best[3]
		var err error
		if row.AllocsPerTask, err = kernelAllocsPerTask(cfg.Problem, threads, sweeps); err != nil {
			return nil, err
		}
		if row.BatchedTaskNs > 0 {
			row.Speedup = row.ScalarTaskNs / row.BatchedTaskNs
		}
		if row.FlatBatchedNs > 0 {
			row.FlatSpeedup = row.FlatScalarNs / row.FlatBatchedNs
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RunLA times the dense local solve at each size on a diagonally
// dominated random matrix: the best of kernelTaskRepeats rounds of about
// 100 Mflop each, with the cost of restoring the matrix and right-hand
// side between calls measured the same way and subtracted.
func RunLA(sizes []int) []LARow {
	// The solver runs before this leave garbage; collect it now so the
	// collector does not share the timed rounds.
	runtime.GC()
	rows := make([]LARow, 0, len(sizes))
	for _, n := range sizes {
		src := la.NewMatrix(n)
		seed := uint64(n)
		for i := range src.Data {
			seed = seed*6364136223846793005 + 1442695040888963407
			src.Data[i] = float64(seed>>11)/(1<<53) - 0.5
		}
		for i := 0; i < n; i++ {
			src.Add(i, i, float64(n))
		}
		ws := la.NewWorkspace(n)
		iters := max(20, 100_000_000/(n*n*n))
		best := func(fn func()) float64 {
			b := 0.0
			for r := 0; r < kernelTaskRepeats; r++ {
				start := time.Now()
				for i := 0; i < iters; i++ {
					fn()
				}
				if d := float64(time.Since(start).Nanoseconds()) / float64(iters); r == 0 || d < b {
					b = d
				}
			}
			return b
		}
		resetB := func() {
			for i := range ws.B {
				ws.B[i] = 1
			}
		}
		restore := func() { ws.A.CopyFrom(src); resetB() }
		must := func(err error) {
			if err != nil {
				panic(err) // diagonally dominated: cannot be singular
			}
		}
		restoreNs := best(restore)
		row := LARow{N: n}
		row.GENs = best(func() { restore(); must(la.SolveGE(ws.A, ws.B, ws.X)) }) - restoreNs
		row.FactorNs = best(func() { restore(); must(la.Factor(ws.A, ws.Piv)) }) - restoreNs
		// Four copies of the matrix, lane-interleaved, restored the same
		// way and that cost subtracted: per system.
		src4 := make([]float64, 4*n*n)
		for i, v := range src.Data {
			for l := 0; l < 4; l++ {
				src4[i*4+l] = v
			}
		}
		lanes := make([]float64, 4*n*n)
		perm := make([]int, 4*n)
		restoreLanes := func() { copy(lanes, src4) }
		row.FactorLanesNs = (best(func() { restoreLanes(); must(la.FactorLanes(lanes, perm, n, 4)) }) - best(restoreLanes)) / 4
		// ws.A holds the factors of the last Factor call. The right-hand
		// side is reset each time (and its n stores counted): solving
		// into the previous solution would shrink it into subnormals.
		row.TriSolveNs = best(func() { resetB(); la.SolveFactored(ws.A, ws.Piv, ws.B) })
		// The factor store's w = 4 panel, the same factors in every lane,
		// right-hand sides reset the same way: per system.
		lu := make([]float64, 4*n*n)
		for i, v := range ws.A.Data {
			for l := 0; l < 4; l++ {
				lu[i*4+l] = v
			}
		}
		x := make([]float64, 4*n)
		row.TriSolveLanesNs = best(func() {
			for i := range x {
				x[i] = 1
			}
			la.TriSolveLanes(lu, x, n, 4, 4)
		}) / 4
		flops := 2 * float64(n*n*n) / 3
		row.GEGflops, row.FactorGflops = flops/row.GENs, flops/row.FactorNs
		rows = append(rows, row)
	}
	return rows
}

// RunMatrices times fem.ComputeMatrices at each order over every element
// of p's mesh (cfg.Uncached: twisted, so every element takes the general
// quadrature path): the best of kernelTaskRepeats rounds of at least
// 2000 elements, garbage collection included as it is in a real build.
func RunMatrices(p unsnap.Problem, orders []int) ([]MatricesRow, error) {
	m, _, _, err := kernelParts(p, false)
	if err != nil {
		return nil, err
	}
	geos := make([]*fem.Geometry, len(m.Elems))
	for e := range m.Elems {
		geos[e] = m.Elems[e].Geometry()
	}
	rows := make([]MatricesRow, 0, len(orders))
	for _, order := range orders {
		re, err := fem.NewRefElement(order)
		if err != nil {
			return nil, err
		}
		runtime.GC()
		sweeps := max(1, 2000/len(geos))
		best := 0.0
		for r := 0; r < kernelTaskRepeats; r++ {
			start := time.Now()
			for i := 0; i < sweeps; i++ {
				for _, g := range geos {
					if _, err := re.ComputeMatrices(g); err != nil {
						return nil, fmt.Errorf("harness: element matrices at order %d: %w", order, err)
					}
				}
			}
			if d := float64(time.Since(start).Nanoseconds()) / float64(sweeps*len(geos)); r == 0 || d < best {
				best = d
			}
		}
		rows = append(rows, MatricesRow{Order: order, N: re.N, NsPerElement: best})
	}
	return rows, nil
}

// FprintMatrices writes the element-matrix table.
func FprintMatrices(w io.Writer, p unsnap.Problem, rows []MatricesRow) {
	fmt.Fprintf(w, "element matrices (%d^3 twisted mesh, la kernels: %s):\n", p.NX, la.Kernels())
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "order\tn\tns/element\n")
	for _, r := range rows {
		fmt.Fprintf(tw, "%d\t%d\t%.0f\n", r.Order, r.N, r.NsPerElement)
	}
	tw.Flush()
}

// RunUncached times the batched kernel on cfg.Uncached at the first
// thread count: the best per-task ns of three two-inner runs. The
// factor store refuses that problem, so every task forms and factors its
// groups' matrices four to a la.FactorLanes panel and solves them with
// la.TriSolveLanes — the row that moves with the lane kernels.
func RunUncached(cfg KernelConfig) (float64, error) {
	best := 0.0
	for r := 0; r < 3; r++ {
		ns, err := kernelTaskNs(cfg.Uncached, cfg.Threads[0], 2, core.KernelBatched, false)
		if err != nil {
			return 0, fmt.Errorf("harness: kernel experiment uncached order-3 row: %w", err)
		}
		if r == 0 || ns < best {
			best = ns
		}
	}
	return best, nil
}

// RunOneGroup times the batched kernel on cfg.OneGroup at one thread:
// the best per-(ordinate, element) ns of kernelTaskRepeats runs of
// cfg.Inners inners (the first fills the factor store, the rest read it).
func RunOneGroup(cfg KernelConfig) (float64, error) {
	best := 0.0
	for r := 0; r < kernelTaskRepeats; r++ {
		ns, err := kernelTaskNs(cfg.OneGroup, 1, cfg.Inners, core.KernelBatched, false)
		if err != nil {
			return 0, fmt.Errorf("harness: kernel experiment one-group row: %w", err)
		}
		if r == 0 || ns < best {
			best = ns
		}
	}
	return best, nil
}

// FprintOneGroup writes the one-group row.
func FprintOneGroup(w io.Writer, cfg KernelConfig, ns float64) {
	p := cfg.OneGroup
	fmt.Fprintf(w, "one group order %d (%d^3, twist %g, %d ang/oct): %.0f ns per ordinate-element\n",
		p.Order, p.NX, p.Twist, p.AnglesPerOctant, ns)
}

// FprintKernel writes the kernel comparison table.
func FprintKernel(w io.Writer, cfg KernelConfig, rows []KernelRow) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "Threads\tscalar (ns/task)\tbatched (ns/task)\tspeedup\tflat scalar\tflat batched\tflat speedup\tallocs/task\n")
	for _, r := range rows {
		fmt.Fprintf(tw, "%d\t%.0f\t%.0f\t%.2fx\t%.0f\t%.0f\t%.2fx\t%.3f\n",
			r.Threads, r.ScalarTaskNs, r.BatchedTaskNs, r.Speedup,
			r.FlatScalarNs, r.FlatBatchedNs, r.FlatSpeedup, r.AllocsPerTask)
	}
	tw.Flush()
}

// FprintLA writes the dense-solve table and the uncached order-3 row.
func FprintLA(w io.Writer, cfg KernelConfig, rows []LARow, uncachedNs float64) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "n\tGE (ns)\tFactor (ns)\tFactor x4 lanes (ns/system)\ttrisolve (ns)\ttrisolve x4 lanes (ns/system)\tGE Gflop/s\tFactor Gflop/s\n")
	for _, r := range rows {
		fmt.Fprintf(tw, "%d\t%.0f\t%.0f\t%.0f\t%.0f\t%.0f\t%.2f\t%.2f\n",
			r.N, r.GENs, r.FactorNs, r.FactorLanesNs, r.TriSolveNs, r.TriSolveLanesNs, r.GEGflops, r.FactorGflops)
	}
	tw.Flush()
	p := cfg.Uncached
	fmt.Fprintf(w, "uncached order %d (%d^3 twisted, %d ang/oct, %d groups): %.0f ns/task\n",
		p.Order, p.NX, p.AnglesPerOctant, p.Groups, uncachedNs)
}
