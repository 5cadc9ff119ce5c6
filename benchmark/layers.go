package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"runtime"
	"time"

	"unsnap"
	"unsnap/internal/accel"
	"unsnap/internal/build"
	"unsnap/internal/core"
	"unsnap/internal/fem"
	"unsnap/internal/la"
	"unsnap/internal/mesh"
	"unsnap/internal/quadrature"
	"unsnap/internal/serve"
	"unsnap/internal/sweep"
	"unsnap/internal/xs"
)

// layerProbe measures the per-layer metrics of a traced run. Every
// workload probes every layer at its own problem shape: the layers on the
// workload's blocking path are read from the spans of its traced
// operations, the others from a one-shot call made here. Either way the
// spans are recorded in this package, around public functions.
type layerProbe struct {
	rep   *report
	rc    runConfig
	tr    *tracer
	c     libCase
	cache *unsnap.ArtifactCache // the workload's warm cache

	// Filled by setupLayers and reused by the later probes.
	mesh *mesh.Mesh
	quad *quadrature.Set
	lib  *xs.Library
	art  *build.Artifact
	// stepInners/stepOuters are the iteration counts of a stepwise solve.
	stepInners, stepOuters int
}

// probeReps is how often a one-shot probe is repeated; its median is
// reported.
const probeReps = 3

func ms(sec float64) float64 { return sec * 1e3 }
func us(sec float64) float64 { return sec * 1e6 }

// fatal aborts the run: a probe that cannot call its layer is a broken
// benchmark, not a measurement.
func (lp *layerProbe) fatal(what string, err error) {
	if err != nil {
		panic(fmt.Errorf("%s: layer probe %s: %w", lp.rep.workload, what, err))
	}
}

// single returns the case as a single-domain configuration at the given
// thread count (the distributed workload's ranks folded back together).
func (lp *layerProbe) single(threads int) libCase {
	c := lp.c
	c.Grid = [2]int{1, 1}
	c.Options.Threads = threads
	c.Options.Protocol = unsnap.CommLagged
	return c
}

// totalThreads is the workload's sweep thread count over all ranks.
func (lp *layerProbe) totalThreads() int {
	return max(1, lp.c.Options.Threads) * lp.c.Grid[0] * lp.c.Grid[1]
}

// overhead reports what recording spans costs an operation: the traced
// operations' median over the plain ones', compared within each class of
// equal-cost operations and averaged over the classes by sample count.
func (lp *layerProbe) overhead(plain, traced map[string][]float64) {
	var ratio, weight float64
	for class, tr := range traced {
		if pl := plain[class]; len(pl) > 0 {
			ratio += float64(len(tr)) * median(tr) / median(pl)
			weight += float64(len(tr))
		}
	}
	share := 0.0
	if weight > 0 {
		share = ratio/weight - 1
	}
	lp.rep.set("trace.overhead_share", share, "share", int(weight))
	root := "op"
	if lp.rep.service {
		root = "job"
	}
	cov, nested := lp.tr.coverage(root)
	lp.rep.note("trace: named spans cover >= %.1f%% of every %s; spans nest: %t", 100*cov, root, nested)
	lp.rep.spanCoverage, lp.rep.spansNest = cov, nested
}

// parts builds the problem's mesh, quadrature and library the way the
// facade does.
func parts(p unsnap.Problem) (*mesh.Mesh, *quadrature.Set, *xs.Library, error) {
	m, err := mesh.New(mesh.Config{
		NX: p.NX, NY: p.NY, NZ: p.NZ, LX: p.LX, LY: p.LY, LZ: p.LZ,
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
	var lib *xs.Library
	if p.ScatRatio != 0 {
		lib, err = xs.NewLibraryRatio(p.Groups, p.ScatRatio)
	} else {
		lib, err = xs.NewLibrary(p.Groups)
	}
	return m, q, lib, err
}

// setupLayers times everything a cold set-up is made of, one layer at a
// time: the facade's decode, the mesh, the reference element and element
// matrices, the sweep topology and the artifact build around them.
func (lp *layerProbe) setupLayers() {
	rep, p := lp.rep, lp.c.Problem
	so := lp.single(lp.totalThreads()).Options

	spec, err := json.Marshal(unsnap.SpecOf(p, so))
	lp.fatal("marshal spec", err)
	rep.set("unsnap.parse_spec_us", us(medianOf(50, func() {
		sp, err := unsnap.ParseSpec(spec)
		lp.fatal("ParseSpec", err)
		_, _, err = sp.Resolve()
		lp.fatal("Resolve", err)
	})), "us", 50)

	var m *mesh.Mesh
	rep.set("mesh.new_ms", ms(medianOf(probeReps, func() {
		m, lp.quad, lp.lib, err = parts(p)
		lp.fatal("mesh.New", err)
	})), "ms", probeReps)
	lp.mesh = m

	var re *fem.RefElement
	rep.set("fem.ref_element_ms", ms(medianOf(probeReps, func() {
		re, err = fem.NewRefElement(p.Order)
		lp.fatal("fem.NewRefElement", err)
	})), "ms", probeReps)
	rep.set("mesh.match_ms", ms(medianOf(probeReps, func() {
		_, err = m.Match(re)
		lp.fatal("mesh.Match", err)
	})), "ms", probeReps)
	rep.set("mesh.fingerprint_ms", ms(medianOf(probeReps, func() { m.Fingerprint() })), "ms", probeReps)
	rep.set("mesh.partition_ms", ms(medianOf(probeReps, func() {
		part, err := m.PartitionKBA(1, 2)
		lp.fatal("mesh.PartitionKBA", err)
		_, err = part.RemoteFaces(re)
		lp.fatal("mesh.RemoteFaces", err)
	})), "ms", probeReps)

	nSample := min(64, m.NumElems())
	rep.set("fem.compute_matrices_us", us(medianOf(probeReps, func() {
		for e := 0; e < nSample; e++ {
			_, err = re.ComputeMatrices(m.Elems[e].Geometry())
			lp.fatal("fem.ComputeMatrices", err)
		}
	}))/float64(nSample), "us", probeReps*nSample)

	bs := build.Spec{Mesh: m, Order: p.Order, Quad: lp.quad, Threads: so.Threads,
		AllowCycles: so.AllowCycles, CycleOrder: sweep.CycleOrder(so.CycleOrder)}
	rep.set("build.cold_ms", ms(medianOf(probeReps, func() {
		lp.art, err = build.Build(bs)
		lp.fatal("build.Build", err)
	})), "ms", probeReps)
	bc := build.NewCache(0)
	_, err = bc.GetOrBuild(bs)
	lp.fatal("build.Cache.GetOrBuild", err)
	rep.set("build.warm_fetch_us", us(medianOf(20, func() {
		_, err = bc.GetOrBuild(bs)
		lp.fatal("build.Cache.GetOrBuild", err)
	})), "us", 20)
	rep.set("build.artifact_mb", float64(lp.art.SizeBytes())/(1<<20), "MB", 1)
	rep.set("build.geom_classes", float64(lp.art.GeomClasses), "count", 1)
	if !lp.rep.service {
		// The window's solves ran against the warm cache kept from the
		// last set-up: no builds, all hits.
		st := lp.cache.Stats()
		tenantEv := int64(0)
		for _, t := range lp.cache.TenantStatsSnapshot() {
			tenantEv += t.Evictions
		}
		cacheMetrics(rep, 0, rep.attempted, st.Hits, st.Misses, st.Evictions, tenantEv)
	}

	// Sweep topology, per distinct ordinate classification: rebuild each
	// ordinate's dependency graph from the artifact and time the three
	// constructions a build runs on it.
	order := sweep.CycleOrder(so.CycleOrder)
	var inputs []sweep.Input
	var lagged [][]sweep.Edge
	seen := map[*build.Topology]bool{}
	buckets, maxBucket, laggedEdges := 0, 0, 0
	for _, t := range lp.art.Topos {
		if seen[t] {
			continue
		}
		seen[t] = true
		up := make([][]int, t.Graph.NumElems)
		for u := 0; u < t.Graph.NumElems; u++ {
			for _, d := range t.Graph.DownwindOf(u) {
				up[d] = append(up[d], u)
			}
		}
		for _, l := range t.Sched.Lagged {
			up[l.To] = append(up[l.To], l.From)
		}
		inputs = append(inputs, sweep.Input{NumElems: t.Graph.NumElems, Upwind: up})
		lagged = append(lagged, t.Sched.Lagged)
		buckets = max(buckets, len(t.Sched.Buckets))
		maxBucket = max(maxBucket, t.Sched.MaxBucket())
		laggedEdges += len(t.Sched.Lagged)
	}
	rep.set("sweep.schedule_ms", ms(medianOf(probeReps, func() {
		for _, in := range inputs {
			if so.AllowCycles {
				_, err = sweep.BuildWithLagging(in, order)
			} else {
				_, err = sweep.Build(in)
			}
			lp.fatal("sweep.Build", err)
		}
	})), "ms", probeReps)
	rep.set("sweep.graph_ms", ms(medianOf(probeReps, func() {
		for i, in := range inputs {
			_, err = sweep.BuildGraph(in, lagged[i])
			lp.fatal("sweep.BuildGraph", err)
		}
	})), "ms", probeReps)
	rep.set("sweep.condense_ms", ms(medianOf(probeReps, func() {
		for _, in := range inputs {
			_, err = sweep.Condense(in, order)
			lp.fatal("sweep.Condense", err)
		}
	})), "ms", probeReps)
	rep.set("sweep.lagged_edges", float64(laggedEdges), "count", 1)
	rep.set("sweep.buckets", float64(buckets), "count", 1)
	rep.set("sweep.max_bucket", float64(maxBucket), "count", 1)

	// Solver construction: cold is an empty cache, warm the same cache
	// again (mesh + artifact fetch + allocation), core.new the allocation
	// alone with the artifact injected.
	sc := lp.single(so.Threads)
	var cache *unsnap.ArtifactCache
	rep.set("unsnap.new_solver_cold_ms", ms(medianOf(probeReps, func() {
		cache = unsnap.NewCache(0)
		s, err := newLibSolver(sc, cache)
		lp.fatal("unsnap.NewSolver", err)
		s.close()
	})), "ms", probeReps)
	rep.set("unsnap.new_solver_warm_ms", ms(medianOf(probeReps, func() {
		s, err := newLibSolver(sc, cache)
		lp.fatal("unsnap.NewSolver", err)
		s.close()
	})), "ms", probeReps)
	rep.set("core.new_ms", ms(medianOf(probeReps, func() {
		cs, err := core.New(lp.coreConfig(so, so.Threads))
		lp.fatal("core.New", err)
		cs.Close()
	})), "ms", probeReps)
}

// coreConfig is the core configuration of the case on the probe's mesh
// with the artifact injected.
func (lp *layerProbe) coreConfig(o unsnap.Options, threads int) core.Config {
	return core.Config{
		Mesh: lp.mesh, Order: lp.c.Problem.Order, Quad: lp.quad, Lib: lp.lib,
		Threads: threads, Epsi: o.Epsi, MaxInners: o.MaxInners, MaxOuters: o.MaxOuters,
		AllowCycles: o.AllowCycles, CycleOrder: sweep.CycleOrder(o.CycleOrder),
		Accelerate: core.AccelMode(o.Accelerate), Artifact: lp.art,
	}
}

var laSink float64

// la times the dense kernels at the workload's local system size
// n = (order+1)^3, on a diagonally dominant matrix. Each timed loop
// restores the matrix first; the restore is timed alone and subtracted.
func (lp *layerProbe) la() {
	n := lp.c.Problem.Order + 1
	n = n * n * n
	r := rand.New(rand.NewPCG(1, uint64(n)))
	src := la.NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			src.Set(i, j, r.Float64())
		}
		src.Add(i, i, float64(n))
	}
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = r.Float64()
	}
	a := la.NewMatrix(n)
	b := make([]float64, n)
	x := make([]float64, n)
	piv := make([]int, n)
	iters := max(20, 40_000_000/(n*n*n)) // ~40 Mflop-ish per timed loop
	per := func(fn func()) float64 {
		return medianOf(probeReps, func() {
			for i := 0; i < iters; i++ {
				fn()
			}
		}) / float64(iters)
	}
	restore := per(func() { a.CopyFrom(src); copy(b, rhs) })
	factor := per(func() {
		a.CopyFrom(src)
		copy(b, rhs)
		lp.fatal("la.Factor", la.Factor(a, piv))
	}) - restore
	tri := per(func() { copy(b, rhs); la.SolveFactored(a, piv, b) })
	ge := per(func() {
		a.CopyFrom(src)
		copy(b, rhs)
		lp.fatal("la.SolveGE", la.SolveGE(a, b, x))
	}) - restore
	laSink += x[0] + b[0]
	lp.rep.set("la.factor_ns", factor*1e9, "ns", probeReps*iters)
	lp.rep.set("la.trisolve_ns", tri*1e9, "ns", probeReps*iters)
	lp.rep.set("la.ge_ns", ge*1e9, "ns", probeReps*iters)
	// Computed, not counted: an LU factorisation is 2n^3/3 flops.
	lp.rep.set("la.factor_gflops", 2*float64(n*n*n)/3/factor/1e9, "Gflop/s", probeReps*iters)
}

// coreFromSpans reads the per-call core times from the stepwise solves'
// spans. A workload whose operations are not single-domain library
// solves (distributed runs, service jobs) has none, so one stepwise
// solve of its problem is run here first.
func (lp *layerProbe) coreFromSpans(inners int) {
	root := "op"
	agg := lp.tr.aggregate()
	if agg["core.sweep"] == nil {
		root = "core.probe"
		o := lp.single(lp.totalThreads()).Options
		cs, err := core.New(lp.coreConfig(o, o.Threads))
		lp.fatal("core.New", err)
		id := lp.tr.begin(root, -1, -1)
		res := stepSolve(lp.tr, -1, id, cs, o)
		lp.tr.end(id)
		cs.Close()
		if !res.Converged {
			lp.fatal("stepwise solve", fmt.Errorf("not converged after %d inners", res.Inners))
		}
		lp.stepInners, lp.stepOuters = res.Inners, res.Outers
		agg = lp.tr.aggregate()
	} else {
		lp.stepInners = inners
		lp.stepOuters = agg["core.outer_source"].count / agg[root].count
	}
	perCall := func(name string) (float64, int) {
		st := agg[name]
		if st == nil || st.count == 0 {
			return 0, 0
		}
		return ms(st.total / float64(st.count)), st.count
	}
	for metric, spanName := range map[string]string{
		"core.outer_source_ms":   "core.outer_source",
		"core.prepare_inner_ms":  "core.prepare_inner",
		"core.sweep_ms":          "core.sweep",
		"core.converge_check_ms": "core.converge_check",
		"core.balance_ms":        "core.balance",
	} {
		v, n := perCall(spanName)
		lp.rep.set(metric, v, "ms", n)
	}
	lp.rep.set("core.loop_self_share", agg[root].self/agg[root].total, "share", agg[root].count)
	lp.rep.set("core.inners", float64(lp.stepInners), "count", 1)
	lp.rep.set("core.outers", float64(lp.stepOuters), "count", 1)
}

// scalingInners is the forced inner count of the scaling runs.
const scalingInners = 3

// coreScaling runs the workload's sweep for a few forced inners at one
// thread, at the workload's thread count, and instrumented, and compares
// the sweep time with what the task graph permits: with W the total task
// time and C the longest dependency chain (the deepest ordinate
// schedule), no schedule on P workers beats max(W/P, C * task time).
func (lp *layerProbe) coreScaling() {
	sweepSec := func(threads int, instrument bool) (float64, *core.Result) {
		cfg := lp.coreConfig(lp.c.Options, threads)
		cfg.MaxInners, cfg.MaxOuters, cfg.ForceIterations = scalingInners, 1, true
		cfg.Instrument = instrument
		cs, err := core.New(cfg)
		lp.fatal("core.New", err)
		defer cs.Close()
		runtime.GC()
		res, err := cs.Run()
		lp.fatal("core.Run", err)
		return res.SweepTime.Seconds() / scalingInners, res
	}
	p := lp.totalThreads()
	t1, _ := sweepSec(1, false)
	tp, _ := sweepSec(p, false)
	_, inst := sweepSec(p, true)

	pr := lp.c.Problem
	tasks := float64(lp.art.NumAngles * lp.art.NumElems)
	dofs := tasks * float64(pr.Groups*lp.art.Re.N)
	depth := 0
	for _, t := range lp.art.Topos {
		depth = max(depth, len(t.Sched.Buckets))
	}
	bound := max(t1/float64(p), float64(depth)*t1/tasks)
	workerSec := inst.SweepTime.Seconds() * float64(p)
	rep := lp.rep
	rep.set("core.tasks_per_sweep", tasks, "count", 1)
	rep.set("core.task_ns", t1/tasks*1e9, "ns", scalingInners)
	rep.set("core.sweep_rate_mdofs", dofs/tp/1e6, "Mdof/s", scalingInners)
	rep.set("core.assemble_share", inst.AssembleTime.Seconds()/workerSec, "share", scalingInners)
	rep.set("core.solve_share", inst.SolveTime.Seconds()/workerSec, "share", scalingInners)
	rep.set("core.parallel_eff", t1/(float64(p)*tp), "share", scalingInners)
	rep.set("core.sweep_vs_bound", tp/bound, "ratio", scalingInners)
}

// accel times the diffusion accelerator on the workload's problem: the
// operator build, one inner's worth of corrections on the flux change of
// a first sweep, and the PCG iterations they take. The inner-count ratio
// is measured only where the workload accelerates; without acceleration
// a run is its own unaccelerated run, ratio 1.
func (lp *layerProbe) accel() {
	rep := lp.rep
	materials := make([]int, lp.mesh.NumElems())
	for e := range materials {
		materials[e] = lp.mesh.Elems[e].Material
	}
	var dsa *accel.DSA
	rep.set("accel.new_ms", ms(medianOf(probeReps, func() { dsa = accel.New(lp.art.Accel, materials, lp.lib) })), "ms", probeReps)

	o := lp.single(lp.totalThreads()).Options
	o.Accelerate = unsnap.AccelNone
	cs, err := core.New(lp.coreConfig(o, o.Threads))
	lp.fatal("core.New", err)
	cs.ComputeOuterSource()
	cs.PrepareInner()
	lp.fatal("core.SweepAllAngles", cs.SweepAllAngles())
	geo := lp.art.Accel
	nE, nN, nG := geo.NE, geo.NN, lp.c.Problem.Groups
	dphi := make([][]float64, nG)
	for g := range dphi {
		dphi[g] = make([]float64, nE)
		for e := 0; e < nE; e++ {
			s := 0.0
			for i := 0; i < nN; i++ {
				s += geo.W[e*nN+i] * cs.Phi(e, g, i) // phi before the sweep was zero
			}
			dphi[g][e] = s / geo.Vol[e]
		}
	}
	cs.Close()
	corr := make([]float64, nE)
	iters := 0
	rep.set("accel.correct_ms", ms(medianOf(probeReps, func() {
		iters = 0
		for g := 0; g < nG; g++ {
			n, err := dsa.Correct(g, dphi[g], corr)
			lp.fatal("accel.Correct", err)
			iters += n
		}
	})), "ms", probeReps)
	rep.set("accel.pcg_iters", float64(iters), "count", nG)

	ratio := 1.0
	if lp.c.Options.Accelerate == unsnap.AccelDSA {
		plain := lp.single(lp.totalThreads())
		plain.Options.Accelerate = unsnap.AccelNone
		plain.Options.MaxInners *= 10
		s, err := newLibSolver(plain, lp.cache)
		lp.fatal("unaccelerated solver", err)
		res, err := s.run(context.Background())
		s.close()
		lp.fatal("unaccelerated solve", err)
		if !res.Converged {
			lp.fatal("unaccelerated solve", fmt.Errorf("not converged after %d inners", res.Inners))
		}
		ratio = float64(res.Inners) / float64(lp.stepInners)
		rep.note("accel: %d inners unaccelerated, %d with DSA (single domain)", res.Inners, lp.stepInners)
	}
	rep.set("accel.inners_ratio", ratio, "ratio", 1)
}

// comm measures the distributed driver on the workload's problem: one
// 1x2 pipelined solve (joining the window's own runs on the distributed
// workload), one lagged solve for its inner count, and the single-domain
// solve at equal total threads they are compared with (run here when the
// caller has not measured one).
func (lp *layerProbe) comm(singleWall float64, singleInners int) {
	rep := lp.rep
	dc := lp.c
	if !dc.distributed() {
		dc.Grid = [2]int{1, 2}
		dc.Options.Threads = max(1, lp.totalThreads()/2)
		dc.Options.Protocol = unsnap.CommPipelined
	}
	ctx := context.Background()
	cache := unsnap.NewCache(0)
	s, err := newLibSolver(dc, cache)
	lp.fatal("unsnap.NewDistributed", err)
	s.close()
	rep.set("comm.new_ms", ms(medianOf(probeReps, func() {
		s, err = newLibSolver(dc, cache)
		lp.fatal("unsnap.NewDistributed", err)
		s.close()
	})), "ms", probeReps)

	s, err = newLibSolver(dc, cache)
	lp.fatal("unsnap.NewDistributed", err)
	id := lp.tr.begin("comm.run", -2, -1)
	res, err := s.run(ctx)
	lp.tr.end(id)
	s.close()
	lp.fatal("distributed solve", err)
	runs := lp.tr.aggregate()["comm.run"]

	if singleWall == 0 {
		s, err := newLibSolver(lp.single(lp.totalThreads()), lp.cache)
		lp.fatal("unsnap.NewSolver", err)
		t0 := time.Now()
		sres, err := s.run(ctx)
		singleWall = time.Since(t0).Seconds()
		s.close()
		lp.fatal("single-domain solve", err)
		singleInners = sres.Inners
	}
	// The lagged protocol's inner count, for comparison. Block Jacobi
	// with rank-local DSA can stall just above epsi on coarse meshes, so
	// the run is capped near twice the pipelined count and the count it
	// reached is reported either way.
	lc := dc
	lc.Options.Protocol = unsnap.CommLagged
	lc.Options.MaxInners, lc.Options.MaxOuters = 2*res.Inners+20, 2
	ls, err := newLibSolver(lc, cache)
	lp.fatal("unsnap.NewDistributed (lagged)", err)
	lres, err := ls.run(ctx)
	ls.close()
	lp.fatal("lagged solve", err)
	if !lres.Converged {
		rep.note("comm: the lagged protocol had not converged after %d inners (capped)", lres.Inners)
	}

	part, err := lp.mesh.PartitionKBA(dc.Grid[0], dc.Grid[1])
	lp.fatal("mesh.PartitionKBA", err)
	sides := 0
	for _, sub := range part.Subs {
		sides += len(sub.Remote)
	}
	// Computed: each cross-rank face pair carries, per ordinate, one
	// face's nodes for every group, from whichever side is upwind.
	haloBytes := float64(sides/2) * float64(lp.art.NumAngles*lp.c.Problem.Groups*lp.art.Re.NF*8)

	distWall := median(runs.durSec)
	rep.set("comm.run_ms", ms(distWall), "ms", runs.count)
	rep.set("comm.inners", float64(res.Inners), "count", 1)
	rep.set("comm.lagged_inners", float64(lres.Inners), "count", 1)
	rep.set("comm.single_inners", float64(singleInners), "count", 1)
	rep.set("comm.vs_single_ratio", distWall/singleWall, "ratio", runs.count)
	rep.set("comm.halo_faces", float64(sides/2), "count", 1)
	rep.set("comm.halo_bytes_per_sweep", haloBytes, "B", 1)
	rep.set("comm.attempts", float64(res.Attempts), "count", 1)
	degraded := 0.0
	if res.Degraded {
		degraded = 1
	}
	rep.set("comm.degraded", degraded, "count", 1)
}

// serveOne pushes the library workload's own problem through an
// in-process service, twice (the build, then the hit), so the serve
// layer is probed at this workload's shape too.
func (lp *layerProbe) serveOne() {
	h, err := startServer(serve.Config{MaxConcurrent: lp.rc.p})
	lp.fatal("serve.New", err)
	defer h.stop()
	cl := newClient(h.base)
	defer cl.close()
	j := job{Tenant: "probe", Spec: unsnap.SpecOf(lp.c.Problem, lp.single(lp.totalThreads()).Options)}
	var results []jobResult
	for i := 0; i < 2; i++ {
		r := cl.do(j, lp.tr, -3-i)
		if !r.ok() {
			lp.fatal("service job", fmt.Errorf("state %q: %s %v", r.view.State, r.view.Error, r.err))
		}
		results = append(results, r)
	}
	serveMetrics(lp.rep, results, 0)
}
