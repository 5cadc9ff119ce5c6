package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"unsnap"
	"unsnap/internal/core"
)

// libSolver is a single-domain or distributed solver behind the calls
// the benchmark needs from either.
type libSolver struct {
	single *unsnap.Solver
	dist   *unsnap.Distributed
	groups int
}

// newLibSolver builds the case's solver against cache (nil means no
// cache: a fully cold build).
func newLibSolver(c libCase, cache *unsnap.ArtifactCache) (*libSolver, error) {
	o := c.Options
	o.Cache = cache
	s := &libSolver{groups: c.Problem.Groups}
	var err error
	if c.distributed() {
		s.dist, err = unsnap.NewDistributed(c.Problem, o, c.Grid[0], c.Grid[1])
	} else {
		s.single, err = unsnap.NewSolver(c.Problem, o)
	}
	if err != nil {
		return nil, err
	}
	return s, nil
}

func (s *libSolver) run(ctx context.Context) (*unsnap.Result, error) {
	if s.dist != nil {
		return s.dist.RunContext(ctx)
	}
	return s.single.RunContext(ctx)
}

func (s *libSolver) flux() []float64 {
	f := make([]float64, s.groups)
	for g := range f {
		if s.dist != nil {
			f[g] = s.dist.FluxIntegral(g)
		} else {
			f[g] = s.single.FluxIntegral(g)
		}
	}
	return f
}

func (s *libSolver) close() {
	if s.dist != nil {
		s.dist.Close()
	} else {
		s.single.Close()
	}
}

// collect frees the solvers closed so far. Close signals a solver's
// workers to stop and returns; until they have, their stacks keep the
// solver's arrays alive and a collection frees nothing. Waiting for the
// goroutine count to fall back to base first keeps the garbage of one
// operation out of the next one's timed interval.
func collect(base int) {
	for i := 0; i < 1000 && runtime.NumGoroutine() > base; i++ {
		time.Sleep(100 * time.Microsecond)
	}
	runtime.GC()
}

// stepSolve drives a fresh core.Solver through the same iteration
// core.RunContext runs, one public call at a time, with a span around
// each call. The flux it converges to is bitwise the one RunContext
// produces (the oracle checks that), so the traced operation is the
// untraced one plus the spans.
func stepSolve(tr *tracer, op, root int, cs *core.Solver, o unsnap.Options) *unsnap.Result {
	res := &unsnap.Result{Attempts: 1}
	var outerPrev []float64
	for outer := 0; outer < o.MaxOuters; outer++ {
		tr.timed("core.outer_source", op, root, func() {
			outerPrev = cs.PhiSnapshot(outerPrev)
			cs.ComputeOuterSource()
		})
		res.Outers++
		for inner := 0; inner < o.MaxInners; inner++ {
			tr.timed("core.prepare_inner", op, root, cs.PrepareInner)
			var err error
			tr.timed("core.sweep", op, root, func() { err = cs.SweepAllAngles() })
			if err != nil {
				return res // not converged: the oracle counts it
			}
			tr.timed("accel.correct", op, root, func() { err = cs.Accelerate() })
			if err != nil {
				return res
			}
			tr.timed("core.converge_check", op, root, func() { res.FinalDF = cs.MaxRelChange() })
			res.Inners++
			if res.FinalDF < o.Epsi {
				break
			}
		}
		done := false
		tr.timed("core.converge_check", op, root, func() { done = cs.MaxRelDiff(outerPrev) <= 10*o.Epsi })
		if done {
			res.Converged = true
			break
		}
	}
	tr.timed("core.balance", op, root, func() {
		b := cs.ComputeBalance()
		res.Balance = unsnap.Balance{Source: b.Source, Absorption: b.Absorption, Leakage: b.Leakage, Residual: b.Residual}
	})
	return res
}

// libOracle checks every library operation: converged, balanced, and
// bitwise equal to the first operation's flux integrals.
type libOracle struct {
	balanceTol float64
	ref        []float64
	inners     int
	failures   []string
}

func (lo *libOracle) check(res *unsnap.Result, flux []float64, err error) bool {
	fail := func(format string, a ...any) bool {
		if len(lo.failures) < 8 {
			lo.failures = append(lo.failures, fmt.Sprintf(format, a...))
		}
		return false
	}
	switch {
	case err != nil:
		return fail("solve failed: %v", err)
	case !res.Converged:
		return fail("not converged after %d inners (df %.3g)", res.Inners, res.FinalDF)
	case !(res.Balance.Residual <= lo.balanceTol):
		return fail("balance residual %.3g > %.0e", res.Balance.Residual, lo.balanceTol)
	}
	if lo.ref == nil {
		lo.ref, lo.inners = flux, res.Inners
		return true
	}
	if res.Inners != lo.inners {
		return fail("inner count %d differs from the first solve's %d", res.Inners, lo.inners)
	}
	for g := range flux {
		if math.Float64bits(flux[g]) != math.Float64bits(lo.ref[g]) {
			return fail("group %d flux integral %v is not bitwise the first solve's %v", g, flux[g], lo.ref[g])
		}
	}
	return true
}

// relDiff is the largest relative difference between two flux vectors.
func relDiff(a, b []float64) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	d := 0.0
	for i := range a {
		d = math.Max(d, math.Abs(a[i]-b[i])/math.Max(math.Abs(b[i]), 1e-300))
	}
	return d
}

// runLibrary runs one library workload: cold set-ups, one warm-up solve,
// then solves until the window closes. Untraced it reports the
// end-to-end metrics; traced it alternates plain and span-recording
// solves in half the window and spends the rest on the layer probes.
func runLibrary(w workloadInfo, rc runConfig) (*report, error) {
	c := makeLibCase(w.name, rc.seed, rc.p, rc.tiny)
	rep := newReport(w, rc, c.hash())
	ctx := context.Background()

	oracle := &libOracle{balanceTol: c.BalanceTol}
	var tr *tracer
	window := rc.window()
	if rc.trace {
		tr = newTracer()
		window /= 2
	}
	base := runtime.NumGoroutine()
	var cache *unsnap.ArtifactCache
	var plain, traced []float64
	ops := 0
	// solveOnce is one operation: a fresh solver from the warm cache
	// (outside the timed interval), one solve to convergence, the check.
	solveOnce := func(t *tracer) (float64, bool, error) {
		collect(base) // the previous operation's solver
		s, err := newLibSolver(c, cache)
		if err != nil {
			return 0, false, err
		}
		defer s.close()
		ops++
		root := t.begin("op", ops, -1)
		t0 := time.Now()
		var res *unsnap.Result
		if t != nil && s.single != nil {
			res = stepSolve(t, ops, root, s.single.Internal(), c.Options)
		} else {
			id := t.begin("comm.run", ops, root)
			res, err = s.run(ctx)
			t.end(id)
		}
		d := time.Since(t0).Seconds()
		t.end(root)
		return d, oracle.check(res, s.flux(), err), nil
	}

	// Cold set-up: an empty cache until the constructor returns (mesh,
	// artifact build, solver allocation). After the first one comes the
	// warm-up solve, whose answer is the reference the later ones must
	// equal, and then the peak-memory reading: a fresh process that has
	// set up and solved once. Taken later it would also count how the
	// allocator happened to place each new solver's arrays among the
	// previous one's, which varies from run to run by half a solver.
	setups := 9
	if rc.tiny {
		setups = 2
	}
	var setupS []float64
	for i := 0; i < setups; i++ {
		collect(base)
		cache = unsnap.NewCache(0)
		t0 := time.Now()
		s, err := newLibSolver(c, cache)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		s.close()
		if i > 0 {
			continue
		}
		_, ok, err := solveOnce(nil)
		if err != nil {
			return nil, fmt.Errorf("%s: warm-up: %w", w.name, err)
		}
		rep.attempted++
		if !ok {
			rep.failed++
		}
		if !rc.trace {
			rep.set("peak_rss_mb", peakRSSMB(), "MB", 1)
		}
	}

	start := time.Now()
	for i := 0; time.Since(start) < window || i < 2; i++ {
		t := tr
		if i%2 == 0 {
			t = nil // even operations run untraced, also in a traced run
		}
		d, ok, err := solveOnce(t)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		rep.attempted++
		if !ok {
			rep.failed++
			continue
		}
		if t == nil {
			plain = append(plain, d)
		} else {
			traced = append(traced, d)
		}
	}
	elapsed := time.Since(start).Seconds()

	// converge_dist must also agree with a single-domain solve of the
	// same problem (which the pipelined protocol reproduces, up to the
	// rank-local DSA correction, at solver epsilon).
	var singleWall float64
	var singleInners int
	if c.distributed() && oracle.ref != nil {
		sc := c
		sc.Grid = [2]int{1, 1}
		sc.Options.Threads = rc.p
		s, err := newLibSolver(sc, nil)
		if err != nil {
			return nil, fmt.Errorf("%s: single-domain reference: %w", w.name, err)
		}
		t0 := time.Now()
		res, err := s.run(ctx)
		singleWall = time.Since(t0).Seconds()
		rep.attempted++
		if err != nil || !res.Converged {
			rep.failed++
			oracle.failures = append(oracle.failures, fmt.Sprintf("single-domain reference did not converge: %v", err))
		} else if d := relDiff(oracle.ref, s.flux()); d > 1e-4 {
			rep.failed++
			oracle.failures = append(oracle.failures, fmt.Sprintf("distributed flux differs from single-domain by %.3g > 1e-4", d))
		} else {
			singleInners = res.Inners
		}
		s.close()
	}

	if oracle.ref != nil {
		rep.attempted++
		if msg := rc.golden.check(goldenKey(w.name, rc), oracle.ref, oracle.inners); msg != "" {
			rep.failed++
			oracle.failures = append(oracle.failures, msg)
		}
	}
	rep.failures = oracle.failures
	rep.note("solves: %d plain, %d traced, %d inners each", len(plain), len(traced), oracle.inners)
	rep.note("solve wall s: p25 %.4f p50 %.4f p75 %.4f", quantile(plain, 0.25), median(plain), quantile(plain, 0.75))

	if !rc.trace {
		rep.set("setup_s", median(setupS), "s", len(setupS))
		rep.set("op_p50_s", median(plain), "s", len(plain))
		rep.set("ops_per_s", float64(len(plain))/elapsed, "1/s", len(plain))
		return rep, nil
	}

	lp := &layerProbe{rep: rep, rc: rc, tr: tr, c: c, cache: cache}
	lp.overhead(map[string][]float64{"": plain}, map[string][]float64{"": traced})
	lp.setupLayers()
	lp.la()
	lp.coreFromSpans(oracle.inners)
	lp.coreScaling()
	lp.accel()
	if !c.distributed() {
		singleWall, singleInners = median(plain), oracle.inners
	}
	lp.comm(singleWall, singleInners)
	lp.serveOne()
	return rep, tr.write(rc.traceOut)
}
