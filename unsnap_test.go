package unsnap

import (
	"math"
	"runtime"
	"testing"
	"time"
)

// TestDistributedCloseStopsWorkers is the goroutine-leak regression test
// for Distributed.Close: an engine-backed multi-rank run spawns
// ranks x (Threads-1) persistent sweep workers, and Close must stop all
// of them (previously they lingered until the solvers were garbage
// collected).
func TestDistributedCloseStopsWorkers(t *testing.T) {
	p := smallProblem()
	p.NX, p.NY, p.NZ = 4, 4, 4
	// Flush GC cleanups of earlier tests' unclosed solvers so they cannot
	// perturb the goroutine counts mid-test.
	runtime.GC()
	runtime.GC()
	time.Sleep(50 * time.Millisecond)
	before := runtime.NumGoroutine()
	d, err := NewDistributed(p, Options{
		Scheme: Engine, Threads: 3,
		MaxInners: 2, MaxOuters: 1, ForceIterations: true,
	}, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(); err != nil {
		t.Fatal(err)
	}
	// 2 ranks x (3-1) workers should now be parked.
	if got := runtime.NumGoroutine(); got < before+4 {
		t.Fatalf("expected >= %d goroutines with live worker pools, got %d", before+4, got)
	}
	d.Close()
	d.Close() // idempotent
	// Close joins the workers on their exit counter; the runtime may
	// need a beat more to retire the goroutines themselves, so allow a
	// short settle before declaring a leak.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("worker goroutines leaked after Close: %d before, %d now",
				before, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
	// The driver stays usable: a later Run rebuilds the pools.
	if _, err := d.Run(); err != nil {
		t.Fatalf("run after Close: %v", err)
	}
	d.Close()
}

// TestDistributedCloseMidPipelinedSweep extends the goroutine-leak
// regression to the pipelined protocol's hardest case: Close while a
// cross-rank sweep is in flight must abort the run (Run returns an
// error), join the rank goroutines, receivers and watchers, and stop the
// worker pools — leaving nothing behind.
func TestDistributedCloseMidPipelinedSweep(t *testing.T) {
	p := smallProblem()
	p.NX, p.NY, p.NZ = 6, 6, 6
	p.AnglesPerOctant = 4
	runtime.GC()
	runtime.GC()
	time.Sleep(50 * time.Millisecond)
	before := runtime.NumGoroutine()
	d, err := NewDistributed(p, Options{
		Scheme: Engine, Threads: 2, Protocol: CommPipelined,
		MaxInners: 500, MaxOuters: 1, ForceIterations: true,
	}, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		_, err := d.Run()
		errCh <- err
	}()
	time.Sleep(30 * time.Millisecond) // let the pipeline get mid-sweep
	d.Close()
	d.Close() // idempotent
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("Run aborted by Close should report an error")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Run did not return after mid-sweep Close")
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after mid-sweep Close: %d before, %d now",
				before, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestNewDistributedValidatesOptions covers the per-protocol knob routing
// of NewDistributed: impossible combinations fail with clear errors
// instead of being silently ignored.
func TestNewDistributedValidatesOptions(t *testing.T) {
	p := smallProblem()
	p.NX, p.NY, p.NZ = 4, 4, 4
	if d, err := NewDistributed(p, Options{Protocol: CommPipelined, AllowCycles: true}, 2, 1); err != nil {
		t.Fatalf("pipelined + AllowCycles should be accepted (cycle-aware protocol): %v", err)
	} else {
		d.Close()
	}
	if _, err := NewDistributed(p, Options{Protocol: CommPipelined, Scheme: AEG}, 2, 1); err == nil {
		t.Fatal("pipelined + bucket scheme should be rejected")
	}
	if _, err := NewDistributed(p, Options{TimeSteps: 2, TimeDt: 0.1}, 2, 1); err == nil {
		t.Fatal("distributed + time-dependent should be rejected")
	}
	// The previously silently-dropped knobs now route through: a lagged
	// run with AllowCycles and PreAssembled must build and run.
	d, err := NewDistributed(p, Options{AllowCycles: true, PreAssembled: true,
		MaxInners: 1, MaxOuters: 1, ForceIterations: true}, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := d.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestDistributedPipelinedMatchesSingle is the facade-level parity check:
// a pipelined distributed run reproduces the single-domain solver's
// iteration counts exactly and its flux to 1e-12.
func TestDistributedPipelinedMatchesSingle(t *testing.T) {
	p := smallProblem()
	p.NX, p.NY, p.NZ = 4, 4, 4
	o := Options{Epsi: 1e-7, MaxInners: 100, MaxOuters: 10}
	s, err := NewSolver(p, o)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sres, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	op := o
	op.Protocol = CommPipelined
	d, err := NewDistributed(p, op, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	dres, err := d.Run()
	if err != nil {
		t.Fatal(err)
	}
	if dres.Inners != sres.Inners || dres.Outers != sres.Outers {
		t.Fatalf("pipelined %d inners / %d outers, single %d / %d",
			dres.Inners, dres.Outers, sres.Inners, sres.Outers)
	}
	for g := 0; g < p.Groups; g++ {
		a, b := s.FluxIntegral(g), d.FluxIntegral(g)
		if math.Abs(a-b) > 1e-12*(1+math.Abs(a)) {
			t.Fatalf("group %d: pipelined %v vs single %v", g, b, a)
		}
	}
}

// TestDistributedProgress pins Options.Progress under both protocols: the
// hook fires inside the one source iteration (core.Iterate) every driver
// runs, so a 1x2 run reports exactly one event per inner — the lagged
// protocol once per super-step, the pipelined one from rank 0 only — and
// the flux changes it saw are the result's history.
func TestDistributedProgress(t *testing.T) {
	p := smallProblem()
	p.NX, p.NY, p.NZ = 4, 4, 4
	for _, proto := range []CommProtocol{CommLagged, CommPipelined} {
		var events []Progress
		o := Options{Epsi: 1e-6, MaxInners: 100, MaxOuters: 10, Threads: 2, Protocol: proto}
		o.Progress = func(pr Progress) { events = append(events, pr) }
		d, err := NewDistributed(p, o, 1, 2)
		if err != nil {
			t.Fatalf("protocol %v: NewDistributed with a Progress hook: %v", proto, err)
		}
		res, err := d.Run()
		d.Close()
		if err != nil {
			t.Fatal(err)
		}
		if res.Inners < 2 || len(events) != res.Inners || len(res.DFHistory) != res.Inners {
			t.Fatalf("protocol %v: %d events, %d inners, %d history entries", proto, len(events), res.Inners, len(res.DFHistory))
		}
		for i, ev := range events {
			if ev.Inners != i+1 || ev.DF != res.DFHistory[i] {
				t.Fatalf("protocol %v: event %d is %+v, history has df %v", proto, i, ev, res.DFHistory[i])
			}
		}
	}
}

func smallProblem() Problem {
	p := DefaultProblem()
	p.NX, p.NY, p.NZ = 3, 3, 3
	p.AnglesPerOctant = 2
	p.Groups = 2
	return p
}

// cyclicProblem returns a genuinely cyclic oscillating-twist problem (the
// internal core/comm cycle tests verify this shape closes upwind cycles
// for half the ordinates).
func cyclicProblem() Problem {
	p := DefaultProblem()
	p.NX, p.NY, p.NZ = 4, 4, 4
	p.Twist, p.TwistPeriods = 0.8, 3
	p.AnglesPerOctant = 4
	p.Groups = 2
	return p
}

// TestCyclicMeshFacade is the facade-level cycle acceptance: a cyclic
// twisted mesh fails without AllowCycles, and with it the default engine
// scheme matches the legacy bucket path to 1e-12, keeps the fused octant
// phase, and a pipelined distributed run matches the single-domain solve.
func TestCyclicMeshFacade(t *testing.T) {
	p := cyclicProblem()
	if _, err := NewSolver(p, Options{}); err == nil {
		t.Fatal("cyclic mesh without AllowCycles must fail at construction")
	}

	forced := Options{AllowCycles: true, MaxInners: 3, MaxOuters: 2, ForceIterations: true, Threads: 2}
	eng, err := NewSolver(p, forced)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}

	legacyOpts := forced
	legacyOpts.Scheme = AEg
	legacy, err := NewSolver(p, legacyOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer legacy.Close()
	if _, err := legacy.Run(); err != nil {
		t.Fatal(err)
	}
	for e := 0; e < eng.NumElems(); e++ {
		for g := 0; g < eng.NumGroups(); g++ {
			for n := 0; n < eng.NumNodes(); n++ {
				a, b := eng.Phi(e, g, n), legacy.Phi(e, g, n)
				if math.Abs(a-b) > 1e-12*(1+math.Abs(b)) {
					t.Fatalf("elem %d g %d n %d: engine %v vs legacy %v", e, g, n, a, b)
				}
			}
		}
	}

	d, err := NewDistributed(p, Options{Protocol: CommPipelined, AllowCycles: true,
		MaxInners: 3, MaxOuters: 2, ForceIterations: true, Threads: 2}, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := d.Run(); err != nil {
		t.Fatal(err)
	}
	single, dist := eng.FluxIntegral(0), d.FluxIntegral(0)
	if math.Abs(single-dist) > 1e-12*(1+math.Abs(single)) {
		t.Fatalf("pipelined cyclic flux integral %v vs single-domain %v", dist, single)
	}
}

// TestCyclicFeedbackArcFacade pins the Options.CycleOrder threading end
// to end: one Options value routes the feedback-arc cut rule through the
// single-domain engine, the legacy bucket path and the pipelined
// distributed driver, and all three agree — engine vs legacy pointwise,
// distributed vs single-domain on the flux integral — to 1e-12. It also
// pins that the strategy genuinely changes the solve (fewer lagged
// couplings than the element-index default).
func TestCyclicFeedbackArcFacade(t *testing.T) {
	p := cyclicProblem()
	forced := Options{AllowCycles: true, CycleOrder: OrderFeedbackArc,
		MaxInners: 3, MaxOuters: 2, ForceIterations: true, Threads: 2}
	eng, err := NewSolver(p, forced)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}

	ei, err := NewSolver(p, Options{AllowCycles: true, MaxInners: 3, MaxOuters: 2,
		ForceIterations: true, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer ei.Close()
	if fa, idx := eng.Internal().Lagged(), ei.Internal().Lagged(); fa >= idx {
		t.Fatalf("feedback-arc lag set (%d) must be strictly smaller than element-index (%d)", fa, idx)
	}

	legacyOpts := forced
	legacyOpts.Scheme = AEg
	legacy, err := NewSolver(p, legacyOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer legacy.Close()
	if _, err := legacy.Run(); err != nil {
		t.Fatal(err)
	}
	for e := 0; e < eng.NumElems(); e++ {
		for g := 0; g < eng.NumGroups(); g++ {
			for n := 0; n < eng.NumNodes(); n++ {
				a, b := eng.Phi(e, g, n), legacy.Phi(e, g, n)
				if math.Abs(a-b) > 1e-12*(1+math.Abs(b)) {
					t.Fatalf("elem %d g %d n %d: engine %v vs legacy %v", e, g, n, a, b)
				}
			}
		}
	}

	distOpts := forced
	distOpts.Protocol = CommPipelined
	d, err := NewDistributed(p, distOpts, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := d.Run(); err != nil {
		t.Fatal(err)
	}
	single, dist := eng.FluxIntegral(0), d.FluxIntegral(0)
	if math.Abs(single-dist) > 1e-12*(1+math.Abs(single)) {
		t.Fatalf("pipelined feedback-arc flux integral %v vs single-domain %v", dist, single)
	}

	if got, err := ParseCycleOrder(OrderFeedbackArc.String()); err != nil || got != OrderFeedbackArc {
		t.Fatalf("facade cycle-order round trip: %v, %v", got, err)
	}
	if n := len(AllCycleOrders()); n != 2 {
		t.Fatalf("expected 2 cycle orders, got %d", n)
	}
}

func TestProblemValidate(t *testing.T) {
	if err := DefaultProblem().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultProblem()
	bad.NX = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("expected invalid grid")
	}
	bad = DefaultProblem()
	bad.Order = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("expected invalid order")
	}
	bad = DefaultProblem()
	bad.MatOpt = 9
	if err := bad.Validate(); err == nil {
		t.Fatal("expected invalid material option")
	}
}

func TestPaperProblems(t *testing.T) {
	f3 := PaperFig3Problem(1)
	if f3.NX != 16 || f3.AnglesPerOctant != 36 || f3.Groups != 64 || f3.Order != 1 {
		t.Fatalf("Fig3 problem wrong: %+v", f3)
	}
	t2 := PaperTable2Problem(4)
	if t2.NX != 32 || t2.AnglesPerOctant != 10 || t2.Groups != 16 || t2.Order != 4 {
		t.Fatalf("Table2 problem wrong: %+v", t2)
	}
}

func TestSchemeNamesRoundTrip(t *testing.T) {
	for _, s := range AllSchemes() {
		got, err := ParseScheme(s.String())
		if err != nil {
			t.Fatal(err)
		}
		if got != s {
			t.Fatalf("round trip failed for %v", s)
		}
	}
}

func TestSolverEndToEnd(t *testing.T) {
	s, err := NewSolver(smallProblem(), Options{Epsi: 1e-8, MaxInners: 100, MaxOuters: 30})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge: df=%v", res.FinalDF)
	}
	if res.Balance.Residual > 1e-5 {
		t.Fatalf("balance residual %v", res.Balance.Residual)
	}
	if s.FluxIntegral(0) <= 0 {
		t.Fatal("flux integral should be positive")
	}
	if s.NumElems() != 27 || s.NumNodes() != 8 || s.NumGroups() != 2 {
		t.Fatalf("dimensions wrong: %d %d %d", s.NumElems(), s.NumNodes(), s.NumGroups())
	}
	distinct, buckets, maxB, avgB := s.ScheduleStats()
	if distinct < 1 || buckets < 1 || maxB < 1 || avgB <= 0 {
		t.Fatal("schedule stats empty")
	}
}

func TestDistributedMatchesSingle(t *testing.T) {
	p := smallProblem()
	p.NX, p.NY, p.NZ = 4, 4, 4
	o := Options{Epsi: 1e-9, MaxInners: 300, MaxOuters: 40}
	s, err := NewSolver(p, o)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	d, err := NewDistributed(p, o, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if d.NumRanks() != 4 {
		t.Fatalf("ranks = %d", d.NumRanks())
	}
	dres, err := d.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !dres.Converged {
		t.Fatal("distributed run did not converge")
	}
	for g := 0; g < p.Groups; g++ {
		a, b := s.FluxIntegral(g), d.FluxIntegral(g)
		if math.Abs(a-b) > 1e-5*(1+math.Abs(a)) {
			t.Fatalf("group %d: distributed %v vs single %v", g, b, a)
		}
	}
}

// TestFDAndFEMAgree cross-validates the two discretisations: on a matched
// problem the volume-integrated fluxes must agree to within discretisation
// error (a few percent on these coarse grids).
func TestFDAndFEMAgree(t *testing.T) {
	p := DefaultProblem()
	p.NX, p.NY, p.NZ = 6, 6, 6
	p.AnglesPerOctant = 3
	p.Groups = 2
	p.Twist = 0 // matched grids
	o := Options{Epsi: 1e-8, MaxInners: 200, MaxOuters: 30}

	femS, err := NewSolver(p, o)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := femS.Run(); err != nil {
		t.Fatal(err)
	}
	fdS, err := NewFD(p, o, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fdS.Run(); err != nil {
		t.Fatal(err)
	}
	for g := 0; g < p.Groups; g++ {
		a, b := femS.FluxIntegral(g), fdS.FluxIntegral(g)
		rel := math.Abs(a-b) / math.Abs(a)
		if rel > 0.05 {
			t.Fatalf("group %d: FEM %v vs FD %v (rel %v)", g, a, b, rel)
		}
	}
}

func TestMemoryRatio(t *testing.T) {
	if MemoryRatioFEMOverFD(1) != 8 {
		t.Fatalf("linear ratio = %d, want 8 (paper II-C)", MemoryRatioFEMOverFD(1))
	}
	if MemoryRatioFEMOverFD(3) != 64 {
		t.Fatalf("cubic ratio = %d, want 64", MemoryRatioFEMOverFD(3))
	}
}

func TestOptionsInstrument(t *testing.T) {
	s, err := NewSolver(smallProblem(), Options{
		Instrument: true, MaxInners: 2, MaxOuters: 1, ForceIterations: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.AssembleSeconds <= 0 || res.SolveSeconds <= 0 {
		t.Fatal("instrumented run should report phase times")
	}
	if res.Inners != 2 || res.Outers != 1 {
		t.Fatalf("forced iterations wrong: %d inners %d outers", res.Inners, res.Outers)
	}
}

func TestReflectiveInfiniteMediumFacade(t *testing.T) {
	p := Problem{
		NX: 2, NY: 2, NZ: 2, LX: 1, LY: 1, LZ: 1,
		MatOpt: MatHomogeneous, SrcOpt: SrcEverywhere,
		Order: 1, AnglesPerOctant: 2, Groups: 1,
	}
	s, err := NewSolver(p, Options{
		Reflect: [3]bool{true, true, true},
		Epsi:    1e-10, MaxInners: 400, MaxOuters: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge: %v", res.FinalDF)
	}
	// Infinite medium: phi = q/sigma_a = 1/0.5 = 2 everywhere; integral
	// over the unit cube is 2.
	if got := s.FluxIntegral(0); math.Abs(got-2) > 1e-6 {
		t.Fatalf("infinite-medium flux integral %v, want 2", got)
	}
	// Balance must close with reflective faces excluded from leakage.
	if res.Balance.Residual > 1e-6 {
		t.Fatalf("reflective balance residual %v: %+v", res.Balance.Residual, res.Balance)
	}
	if res.Balance.Leakage != 0 {
		t.Fatalf("all-reflective problem should report zero leakage, got %v", res.Balance.Leakage)
	}
}

func TestProductQuadratureFacade(t *testing.T) {
	p := smallProblem()
	p.PGCPolar, p.PGCAzi = 2, 2
	s, err := NewSolver(p, Options{Epsi: 1e-7, MaxInners: 100, MaxOuters: 20})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Balance.Residual > 1e-5 {
		t.Fatalf("product-quadrature run failed: converged=%v residual=%v",
			res.Converged, res.Balance.Residual)
	}
}

func TestP1ScatteringFacade(t *testing.T) {
	p := smallProblem()
	p.ScatOrder = 1
	s, err := NewSolver(p, Options{Epsi: 1e-7, MaxInners: 200, MaxOuters: 20})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Balance.Residual > 1e-5 {
		t.Fatalf("P1 facade run failed: converged=%v residual=%v",
			res.Converged, res.Balance.Residual)
	}
}

func TestDistributedRejectsReflect(t *testing.T) {
	if _, err := NewDistributed(DefaultProblem(), Options{Reflect: [3]bool{true, false, false}}, 2, 1); err == nil {
		t.Fatal("expected reflective+distributed to be rejected")
	}
}

func TestNewSolverErrors(t *testing.T) {
	bad := DefaultProblem()
	bad.NX = -1
	if _, err := NewSolver(bad, Options{}); err == nil {
		t.Fatal("expected mesh error")
	}
	bad = DefaultProblem()
	bad.AnglesPerOctant = 0
	if _, err := NewSolver(bad, Options{}); err == nil {
		t.Fatal("expected quadrature error")
	}
	if _, err := NewDistributed(DefaultProblem(), Options{}, 0, 1); err == nil {
		t.Fatal("expected partition error")
	}
	badFD := DefaultProblem()
	badFD.Groups = 0
	if _, err := NewFD(badFD, Options{}, false); err == nil {
		t.Fatal("expected library error")
	}
}

// TestAccelerateValidation is the facade rejection table for the
// acceleration knobs: every unsupported combination fails fast with a
// structured one-line error, before any solver is built.
func TestAccelerateValidation(t *testing.T) {
	cases := []struct {
		name string
		prob func() Problem
		opts Options
	}{
		{"unknown mode", smallProblem, Options{Accelerate: AccelMode(9)}},
		{"time-dependent", smallProblem, Options{Accelerate: AccelDSA, TimeSteps: 2, TimeDt: 0.5}},
		{"reflective", smallProblem, Options{Accelerate: AccelDSA, Reflect: [3]bool{true, false, false}}},
		{"P1 scattering", func() Problem {
			p := smallProblem()
			p.ScatOrder = 1
			return p
		}, Options{Accelerate: AccelDSA}},
		{"ratio with P1", func() Problem {
			p := smallProblem()
			p.ScatOrder = 1
			p.ScatRatio = 0.9
			return p
		}, Options{}},
		{"ratio too high", func() Problem {
			p := smallProblem()
			p.ScatRatio = 1.5
			return p
		}, Options{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewSolver(tc.prob(), tc.opts); err == nil {
				t.Fatalf("%s: accepted, want rejection", tc.name)
			} else {
				t.Logf("rejected: %v", err)
			}
		})
	}
	if err := (Problem{}).Validate(); err == nil {
		t.Fatal("zero problem accepted")
	}
	p := smallProblem()
	p.ScatRatio = -0.5
	if err := p.Validate(); err == nil {
		t.Fatal("negative scattering ratio accepted")
	}
}

// TestAccelerateFacade runs DSA end to end through the public API: a
// scattering-dominated problem converges to the unaccelerated flux in
// fewer inner iterations, single-domain and 2-rank distributed alike.
func TestAccelerateFacade(t *testing.T) {
	prob := Problem{
		NX: 6, NY: 6, NZ: 6, LX: 6, LY: 6, LZ: 6,
		MatOpt: MatCentre, SrcOpt: SrcEverywhere,
		Order: 1, AnglesPerOctant: 2, Groups: 1,
		ScatRatio: 0.95,
	}
	opts := Options{Epsi: 1e-6, MaxInners: 400, MaxOuters: 1}

	run := func(mode AccelMode, ranks int) (int, float64) {
		o := opts
		o.Accelerate = mode
		if ranks > 1 {
			d, err := NewDistributed(prob, o, ranks, 1)
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			res, err := d.Run()
			if err != nil {
				t.Fatal(err)
			}
			return res.Inners, d.FluxIntegral(0)
		}
		s, err := NewSolver(prob, o)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Inners, s.FluxIntegral(0)
	}
	for _, ranks := range []int{1, 2} {
		innersOff, fluxOff := run(AccelNone, ranks)
		innersOn, fluxOn := run(AccelDSA, ranks)
		t.Logf("ranks=%d inners: %d unaccelerated, %d with DSA", ranks, innersOff, innersOn)
		if innersOn >= innersOff {
			t.Errorf("ranks=%d: DSA did not reduce inners: %d -> %d", ranks, innersOff, innersOn)
		}
		if d := math.Abs(fluxOn-fluxOff) / math.Abs(fluxOff); d > 1e-4 {
			t.Errorf("ranks=%d: flux integral %v vs %v (rel diff %g)", ranks, fluxOn, fluxOff, d)
		}
	}
}
