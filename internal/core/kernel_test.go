package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"unsnap/internal/fem"
	"unsnap/internal/la"
	"unsnap/internal/mesh"
	"unsnap/internal/quadrature"
	"unsnap/internal/xs"
)

// TestBuildSigtRuns pins the equal-sigma_t run decomposition the batched
// kernel's factorisation sharing rests on.
func TestBuildSigtRuns(t *testing.T) {
	cases := []struct {
		name string
		row  []float64
		want []sigtRun
	}{
		{"ramp", []float64{1, 1.01, 1.02}, []sigtRun{{0, 1}, {1, 1}, {2, 1}}},
		{"flat", []float64{2, 2, 2, 2}, []sigtRun{{0, 4}}},
		{"mixed", []float64{1, 1, 3, 1, 1, 1}, []sigtRun{{0, 2}, {2, 1}, {3, 3}}},
		{"single", []float64{5}, []sigtRun{{0, 1}}},
		{"empty", nil, nil},
	}
	for _, tc := range cases {
		got := buildSigtRuns([][]float64{tc.row})[0]
		if len(got) != len(tc.want) {
			t.Fatalf("%s: got %v, want %v", tc.name, got, tc.want)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("%s: run %d = %v, want %v", tc.name, i, got[i], tc.want[i])
			}
		}
	}
}

// runKernel runs one configuration under the given kernel mode and
// returns the layout-independent flux snapshots.
func runKernel(t *testing.T, cfg Config, k KernelMode, reflect bool) (phi, psi []float64) {
	t.Helper()
	cfg.Scheme = SchemeEngine
	cfg.Kernel = k
	if reflect {
		cfg.Reflect = [3]bool{true, false, true}
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if cfg.Time != nil {
		if _, err := s.RunTimeDependent(context.Background()); err != nil {
			t.Fatal(err)
		}
	} else if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return snapshotSolver(s)
}

// TestKernelBatchedBitwise pins the batched kernel's core contract: on
// every boundary-condition variant of the existing test matrix it must
// produce flux bitwise identical to the scalar per-group kernel — the
// batching reorders work across independent groups, never the
// floating-point operation sequence within one.
func TestKernelBatchedBitwise(t *testing.T) {
	variants := []struct {
		name    string
		cfg     func(t *testing.T) Config
		threads int
		reflect bool
	}{
		{"vacuum/t1", engineProblem, 1, false},
		{"vacuum/t4", engineProblem, 4, false},
		{"reflective/t4", engineProblem, 4, true},
		{"cyclic/t4", cyclicProblem, 4, false},
		{"timedep/t2", timedepProblem, 2, false},
		{"p1/t2", p1Problem, 2, false},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			cfg := v.cfg(t)
			cfg.Threads = v.threads
			refPhi, refPsi := runKernel(t, v.cfg(t), KernelScalar, v.reflect)
			phi, psi := runKernel(t, cfg, KernelBatched, v.reflect)
			for i := range refPhi {
				if phi[i] != refPhi[i] {
					t.Fatalf("phi[%d]: batched %v vs scalar %v (not bitwise)", i, phi[i], refPhi[i])
				}
			}
			for i := range refPsi {
				if psi[i] != refPsi[i] {
					t.Fatalf("psi[%d]: batched %v vs scalar %v (not bitwise)", i, psi[i], refPsi[i])
				}
			}
		})
	}
}

// flatSigtConfig builds a vacuum engine problem whose library has a flat
// per-material sigma_t across groups, so each material decomposes into a
// single run and every task costs exactly one factorisation.
func flatSigtConfig(t *testing.T, groups int) Config {
	t.Helper()
	m, err := mesh.New(mesh.Config{NX: 4, NY: 4, NZ: 4, LX: 1, LY: 1, LZ: 1,
		MatOpt: xs.MatOptCentre, SrcOpt: xs.SrcOptEverywhere})
	if err != nil {
		t.Fatal(err)
	}
	q, err := quadrature.NewSNAP(3)
	if err != nil {
		t.Fatal(err)
	}
	lib, err := xs.NewLibrary(groups)
	if err != nil {
		t.Fatal(err)
	}
	for mat := range lib.Total {
		for g := range lib.Total[mat] {
			lib.Total[mat][g] = lib.Total[mat][0]
		}
	}
	return Config{
		Mesh: m, Order: 1, Quad: q, Lib: lib,
		MaxInners: 3, MaxOuters: 2, ForceIterations: true,
	}
}

// TestKernelFlatSigtSingleRun checks the full-amortisation regime: a flat
// sigma_t library collapses each material to one run spanning all groups,
// and the batched kernel still matches the scalar kernel bit for bit.
func TestKernelFlatSigtSingleRun(t *testing.T) {
	cfg := flatSigtConfig(t, 4)
	cfg.Scheme = SchemeEngine
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for m, runs := range s.sigtRuns {
		if len(runs) != 1 || runs[0] != (sigtRun{0, int32(s.nG)}) {
			t.Fatalf("material %d: runs %v, want one run over all %d groups", m, runs, s.nG)
		}
	}
	s.Close()

	refPhi, refPsi := runKernel(t, flatSigtConfig(t, 4), KernelScalar, false)
	cfg2 := flatSigtConfig(t, 4)
	cfg2.Threads = 4
	phi, psi := runKernel(t, cfg2, KernelBatched, false)
	for i := range refPhi {
		if phi[i] != refPhi[i] {
			t.Fatalf("phi[%d]: batched %v vs scalar %v (not bitwise)", i, phi[i], refPhi[i])
		}
	}
	for i := range refPsi {
		if psi[i] != refPsi[i] {
			t.Fatalf("psi[%d]: batched %v vs scalar %v (not bitwise)", i, psi[i], refPsi[i])
		}
	}
}

// TestKernelDGESVBatchedBitwise holds the batched kernel to the scalar
// kernel under SolverDGESV on a flat-sigma_t library. The batched kernel
// does not read Config.Solver, so the DGESV setting varies the scalar
// reference only (la.SolveDGESV where TestKernelBatchedBitwise's
// variants run la.SolveGE).
func TestKernelDGESVBatchedBitwise(t *testing.T) {
	mk := func(k KernelMode) ([]float64, []float64) {
		cfg := flatSigtConfig(t, 4)
		cfg.Solver = SolverDGESV
		cfg.Threads = 2
		return runKernel(t, cfg, k, false)
	}
	refPhi, refPsi := mk(KernelScalar)
	phi, psi := mk(KernelBatched)
	for i := range refPhi {
		if phi[i] != refPhi[i] {
			t.Fatalf("phi[%d]: batched %v vs scalar %v (not bitwise)", i, phi[i], refPhi[i])
		}
	}
	for i := range refPsi {
		if psi[i] != refPsi[i] {
			t.Fatalf("psi[%d]: batched %v vs scalar %v (not bitwise)", i, psi[i], refPsi[i])
		}
	}
}

// TestSweepTaskAllocFree pins the tentpole's zero-allocation property:
// after warm-up, a full engine sweep — every task body included — must
// allocate nothing. AllocsPerRun forces GOMAXPROCS(1), so the pin runs
// the single-threaded engine (inline execution, no pool goroutines); the
// task body is the same code the pooled workers run. The P1 and
// time-dependent variants hold the mq1 / mPrev source paths to the same
// contract (the time-dependent one after a stored step, so mPrev is live),
// and the PreAssembled one the eagerly filled factor store.
func TestSweepTaskAllocFree(t *testing.T) {
	variants := []struct {
		name string
		cfg  func(t *testing.T) Config
	}{
		{"isotropic", engineProblem},
		{"p1", p1Problem},
		{"timedep", timedepProblem},
		{"preassembled", func(t *testing.T) Config {
			cfg := engineProblem(t)
			cfg.PreAssembled = true
			return cfg
		}},
	}
	for _, p := range widthPlans {
		groups := p.groups
		for _, noCache := range []bool{false, true} {
			name := fmt.Sprintf("plan%d", groups)
			if noCache {
				name += "/uncached"
			}
			variants = append(variants, struct {
				name string
				cfg  func(t *testing.T) Config
			}{name, func(t *testing.T) Config {
				cfg := rampedProblem(t, groups)
				cfg.noFactorCache = noCache
				return cfg
			}})
		}
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			cfg := v.cfg(t)
			cfg.Scheme = SchemeEngine
			cfg.Threads = 1
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			s.ComputeOuterSource()
			s.PrepareInner()
			if err := s.SweepAllAngles(); err != nil { // warm-up: builds the engine
				t.Fatal(err)
			}
			if cfg.Time != nil {
				s.storePrevStep()
			}
			avg := testing.AllocsPerRun(5, func() {
				s.PrepareInner()
				if err := s.SweepAllAngles(); err != nil {
					t.Fatal(err)
				}
			})
			if avg != 0 {
				t.Fatalf("steady-state sweep allocates %.1f objects per sweep, want 0", avg)
			}
		})
	}
}

// p1Problem is engineProblem with linearly anisotropic scattering.
func p1Problem(t *testing.T) Config {
	cfg := engineProblem(t)
	lib, err := xs.NewLibraryP1(cfg.Lib.NumGroups)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Lib = lib
	cfg.ScatOrder = 1
	return cfg
}

// timedepProblem is engineProblem stepped twice with BDF1.
func timedepProblem(t *testing.T) Config {
	cfg := engineProblem(t)
	cfg.MaxInners, cfg.MaxOuters = 2, 1
	cfg.Time = &TimeConfig{Steps: 2, Dt: 0.5,
		Velocity: DefaultVelocities(cfg.Lib.NumGroups)}
	return cfg
}

// fluxDigest hashes the bit patterns of a flux snapshot.
func fluxDigest(phi, psi []float64) string {
	h := sha256.New()
	var b [8]byte
	for _, vs := range [][]float64{phi, psi} {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestKernelFluxDigest pins the isotropic steady-state flux of one
// twisted 4^3 problem (6 groups: one four-group panel plus a two-group
// tail) to the sha256 the commit before the source hoist produced: moving
// M q_tot into PrepareInner and the face pass onto the panel routine
// changed no bit of it, under either kernel.
func TestKernelFluxDigest(t *testing.T) {
	const want = "75e16339ca17fc6532b5cbf6306b8ad66e679f1c0256dd2202ce18a3f2c8e51d"
	for _, k := range []KernelMode{KernelBatched, KernelScalar} {
		m, q, lib := testProblem(t, 4, 6, 2, 0.004)
		cfg := Config{Mesh: m, Order: 1, Quad: q, Lib: lib, Threads: 2,
			MaxInners: 3, MaxOuters: 2, ForceIterations: true}
		phi, psi := runKernel(t, cfg, k, false)
		if got := fluxDigest(phi, psi); got != want {
			t.Errorf("%v kernel: flux digest %s, want %s", k, got, want)
		}
	}
}

// kernelCase is one small problem of the batched-vs-scalar oracle: the
// table test's matrix as a product space the fuzzer can walk.
type kernelCase struct {
	groups  int // 1..9: the four-group panel count and its 0-3 group tail
	order   int // 1..2
	twist   float64
	bc      int // 0 vacuum, 1 reflective, 2 cyclic (lagged couplings), 3 streamed halo
	mode    int // 0 isotropic, 1 P1, 2 time-dependent
	threads int // 1..4
}

func (kc kernelCase) config(t *testing.T) Config {
	t.Helper()
	mc := mesh.Config{NX: 3, NY: 3, NZ: 3, LX: 1, LY: 1, LZ: 1, Twist: kc.twist,
		MatOpt: xs.MatOptCentre, SrcOpt: xs.SrcOptEverywhere}
	if kc.bc == 2 {
		mc.Twist, mc.TwistPeriods = 0.8, 1 // 48 lagged couplings on 3^3
	}
	m, err := mesh.New(mc)
	if err != nil {
		t.Fatal(err)
	}
	q, err := quadrature.NewSNAP(1)
	if err != nil {
		t.Fatal(err)
	}
	newLib := xs.NewLibrary
	if kc.mode == 1 {
		newLib = xs.NewLibraryP1
	}
	lib, err := newLib(kc.groups)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Mesh: m, Order: kc.order, Quad: q, Lib: lib, Threads: kc.threads,
		Scheme: SchemeEngine, MaxInners: 2, MaxOuters: 1, ForceIterations: true,
		AllowCycles: kc.bc == 2}
	if kc.mode == 1 {
		cfg.ScatOrder = 1
	}
	if kc.mode == 2 {
		cfg.Time = &TimeConfig{Steps: 2, Dt: 0.5, Velocity: DefaultVelocities(kc.groups)}
	}
	return cfg
}

// run solves the case under one kernel. The streamed-halo variant drives
// two sweeps by hand with every +y inflow slot holding a fixed pattern.
func (kc kernelCase) run(t *testing.T, k KernelMode) (phi, psi []float64) {
	t.Helper()
	cfg := kc.config(t)
	if kc.bc != 3 {
		return runKernel(t, cfg, k, kc.bc == 1)
	}
	re, err := fem.NewRefElement(kc.order)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Kernel = k
	cfg.External = boundaryExternals(cfg.Mesh, re)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for fi := range cfg.External {
		for a := 0; a < s.nA; a++ {
			for i, buf := 0, s.ExternalInflowBuffer(fi, a); i < len(buf); i++ {
				buf[i] = 0.25 + float64((fi*7+a*3+i)%11)/16
			}
		}
	}
	s.ComputeOuterSource()
	for inner := 0; inner < 2; inner++ {
		s.PrepareInner()
		if err := s.ArmSweep(); err != nil {
			t.Fatal(err)
		}
		for a, ang := range cfg.Quad.Angles {
			for _, ef := range cfg.External {
				if ExternalInflow(ang.Omega, ef.Normal, ef.Canonical) {
					s.ResolveExternal(a, ef.Elem)
				}
			}
		}
		if err := s.FinishSweep(); err != nil {
			t.Fatal(err)
		}
	}
	return snapshotSolver(s)
}

// checkKernelCase asserts batched == scalar bit for bit on one case.
func checkKernelCase(t *testing.T, kc kernelCase) {
	t.Helper()
	if kc.bc == 3 && kc.mode == 2 {
		kc.mode = 0 // time stepping runs through Run, which a streamed solver refuses
	}
	ref := kc
	ref.threads = 1
	refPhi, refPsi := ref.run(t, KernelScalar)
	phi, psi := kc.run(t, KernelBatched)
	for i := range refPhi {
		if math.Float64bits(phi[i]) != math.Float64bits(refPhi[i]) {
			t.Fatalf("%+v: phi[%d]: batched %v vs scalar %v (not bitwise)", kc, i, phi[i], refPhi[i])
		}
	}
	for i := range refPsi {
		if math.Float64bits(psi[i]) != math.Float64bits(refPsi[i]) {
			t.Fatalf("%+v: psi[%d]: batched %v vs scalar %v (not bitwise)", kc, i, psi[i], refPsi[i])
		}
	}
}

// TestKernelPanelTails walks every panel shape — zero to two four-group
// panels with every tail length — across the boundary kinds, including
// the streamed-halo slots the table test above cannot reach.
func TestKernelPanelTails(t *testing.T) {
	for groups := 1; groups <= 9; groups++ {
		for bc := 0; bc <= 3; bc++ {
			checkKernelCase(t, kernelCase{groups: groups, order: 1, twist: 0.004,
				bc: bc, mode: groups % 3, threads: 1 + groups%4})
		}
	}
}

// FuzzKernelBatchedBitwise is the fuzz twin of TestKernelBatchedBitwise:
// small problems drawn from the fuzz input, batched == scalar bit for bit.
func FuzzKernelBatchedBitwise(f *testing.F) {
	// The table test's matrix: vacuum/t1, vacuum/t4, reflective/t4,
	// cyclic/t4, timedep/t2, p1/t2 — at group counts with and without a tail.
	f.Add(uint8(2), uint8(1), uint8(4), uint8(0), uint8(0), uint8(1))
	f.Add(uint8(8), uint8(1), uint8(4), uint8(0), uint8(0), uint8(4))
	f.Add(uint8(5), uint8(1), uint8(4), uint8(1), uint8(0), uint8(4))
	f.Add(uint8(6), uint8(1), uint8(0), uint8(2), uint8(0), uint8(4))
	f.Add(uint8(7), uint8(1), uint8(4), uint8(0), uint8(2), uint8(2))
	f.Add(uint8(9), uint8(1), uint8(4), uint8(0), uint8(1), uint8(2))
	f.Add(uint8(4), uint8(2), uint8(9), uint8(3), uint8(1), uint8(3))
	f.Fuzz(func(t *testing.T, groups, order, twist, bc, mode, threads uint8) {
		checkKernelCase(t, kernelCase{
			groups:  1 + int(groups%9),
			order:   1 + int(order%2),
			twist:   float64(twist%16) * 0.001,
			bc:      int(bc % 4),
			mode:    int(mode % 3),
			threads: 1 + int(threads%4),
		})
	})
}

// TestResetStateReproducesFresh: a solver that has run, been reset and
// run again holds the flux of a fresh solver bit for bit — every iterate
// ResetState must clear (the stored source products mq / mq1, the
// time-stepping history mPrev, the lag snapshot) is live in one variant.
func TestResetStateReproducesFresh(t *testing.T) {
	variants := []struct {
		name string
		cfg  func(t *testing.T) Config
	}{
		{"isotropic", engineProblem},
		{"p1", p1Problem},
		{"timedep", timedepProblem},
		{"cyclic", cyclicProblem},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			run := func(s *Solver) {
				t.Helper()
				var err error
				if v.name == "timedep" {
					_, err = s.RunTimeDependent(context.Background())
				} else {
					_, err = s.Run()
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			cfg := v.cfg(t)
			cfg.Scheme = SchemeEngine
			cfg.Threads = 2
			fresh, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer fresh.Close()
			run(fresh)
			wantPhi, wantPsi := snapshotSolver(fresh)

			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			run(s)
			s.ResetState()
			run(s)
			phi, psi := snapshotSolver(s)
			if fluxDigest(phi, psi) != fluxDigest(wantPhi, wantPsi) {
				t.Fatal("run, ResetState, run differs from a fresh solver's run")
			}
		})
	}
}

// TestInstrumentChargesSourcePass: with Config.Instrument the per-inner
// source pass (and the per-step M psi_prev pass) land in the assembly
// timer, so AssembleTime covers RHS formation that no longer happens
// inside a task; without it they cost no timer calls.
func TestInstrumentChargesSourcePass(t *testing.T) {
	for _, instrument := range []bool{true, false} {
		cfg := timedepProblem(t)
		cfg.Scheme = SchemeEngine
		cfg.Threads = 2
		cfg.Instrument = instrument
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		pending := func() (ns int64) {
			for _, st := range s.workers {
				ns += st.asmNS
			}
			return ns
		}
		s.ComputeOuterSource()
		s.PrepareInner()
		prep := pending()
		s.storePrevStep()
		step := pending() - prep
		if instrument != (prep > 0) || instrument != (step > 0) {
			t.Fatalf("instrument=%v: source pass charged %d ns, step pass %d ns", instrument, prep, step)
		}
		if err := s.SweepAllAngles(); err != nil {
			t.Fatal(err)
		}
		if asm, _ := s.PhaseTimes(); instrument && asm.Nanoseconds() < prep+step {
			t.Fatalf("PhaseTimes assemble %v dropped the %d ns charged before the sweep", asm, prep+step)
		}
	}
}

// TestPreAssembledStoreOneFactorPerRun pins what makes PreAssembled a
// fill policy of the factor store rather than a store of its own: every
// element is its own class, every entry is ready when New returns, and an
// entry holds one factor per sigma_t run — one on a flat-sigma_t library,
// not one per group. The bucket executors read the same entries through
// factor's group -> run lookup and still match on-the-fly assembly.
func TestPreAssembledStoreOneFactorPerRun(t *testing.T) {
	cfg := flatSigtConfig(t, 4)
	cfg.Scheme = SchemeEngine
	cfg.Threads = 3
	cfg.PreAssembled = true
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.fc == nil || s.fc.nSlots != s.nE {
		t.Fatalf("eager store: %+v, want one slot per element (%d)", s.fc, s.nE)
	}
	if len(s.fc.entries) != s.nA*s.nE {
		t.Fatalf("eager store has %d entries, want %d", len(s.fc.entries), s.nA*s.nE)
	}
	for i := range s.fc.entries {
		ent := &s.fc.entries[i]
		if ent.state.Load() != facReady {
			t.Fatalf("entry %d not ready after New", i)
		}
		factors := len(ent.lu) - len(s.fc.blocks(ent, 1))
		if lu, _ := s.fc.run(ent, 0); factors != len(lu) {
			t.Fatalf("entry %d holds %d factors on a flat library of %d groups, want 1", i, factors/len(lu), s.nG)
		}
	}
	want, _ := s.fc.run(&s.fc.entries[0], 0)
	for g := 0; g < s.nG; g++ {
		if lu, _ := s.fc.factor(s, 0, 0, g); &lu[0] != &want[0] {
			t.Fatalf("group %d does not resolve to the element's one run", g)
		}
	}

	run := func(pre bool) float64 {
		cfg := flatSigtConfig(t, 4)
		cfg.Scheme = SchemeAGE
		cfg.Threads = 2
		cfg.PreAssembled = pre
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return s.FluxIntegral(s.nG - 1)
	}
	if a, b := run(false), run(true); math.Abs(a-b) > 1e-9*(1+math.Abs(a)) {
		t.Fatalf("bucket scheme over the eager store diverges: %v vs %v", b, a)
	}
}

// widthPlans lists, per group count of a ramped library (every group its
// own sigma_t run), the panel widths the lazy factor store cuts each
// material's runs into.
var widthPlans = []struct {
	groups int
	widths []int32
}{
	{1, []int32{1}},
	{2, []int32{2}},
	{3, []int32{2, 1}},
	{4, []int32{4}},
	{5, []int32{4, 1}},
	{8, []int32{4, 4}},
}

// rampedProblem is cyclicProblem on the default ramped library of the
// given group count, every odd group's total cross section raised 50-fold
// (so still one sigma_t run per group). Its strong twist leaves a few
// element matrices far enough from diagonal dominance that partial
// pivoting swaps rows, so some lane permutations are not the identity;
// the mass-dominated odd groups pivot elsewhere than their neighbours, so
// some lanes of one panel disagree.
func rampedProblem(t *testing.T, groups int) Config {
	cfg := cyclicProblem(t)
	lib, err := xs.NewLibrary(groups)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range lib.Total {
		for g := 1; g < len(row); g += 2 {
			row[g] *= 50
		}
	}
	cfg.Lib = lib
	return cfg
}

// TestFactorCacheWidthPlans runs every panel plan through the cached
// path: the store cuts the runs as widthPlans says, some lane of a wider
// panel gathers through a row permutation that is not the identity, and
// the flux matches the uncached batched kernel and the scalar kernel bit
// for bit, on both solver kinds (the batched kernel and the store fill
// the same way under both; the solver kind varies the scalar reference
// only: SolverGE runs la.SolveGE, SolverDGESV la.SolveDGESV).
func TestFactorCacheWidthPlans(t *testing.T) {
	for _, p := range widthPlans {
		for _, solver := range []SolverKind{SolverGE, SolverDGESV} {
			t.Run(fmt.Sprintf("g%d/%v", p.groups, solver), func(t *testing.T) {
				mk := func(k KernelMode, noCache bool) ([]float64, []float64) {
					cfg := rampedProblem(t, p.groups)
					cfg.Solver = solver
					cfg.Threads = 3
					cfg.noFactorCache = noCache
					return runKernel(t, cfg, k, false)
				}
				cfg := rampedProblem(t, p.groups)
				cfg.Scheme = SchemeEngine
				cfg.Solver = solver
				s, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				if s.fc == nil {
					t.Fatal("no factor store on a small ramped problem")
				}
				for mat, plan := range s.plan {
					var widths []int32
					for _, pn := range plan {
						widths = append(widths, pn.w)
					}
					if !slices.Equal(widths, p.widths) {
						t.Fatalf("material %d: panel widths %v, want %v", mat, widths, p.widths)
					}
				}
				if _, err := s.Run(); err != nil {
					t.Fatal(err)
				}
				if !fusedBlocksMatch(t, s) {
					t.Fatal("no ready lane entry: the stored face blocks are not exercised")
				}
				if p.groups > 1 && !lanePivots(s, s.plan[0]) {
					t.Fatal("every lane permutation is the identity: the gather is not exercised")
				}
				if p.groups > 1 && !panelsDisagree(t, s) {
					t.Fatal("every uncached panel's lanes share one permutation: the masked row exchange is not exercised")
				}
				want := fluxDigest(mk(KernelScalar, true))
				for _, noCache := range []bool{true, false} {
					if fluxDigest(mk(KernelBatched, noCache)) != want {
						t.Fatalf("batched (uncached %v) flux is not bitwise the scalar kernel's", noCache)
					}
				}
			})
		}
	}
}

// mixedPlans are libraries whose sigma_t has a shared run beside single
// ones: group g takes the total of ramped group pattern[g], so equal
// entries form one run. [a,a,b,c,d,e] plans a width-1 run of two groups,
// then a four-lane panel; [b,c,a,a] a two-lane panel, then a width-1 run
// of two groups at g0 = 2, its columns solved at row stride nG past the
// panel's.
var mixedPlans = []struct {
	pattern []int
	widths  []int32
}{
	{[]int{0, 0, 1, 2, 3, 4}, []int32{1, 4}},
	{[]int{1, 2, 0, 0}, []int32{2, 1}},
}

// mixedProblem is rampedProblem with its totals rearranged by pattern.
func mixedProblem(t *testing.T, pattern []int) Config {
	cfg := rampedProblem(t, len(pattern))
	for _, row := range cfg.Lib.Total {
		ramp := slices.Clone(row)
		for g, r := range pattern {
			row[g] = ramp[r]
		}
	}
	return cfg
}

// TestFactorCacheMixedPlans runs the plans that mix a shared-factor run
// with lane panels through the cached path: the store cuts the runs as
// mixedPlans says, its face blocks are the task's, and the flux matches
// the uncached batched kernel and the scalar kernel bit for bit, on both
// solver kinds.
func TestFactorCacheMixedPlans(t *testing.T) {
	for _, p := range mixedPlans {
		for _, solver := range []SolverKind{SolverGE, SolverDGESV} {
			t.Run(fmt.Sprintf("%v/%v", p.pattern, solver), func(t *testing.T) {
				mk := func(k KernelMode, noCache bool) ([]float64, []float64) {
					cfg := mixedProblem(t, p.pattern)
					cfg.Solver = solver
					cfg.Threads = 3
					cfg.noFactorCache = noCache
					return runKernel(t, cfg, k, false)
				}
				cfg := mixedProblem(t, p.pattern)
				cfg.Scheme = SchemeEngine
				cfg.Solver = solver
				s, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				if s.fc == nil {
					t.Fatal("no factor store on a small mixed problem")
				}
				for mat, plan := range s.plan {
					var widths []int32
					for _, pn := range plan {
						widths = append(widths, pn.w)
					}
					if !slices.Equal(widths, p.widths) {
						t.Fatalf("material %d: panel widths %v, want %v", mat, widths, p.widths)
					}
				}
				if _, err := s.Run(); err != nil {
					t.Fatal(err)
				}
				if !fusedBlocksMatch(t, s) {
					t.Fatal("no ready entry: the stored face blocks are not exercised")
				}
				want := fluxDigest(mk(KernelScalar, true))
				for _, noCache := range []bool{true, false} {
					if fluxDigest(mk(KernelBatched, noCache)) != want {
						t.Fatalf("batched (uncached %v) flux is not bitwise the scalar kernel's", noCache)
					}
				}
			})
		}
	}
}

// fusedBlocksMatch holds every ready entry's stored face blocks to the
// blocks a task of the entry fuses itself: an entry keeps one la.Fuse3
// block per inflow face of its outflow mask, in ascending face order,
// bitwise those of the slot's first element (every element of the slot
// forms the same ones). It reports whether some entry was ready.
func fusedBlocksMatch(t *testing.T, s *Solver) bool {
	t.Helper()
	nf := s.re.NF
	want := make([]float64, nf*nf)
	seen := false
	for a := 0; a < s.nA; a++ {
		for e := 0; e < s.nE; e++ {
			mat := s.cfg.Mesh.Elems[e].Material
			ent := s.fc.entry(a, e, mat)
			fb := s.fc.blocks(ent, len(s.sigtRuns[mat]))
			if ent.state.Load() != facReady || ent.mask != s.outflowMask(a, e) {
				continue
			}
			seen = true
			om := s.cfg.Quad.Angles[a].Omega
			for f := 0; f < fem.NumFaces; f++ {
				if ent.mask&(1<<f) != 0 {
					continue
				}
				face := &s.em[e].Face[f]
				la.Fuse3(want, face[0], face[1], face[2], om[0], om[1], om[2])
				for i, v := range want {
					if math.Float64bits(fb[i]) != math.Float64bits(v) {
						t.Fatalf("angle %d elem %d face %d: stored block entry %d %v, the task fuses %v", a, e, f, i, fb[i], v)
					}
				}
				fb = fb[nf*nf:]
			}
			if len(fb) != 0 {
				t.Fatalf("angle %d elem %d: %d stored block entries beyond the inflow faces", a, e, len(fb))
			}
		}
	}
	return seen
}

// TestFactorCacheMaskMismatch: a task whose outflow set differs from its
// entry's — a tangent face classified the other way within a geometry
// class — takes the private path and neither reads nor fills the entry.
// Every entry of ordinate 0 is given a foreign mask: they stay empty, and
// the flux is still bitwise the uncached kernel's.
func TestFactorCacheMaskMismatch(t *testing.T) {
	for _, groups := range []int{1, 4} {
		run := func(noCache, foreign bool) ([]float64, []float64) {
			cfg := rampedProblem(t, groups)
			cfg.Scheme = SchemeEngine
			cfg.Threads = 2
			cfg.noFactorCache = noCache
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if foreign {
				for sl := 0; sl < s.fc.nSlots; sl++ {
					s.fc.entries[sl].mask ^= 0x3f
				}
			}
			if _, err := s.Run(); err != nil {
				t.Fatal(err)
			}
			if foreign {
				for sl := 0; sl < s.fc.nSlots; sl++ {
					if st := s.fc.entries[sl].state.Load(); st != facEmpty {
						t.Fatalf("groups %d: entry with a foreign mask left in state %d", groups, st)
					}
				}
				if s.fc.entries[s.fc.nSlots].state.Load() != facReady {
					t.Fatalf("groups %d: ordinate 1's first entry was not filled", groups)
				}
			}
			return snapshotSolver(s)
		}
		want := fluxDigest(run(true, false))
		if got := fluxDigest(run(false, true)); got != want {
			t.Fatalf("groups %d: mask-mismatched store flux %s, uncached %s", groups, got, want)
		}
	}
}

// TestKernelLanesMatchBuckets holds the engine, on its lane-major layout
// and the batched kernel, cached and uncached, to the bucket executor on
// LayoutEG at 1e-12 — scalar and angular flux, read through the
// layout-independent accessors — at one, two, four and eight groups, on
// the cyclic ramped problem (lagged couplings read the lag store through
// the lane-major gather).
func TestKernelLanesMatchBuckets(t *testing.T) {
	for _, groups := range []int{1, 2, 4, 8} {
		legacy := rampedProblem(t, groups)
		legacy.Scheme = SchemeAEg
		legacy.Threads = 1
		refPhi, refPsi := runAndSnapshot(t, legacy)
		for _, noCache := range []bool{false, true} {
			cfg := rampedProblem(t, groups)
			cfg.Scheme = SchemeEngine
			cfg.Threads = 3
			cfg.noFactorCache = noCache
			phi, psi := runAndSnapshot(t, cfg)
			for i := range refPhi {
				if math.Abs(phi[i]-refPhi[i]) > 1e-12*(1+math.Abs(refPhi[i])) {
					t.Fatalf("groups %d uncached %v: phi[%d] engine %v vs buckets %v", groups, noCache, i, phi[i], refPhi[i])
				}
			}
			for i := range refPsi {
				if math.Abs(psi[i]-refPsi[i]) > 1e-12*(1+math.Abs(refPsi[i])) {
					t.Fatalf("groups %d uncached %v: psi[%d] engine %v vs buckets %v", groups, noCache, i, psi[i], refPsi[i])
				}
			}
		}
	}
}

// lanePivots reports whether some ready entry holds, in a panel wider
// than one, a gather offset other than the identity permutation's
// (i*nG + l for row i of lane l). Every material has the same plan on a
// ramped library; the caller passes it.
func lanePivots(s *Solver, plan []facPanel) bool {
	n := s.fc.n
	for i := range s.fc.entries {
		ent := &s.fc.entries[i]
		if ent.state.Load() != facReady {
			continue
		}
		off := s.fc.off[ent.off:]
		for _, p := range plan {
			w := int(p.w)
			if w == 1 {
				off = off[n:]
				continue
			}
			for k, o := range off[:w*n] {
				if int(o) != k/w*s.nG+k%w {
					return true
				}
			}
			off = off[w*n:]
		}
	}
	return false
}

// panelsDisagree forms and factors every lane panel of every task the way
// the uncached batched task does (factorPanel over the task's base) and
// reports whether some panel holds a lane whose row permutation differs
// from its neighbour's — lanes that pivot on different rows, so the
// lane-masked row exchange runs with a partial mask.
func panelsDisagree(t *testing.T, s *Solver) bool {
	t.Helper()
	st := s.workers[0]
	n := s.nN
	for a := 0; a < s.nA; a++ {
		for e := 0; e < s.nE; e++ {
			mat := s.cfg.Mesh.Elems[e].Material
			s.assembleBase(a, e, st.base)
			for _, p := range s.plan[mat] {
				w := int(p.w)
				if w == 1 {
					continue
				}
				perm := st.perm[:w*n]
				if err := s.factorPanel(st, st.panel[:w*n*n], perm, e, mat, p, false); err != nil {
					t.Fatal(err)
				}
				for l := 1; l < w; l++ {
					if !slices.Equal(perm[l*n:l*n+n], perm[(l-1)*n:l*n]) {
						return true
					}
				}
			}
		}
	}
	return false
}

// TestKernelSingularPanel zeroes one element's matrices, so every group's
// local matrix is singular, and requires the sweep on a four-group lane
// panel to fail exactly as a plan of width-1 panels does: the first
// failing panel's la.FactorLanes error names the angle, the element and
// that panel's first group — uncached and through a factor store whose
// fill fails.
func TestKernelSingularPanel(t *testing.T) {
	const bad = 5
	sweep := func(noCache, perRun bool) error {
		cfg := rampedProblem(t, 4)
		cfg.Scheme = SchemeEngine
		cfg.Threads = 1
		cfg.noFactorCache = noCache
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if (s.fc == nil) != noCache {
			t.Fatalf("uncached %v: factor store %v", noCache, s.fc)
		}
		if perRun {
			// The store is laid out by the plan: rebuild it for the new one.
			for mat, runs := range s.sigtRuns {
				s.plan[mat] = panelPlan(runs, false)
			}
			if !noCache {
				if s.fc, err = newFactorCache(s); err != nil {
					t.Fatal(err)
				}
			}
		} else if len(s.plan[0]) != 1 || s.plan[0][0].w != 4 {
			t.Fatalf("plan %v, want one four-lane panel", s.plan[0])
		}
		em := *s.em[bad]
		zero := func(m []float64) []float64 { return make([]float64, len(m)) }
		em.Mass = zero(em.Mass)
		for d := range em.Grad {
			em.Grad[d] = zero(em.Grad[d])
		}
		for f := range em.Face {
			for d := range em.Face[f] {
				em.Face[f][d] = zero(em.Face[f][d])
			}
		}
		s.em[bad] = &em
		s.ComputeOuterSource()
		s.PrepareInner()
		return s.SweepAllAngles()
	}
	for _, noCache := range []bool{true, false} {
		want := sweep(noCache, true)
		if want == nil || !errors.Is(want, la.ErrSingular) || !strings.Contains(want.Error(), fmt.Sprintf("elem %d group 0:", bad)) {
			t.Fatalf("uncached %v: per-run path returned %v, want a singular matrix at elem %d group 0", noCache, want, bad)
		}
		if got := sweep(noCache, false); got == nil || got.Error() != want.Error() {
			t.Fatalf("uncached %v: lane panel returned %v, per-run path %v", noCache, got, want)
		}
	}
}

// TestKernelChargesPanelSplit: an uncached lane panel splits its time as
// the per-run loop does — forming the w matrices is assembly, the
// factorisation (and the task's solves) are solve — so the traced
// assemble and solve shares stay comparable across the two paths; and
// without Instrument the panel costs no timer calls.
func TestKernelChargesPanelSplit(t *testing.T) {
	cfg := rampedProblem(t, 4)
	cfg.Scheme = SchemeEngine
	cfg.Threads = 1
	cfg.noFactorCache = true
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	st := s.workers[0]
	n := s.nN
	p := s.plan[0][0]
	s.assembleBase(0, 0, st.base)
	for _, instr := range []bool{false, true} {
		st.asmNS, st.solveNS = 0, 0
		if err := s.factorPanel(st, st.panel[:4*n*n], st.perm[:4*n], 0, 0, p, instr); err != nil {
			t.Fatal(err)
		}
		if instr != (st.asmNS > 0) || instr != (st.solveNS > 0) {
			t.Fatalf("instrument=%v: panel charged formation %d ns to assembly, factorisation %d ns to solve", instr, st.asmNS, st.solveNS)
		}
	}
	st.asmNS, st.solveNS = 0, 0
	s.cfg.Instrument = true
	s.ComputeOuterSource()
	s.PrepareInner()
	if err := s.solveElemBatched(st, 0, 0); err != nil {
		t.Fatal(err)
	}
	if st.asmNS <= 0 || st.solveNS <= 0 {
		t.Fatalf("uncached task charged assembly %d ns, solve %d ns", st.asmNS, st.solveNS)
	}

	// The cached lane path: the fill is solve time; a task on the ready
	// entry charges its right-hand side (source, gathers, face applies)
	// to assembly and its gathers into psi and lane solve to solve.
	cfg.noFactorCache = false
	cfg.Instrument = true
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ct := c.workers[0]
	c.ComputeOuterSource()
	c.PrepareInner()
	ct.asmNS, ct.solveNS = 0, 0
	if err := c.solveElemBatched(ct, 0, 0); err != nil {
		t.Fatal(err)
	}
	if ent := c.fc.entry(0, 0, c.cfg.Mesh.Elems[0].Material); ent.state.Load() != facReady || c.fc.blocks(ent, len(c.sigtRuns[c.cfg.Mesh.Elems[0].Material])) == nil {
		t.Fatal("the first task did not fill a lane entry with its face blocks")
	}
	fillSolve := ct.solveNS
	if fillSolve <= 0 {
		t.Fatalf("filling task charged %d ns to solve", fillSolve)
	}
	ct.asmNS, ct.solveNS = 0, 0
	if err := c.solveElemBatched(ct, 0, 0); err != nil {
		t.Fatal(err)
	}
	if ct.asmNS <= 0 || ct.solveNS <= 0 {
		t.Fatalf("cached lane task charged assembly %d ns, solve %d ns", ct.asmNS, ct.solveNS)
	}
}

// TestFactorCacheRefusesHighOrder pins the store's all-or-nothing budget
// on the solve_ho shape (twisted 4^3, order 3, 16 ordinates, 4 groups):
// its factors would need more than factorCacheLimit, so it keeps none.
func TestFactorCacheRefusesHighOrder(t *testing.T) {
	m, q, lib := testProblem(t, 4, 4, 2, 0.02)
	s, err := New(Config{Mesh: m, Order: 3, Quad: q, Lib: lib, Scheme: SchemeEngine,
		MaxInners: 1, MaxOuters: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.nA != 16 || s.nN != 64 {
		t.Fatalf("problem has %d ordinates and n = %d, want 16 and 64", s.nA, s.nN)
	}
	if s.fc != nil {
		t.Fatal("factor store kept on the solve_ho shape; its prediction is over factorCacheLimit")
	}
}

// TestInstrumentChargesFillToSolve: filling a factor-store entry is
// factorisation work, so with Config.Instrument it lands in the solve
// timer and not in the assembly timer — for the lazy fill a task performs
// in its first sweep and for PreAssembled's eager fill at New — and
// without Instrument it costs no timer calls.
func TestInstrumentChargesFillToSolve(t *testing.T) {
	for _, instrument := range []bool{true, false} {
		cfg := engineProblem(t)
		cfg.Scheme = SchemeEngine
		cfg.Threads = 1
		cfg.Instrument = instrument
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		st := s.workers[0]
		ent := s.fc.acquire(s, st, 0, 0, cfg.Mesh.Elems[0].Material)
		if ent == nil || ent.state.Load() != facReady {
			t.Fatal("first acquire did not fill the entry")
		}
		if st.asmNS != 0 || instrument != (st.solveNS > 0) {
			t.Fatalf("instrument=%v: lazy fill charged assemble %d ns, solve %d ns", instrument, st.asmNS, st.solveNS)
		}
		before := st.solveNS
		if s.fc.acquire(s, st, 0, 0, cfg.Mesh.Elems[0].Material) != ent || st.solveNS != before {
			t.Fatal("a hit on a ready entry must return it and charge nothing")
		}
		s.Close()

		cfg.PreAssembled = true
		cfg.Threads = 2
		s, err = New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		asm, solve := s.PhaseTimes()
		if asm != 0 || instrument != (solve > 0) {
			t.Fatalf("instrument=%v: eager fill charged assemble %v, solve %v", instrument, asm, solve)
		}
		s.Close()
	}
}

// TestUnclosedSolverIsCollected pins Close's documented fallback: a
// multi-thread solver that is run and dropped without Close is reclaimed
// by the garbage collector, fork-join and engine workers included. A
// parked fork-join worker must therefore hold nothing that reaches the
// solver between rounds. The goroutine count may start above zero (other
// tests drop solvers too); it must come back to where it started.
func TestUnclosedSolverIsCollected(t *testing.T) {
	// Cleanups run on their own goroutine some time after a cycle, so
	// collect repeatedly: a fixed few rounds for the baseline (solvers
	// earlier tests dropped go too), then until the count is back.
	collect := func() {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	for i := 0; i < 5; i++ {
		collect()
	}
	base, storeBase := runtime.NumGoroutine(), StoreMappedBytes()
	for i := 0; i < 5; i++ {
		cfg := engineProblem(t)
		cfg.Scheme = SchemeEngine
		cfg.Threads = 3
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if s.fc == nil {
			t.Fatal("no factor store")
		}
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
	}
	if StoreMappedBytes() <= storeBase {
		t.Fatal("the five live stores do not count")
	}
	deadline := time.Now().Add(10 * time.Second)
	for (runtime.NumGoroutine() > base || StoreMappedBytes() > storeBase) && time.Now().Before(deadline) {
		collect()
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after dropping five Threads=3 solvers and collecting, baseline %d", n, base)
	}
	if b := StoreMappedBytes(); b > storeBase {
		t.Fatalf("%d store bytes after dropping five solvers and collecting, baseline %d", b, storeBase)
	}
}
