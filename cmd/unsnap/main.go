// Command unsnap runs one UnSNAP transport problem, configured by flags or
// by a SNAP-style input deck, and prints a SNAP-like run report: the
// problem echo, the iteration monitor, the particle balance and the flux
// spectrum.
//
// Usage:
//
//	unsnap -deck input.deck
//	unsnap -nx 8 -ny 8 -nz 8 -nang 4 -ng 4 -order 1 -scheme "angle/ELEMENT/GROUP"
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"time"

	"unsnap"
	"unsnap/internal/snapinput"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "unsnap:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	var opts unsnap.Options
	var failureMode unsnap.FailureMode
	fs := flag.NewFlagSet("unsnap", flag.ContinueOnError)
	deckPath := fs.String("deck", "", "path to a SNAP-style input deck (flags below override it)")
	nx := fs.Int("nx", 0, "elements in x")
	ny := fs.Int("ny", 0, "elements in y")
	nz := fs.Int("nz", 0, "elements in z")
	nang := fs.Int("nang", 0, "angles per octant")
	ng := fs.Int("ng", 0, "energy groups")
	order := fs.Int("order", 0, "finite element order")
	twist := fs.Float64("twist", -1, "mesh twist in radians")
	periods := fs.Float64("periods", 0, "oscillating-twist periods (0 = monotone ramp; cyclic meshes need -allow-cycles)")
	allowCycles := fs.Bool("allow-cycles", false, "accept cyclic upwind graphs (cycle-aware sweep topologies)")
	fs.TextVar(&opts.CycleOrder, "cycle-order", opts.CycleOrder, "within-SCC cut rule for cyclic meshes: element-index or feedback-arc")
	fs.TextVar(&opts.Protocol, "protocol", opts.Protocol, "halo protocol for multi-rank runs: lagged or pipelined")
	fs.TextVar(&opts.Accelerate, "accelerate", opts.Accelerate, "between-inner acceleration: none or dsa (synthetic diffusion)")
	scatRatio := fs.Float64("scat-ratio", 0, "pin every group's scattering ratio sigs/sigt to this value (0 = library defaults)")
	epsi := fs.Float64("epsi", 0, "convergence tolerance")
	iitm := fs.Int("iitm", 0, "max inner iterations per outer")
	oitm := fs.Int("oitm", 0, "max outer iterations")
	npey := fs.Int("npey", 0, "rank grid Y (block Jacobi)")
	npez := fs.Int("npez", 0, "rank grid Z (block Jacobi)")
	threads := fs.Int("threads", 0, "worker threads per rank")
	scheme := fs.String("scheme", "", "concurrency scheme name")
	solver := fs.String("solver", "", "local solver: GE or DGESV")
	force := fs.Bool("force-iterations", false, "run exactly iitm x oitm sweeps (timing mode)")
	fdRun := fs.Bool("fd", false, "run the finite-difference SNAP baseline instead")
	deadline := fs.Float64("deadline", 0, "wall-clock deadline in seconds; the run fails with a structured error instead of hanging (unset = none)")
	fs.TextVar(&failureMode, "failure-policy", failureMode, "pipelined sweep failure handling: fail, retry or degrade (multi-rank pipelined runs only)")
	retries := fs.Int("retries", 2, "max sweep retries under -failure-policy retry/degrade")
	backoff := fs.Duration("backoff", 5*time.Millisecond, "base backoff between sweep retries")
	health := fs.Bool("health", false, "scan the flux for NaN/Inf and divergence every inner iteration")
	cacheStats := fs.Bool("cache-stats", false, "solve twice through one artifact cache and report build reuse (single-domain only)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := validateFlags(fs, *deadline, *retries, *backoff, *twist, *periods, *epsi, *scatRatio); err != nil {
		return err
	}

	deck := snapinput.Default()
	if *deckPath != "" {
		f, err := os.Open(*deckPath)
		if err != nil {
			return err
		}
		defer f.Close()
		deck, err = snapinput.Parse(f)
		if err != nil {
			return err
		}
	}
	// Flag overrides.
	overrideInt := func(dst *int, v int) {
		if v > 0 {
			*dst = v
		}
	}
	overrideInt(&deck.NX, *nx)
	// -nx alone means a cube; explicit -ny/-nz refine it.
	if *nx > 0 && *ny == 0 {
		deck.NY = *nx
	}
	if *nx > 0 && *nz == 0 {
		deck.NZ = *nx
	}
	overrideInt(&deck.NY, *ny)
	overrideInt(&deck.NZ, *nz)
	overrideInt(&deck.NAng, *nang)
	overrideInt(&deck.NG, *ng)
	overrideInt(&deck.Order, *order)
	overrideInt(&deck.IITM, *iitm)
	overrideInt(&deck.OITM, *oitm)
	overrideInt(&deck.NPEY, *npey)
	overrideInt(&deck.NPEZ, *npez)
	overrideInt(&deck.Threads, *threads)
	if *twist >= 0 {
		deck.Twist = *twist
	}
	if *epsi > 0 {
		deck.Epsi = *epsi
	}
	if *scheme != "" {
		deck.Scheme = *scheme
	}
	if *solver != "" {
		deck.Solver = *solver
	}
	if err := deck.Validate(); err != nil {
		return err
	}

	prob := unsnap.Problem{
		NX: deck.NX, NY: deck.NY, NZ: deck.NZ,
		LX: deck.LX, LY: deck.LY, LZ: deck.LZ,
		Twist: deck.Twist, TwistPeriods: *periods,
		MatOpt: deck.MatOpt, SrcOpt: deck.SrcOpt,
		Order: deck.Order, AnglesPerOctant: deck.NAng, Groups: deck.NG,
		PGCPolar: deck.PGCPolar, PGCAzi: deck.PGCAzi,
		ScatOrder: deck.ScatOrder,
		ScatRatio: *scatRatio,
	}
	var err error
	if opts.Scheme, err = unsnap.ParseScheme(deck.Scheme); err != nil {
		return err
	}
	if err = opts.Solver.UnmarshalText([]byte(deck.Solver)); err != nil {
		return err
	}
	opts.Threads, opts.Epsi, opts.MaxInners, opts.MaxOuters = deck.Threads, deck.Epsi, deck.IITM, deck.OITM
	opts.ForceIterations, opts.Instrument, opts.AllowCycles = *force, true, *allowCycles
	opts.Reflect = [3]bool{deck.ReflX, deck.ReflY, deck.ReflZ}
	if *deadline > 0 {
		opts.Deadline = time.Duration(*deadline * float64(time.Second))
	}
	opts.HealthChecks = *health
	if failureMode != unsnap.FailFast { // FailFast is the zero policy
		opts.FailurePolicy = unsnap.FailurePolicy{Mode: failureMode, MaxRetries: *retries, Backoff: *backoff}
	}

	fmt.Println("UnSNAP — discontinuous Galerkin Sn transport on unstructured meshes")
	twistDesc := ""
	if prob.TwistPeriods > 0 {
		twistDesc = fmt.Sprintf(" oscillating over %g periods", prob.TwistPeriods)
	}
	fmt.Printf("  grid %dx%dx%d  extents %gx%gx%g  twist %g rad%s\n",
		prob.NX, prob.NY, prob.NZ, prob.LX, prob.LY, prob.LZ, prob.Twist, twistDesc)
	fmt.Printf("  order %d (%d nodes/element)  %d angles/octant (%d total)  %d groups\n",
		prob.Order, (prob.Order+1)*(prob.Order+1)*(prob.Order+1),
		prob.AnglesPerOctant, 8*prob.AnglesPerOctant, prob.Groups)
	fmt.Printf("  scheme %s  solver %s  epsi %.1e  iitm %d  oitm %d\n",
		opts.Scheme, opts.Solver, deck.Epsi, deck.IITM, deck.OITM)
	if opts.AllowCycles {
		fmt.Printf("  cycles allowed  cycle-order %s\n", opts.CycleOrder)
	}
	if opts.Accelerate != unsnap.AccelNone || prob.ScatRatio != 0 {
		ratioDesc := "library defaults"
		if prob.ScatRatio != 0 {
			ratioDesc = fmt.Sprintf("%g", prob.ScatRatio)
		}
		fmt.Printf("  acceleration %s  scattering ratio %s\n", opts.Accelerate, ratioDesc)
	}

	switch {
	case *cacheStats:
		if *fdRun || deck.NPEY*deck.NPEZ > 1 {
			return fmt.Errorf("-cache-stats is single-domain only")
		}
		return runCacheStats(prob, opts)
	case *fdRun:
		return runFD(prob, opts, deck.Fixup)
	case deck.NPEY*deck.NPEZ > 1:
		return runDistributed(prob, opts, deck.NPEY, deck.NPEZ)
	default:
		return runSingle(prob, opts)
	}
}

// validateFlags rejects malformed flag values with one-line structured
// errors before anything downstream can choke on them. Only explicitly
// set flags are checked (fs.Visit), so defaults that mean "unset" pass.
func validateFlags(fs *flag.FlagSet, deadline float64, retries int, backoff time.Duration, twist, periods, epsi, scatRatio float64) error {
	var err error
	fs.Visit(func(f *flag.Flag) {
		if err != nil {
			return
		}
		switch f.Name {
		case "nx", "ny", "nz", "nang", "ng", "order", "iitm", "oitm", "npey", "npez", "threads":
			if g, ok := f.Value.(flag.Getter); ok {
				if v, ok := g.Get().(int); ok && v < 1 {
					err = fmt.Errorf("-%s %d invalid (need a positive integer)", f.Name, v)
				}
			}
		case "deadline":
			if math.IsNaN(deadline) || math.IsInf(deadline, 0) || deadline <= 0 {
				err = fmt.Errorf("-deadline %v invalid (need a finite positive number of seconds)", deadline)
			}
		case "twist":
			if math.IsNaN(twist) || math.IsInf(twist, 0) {
				err = fmt.Errorf("-twist %v invalid (need a finite angle in radians)", twist)
			}
		case "periods":
			if math.IsNaN(periods) || math.IsInf(periods, 0) || periods < 0 {
				err = fmt.Errorf("-periods %v invalid (need a finite non-negative count)", periods)
			}
		case "epsi":
			if math.IsNaN(epsi) || math.IsInf(epsi, 0) || epsi <= 0 {
				err = fmt.Errorf("-epsi %v invalid (need a finite positive tolerance)", epsi)
			}
		case "scat-ratio":
			if math.IsNaN(scatRatio) || !(scatRatio > 0 && scatRatio < 1) {
				err = fmt.Errorf("-scat-ratio %v invalid (need 0 < ratio < 1)", scatRatio)
			}
		}
	})
	if err != nil {
		return err
	}
	if retries < 0 {
		return fmt.Errorf("-retries %d invalid (need a non-negative count)", retries)
	}
	if backoff < 0 {
		return fmt.Errorf("-backoff %v invalid (need a non-negative duration)", backoff)
	}
	return nil
}

func printResult(res *unsnap.Result, groups int, flux func(int) float64) {
	fmt.Println("iteration monitor:")
	for i, df := range res.DFHistory {
		fmt.Printf("  inner %3d  df %.6e\n", i+1, df)
	}
	fmt.Printf("outers %d  inners %d  converged %v  final df %.3e\n",
		res.Outers, res.Inners, res.Converged, res.FinalDF)
	fmt.Printf("balance: source %.6f  absorption %.6f  leakage %.6f  residual %.3e\n",
		res.Balance.Source, res.Balance.Absorption, res.Balance.Leakage, res.Balance.Residual)
	fmt.Println("flux spectrum (volume-integrated scalar flux per group):")
	for g := 0; g < groups; g++ {
		fmt.Printf("  group %3d  %.8f\n", g, flux(g))
	}
	fmt.Printf("timing: setup %.3fs  sweep %.3fs  assembly %.3fs  solve %.3fs\n",
		res.SetupSeconds, res.SweepSeconds, res.AssembleSeconds, res.SolveSeconds)
}

func runSingle(prob unsnap.Problem, opts unsnap.Options) error {
	s, err := unsnap.NewSolver(prob, opts)
	if err != nil {
		return err
	}
	distinct, buckets, maxB, avgB := s.ScheduleStats()
	fmt.Printf("schedule: %d distinct topologies, %d buckets, max bucket %d, mean %.1f\n",
		distinct, buckets, maxB, avgB)
	res, err := s.Run()
	if err != nil {
		return err
	}
	printResult(res, prob.Groups, s.FluxIntegral)
	return nil
}

func runDistributed(prob unsnap.Problem, opts unsnap.Options, py, pz int) error {
	d, err := unsnap.NewDistributed(prob, opts, py, pz)
	if err != nil {
		return err
	}
	defer d.Close()
	fmt.Printf("distributed (%s protocol): %d ranks (%dx%d KBA grid)\n", opts.Protocol, d.NumRanks(), py, pz)
	res, err := d.Run()
	if err != nil {
		return err
	}
	if res.Attempts > 1 || res.Degraded {
		fmt.Printf("failure policy: %d sweep attempts, degraded to lagged: %v\n", res.Attempts, res.Degraded)
	}
	printResult(res, prob.Groups, d.FluxIntegral)
	return nil
}

// runCacheStats demonstrates the problem-build / solve split: two solvers
// for the same problem share one artifact-cache entry, so the second
// construction skips mesh matching, face classification and cycle
// condensation entirely. It prints the cache counters and a greppable
// summary line asserting the warm hit and the bitwise flux match.
func runCacheStats(prob unsnap.Problem, opts unsnap.Options) error {
	opts.Cache = unsnap.NewCache(0)

	solve := func() (*unsnap.Solver, *unsnap.Result, time.Duration, error) {
		t0 := time.Now()
		s, err := unsnap.NewSolver(prob, opts)
		build := time.Since(t0)
		if err != nil {
			return nil, nil, 0, err
		}
		res, err := s.Run()
		if err != nil {
			s.Close()
			return nil, nil, 0, err
		}
		return s, res, build, nil
	}

	s1, res1, cold, err := solve()
	if err != nil {
		return err
	}
	defer s1.Close()
	statsCold := opts.Cache.Stats()

	s2, res2, warm, err := solve()
	if err != nil {
		return err
	}
	defer s2.Close()
	stats := opts.Cache.Stats()

	match := true
	for g := 0; g < prob.Groups; g++ {
		if s1.FluxIntegral(g) != s2.FluxIntegral(g) {
			match = false
		}
	}
	if res1.Inners != res2.Inners || res1.Outers != res2.Outers {
		match = false
	}

	fmt.Printf("artifact cache: %d entries, %d bytes\n", stats.Entries, stats.Bytes)
	fmt.Printf("  cold solve: build %v, hits %d, misses %d\n", cold, statsCold.Hits, statsCold.Misses)
	fmt.Printf("  warm solve: build %v, hits %d, misses %d, evictions %d\n",
		warm, stats.Hits, stats.Misses, stats.Evictions)
	fmt.Printf("  shared artifact: %v (same pointer: %v)\n", s1.Artifact().Key, s1.Artifact() == s2.Artifact())
	fmt.Printf("cache-stats: warm hit %v, flux bitwise match %v\n",
		stats.Hits > statsCold.Hits && stats.Misses == statsCold.Misses, match)
	return nil
}

func runFD(prob unsnap.Problem, opts unsnap.Options, fixup bool) error {
	s, err := unsnap.NewFD(prob, opts, fixup)
	if err != nil {
		return err
	}
	fmt.Println("finite-difference (diamond difference) SNAP baseline")
	res, err := s.Run()
	if err != nil {
		return err
	}
	printResult(res, prob.Groups, s.FluxIntegral)
	return nil
}
