package core

import (
	"context"
	"fmt"
	"math"
	"time"
)

// Progress reports one completed inner iteration of a Run to the
// Config.Progress hook: which outer/inner the iteration was, the running
// total of inners this Run, and the flux change the iteration achieved.
// The hook runs synchronously between inners on the iteration goroutine,
// so a slow hook slows the solve — implementations should hand the event
// off (a buffered channel, an append under a short lock) and return.
type Progress struct {
	Outer  int     // 1-based outer iteration index
	Inner  int     // 1-based inner index within the outer
	Inners int     // total inners completed so far in this Run
	DF     float64 // pointwise max relative flux change of this inner
}

// Result summarises a Run.
type Result struct {
	Outers    int  // outer iterations performed
	Inners    int  // total inner iterations performed
	Converged bool // outer convergence reached before MaxOuters
	FinalDF   float64
	DFHistory []float64 // pointwise max relative change after each inner

	SetupTime    time.Duration
	SweepTime    time.Duration // total wall time in SweepAllAngles
	AssembleTime time.Duration // per-solve assembly time (Instrument only)
	SolveTime    time.Duration // per-solve dense-solve time (Instrument only)

	Balance Balance
}

// ComputeOuterSource rebuilds the per-group source from the fixed source
// and the group-to-group scattering of the previous outer's scalar flux
// (Jacobi over groups, as in SNAP). With P1 scattering it also rebuilds
// the first-moment source from the lagged current.
func (s *Solver) ComputeOuterSource() { s.pool.run(s.outerSrcRoundFn) }

// outerSource is ComputeOuterSource's pass over element e.
func (s *Solver) outerSource(e int) {
	lib := s.cfg.Lib
	p1 := s.cfg.ScatOrder >= 1
	mat := s.cfg.Mesh.Elems[e].Material
	q := s.cfg.Mesh.Elems[e].Source
	for g := 0; g < s.nG; g++ {
		base := s.phiIdx(e, g)
		dst := s.qOuter[base : base+s.nN]
		for i := range dst {
			dst[i] = q
		}
		if p1 {
			for d := 0; d < 3; d++ {
				dst1 := s.qOuter1[d][base : base+s.nN]
				for i := range dst1 {
					dst1[i] = 0
				}
			}
		}
		for gp := 0; gp < s.nG; gp++ {
			if gp == g {
				continue
			}
			srcBase := s.phiIdx(e, gp)
			if sc := lib.Scatter[mat][gp][g]; sc != 0 {
				src := s.phi[srcBase : srcBase+s.nN]
				for i := range dst {
					dst[i] += sc * src[i]
				}
			}
			if p1 {
				if sc1 := lib.ScatterP1[mat][gp][g]; sc1 != 0 {
					for d := 0; d < 3; d++ {
						dst1 := s.qOuter1[d][base : base+s.nN]
						src1 := s.cur[d][srcBase : srcBase+s.nN]
						for i := range dst1 {
							dst1[i] += sc1 * src1[i]
						}
					}
				}
			}
		}
	}
}

// PrepareInner forms the total source for the next inner iteration
// (qOuter plus within-group scattering of the current flux), snapshots the
// flux for the convergence test, and zeroes the accumulators (including
// the P1 current when anisotropic scattering is on).
func (s *Solver) PrepareInner() { s.pool.run(s.prepRoundFn) }

// convergenceFloor guards the relative-change denominator, mirroring
// SNAP's tolr.
const convergenceFloor = 1e-12

// MaxRelChange returns the pointwise maximum relative change of the scalar
// flux against the PrepareInner snapshot (SNAP's df convergence monitor).
func (s *Solver) MaxRelChange() float64 { return s.MaxRelDiff(s.phiOld) }

// Stepper is what a source iteration does; Iterate decides how often. The
// single-domain Solver is one, the lagged driver wraps all its ranks in
// one, and every rank of a pipelined run is one.
type Stepper interface {
	// BeginOuter snapshots the scalar flux for the outer convergence test
	// and forms the outer (group-to-group) source.
	BeginOuter()
	// Inner runs one inner iteration and returns its flux change.
	Inner() (df float64, err error)
	// OuterChange returns the flux change since BeginOuter.
	OuterChange() float64
}

// Iterate is the source iteration — the only place that knows how a solve
// iterates and when it stops: up to MaxOuters outers of up to MaxInners
// inners each, an inner exit once the flux change drops below Epsi, an
// outer exit once the change across the outer is within 10x Epsi (SNAP
// uses a looser outer criterion), neither exit under ForceIterations. It
// reads Epsi, MaxInners, MaxOuters (defaulted as New defaults them),
// ForceIterations and Progress from cfg and fills the
// iteration record of the Result (Outers, Inners, Converged, FinalDF,
// DFHistory); timings and balance are the caller's.
//
// ctx is checked before every inner, so cancellation is answered within
// one inner and surfaces wrapped around ctx.Err(). The sequence of flux
// changes st reports is always watched for divergence (the NaN/Inf scan
// of the flux itself is part of a solver's inner, see FinishInner).
//
// agree, when non-nil, is a max-reduction across concurrent Iterate calls
// that must take identical decisions (the ranks of a pipelined run): every
// value a convergence test reads goes through it first. A forced run takes
// no decisions and never calls it.
func Iterate(ctx context.Context, cfg Config, st Stepper, agree func(float64) (float64, error)) (*Result, error) {
	cfg = cfg.withDefaults()
	if agree == nil || cfg.ForceIterations {
		agree = func(v float64) (float64, error) { return v, nil }
	}
	res := &Result{}
	var mon DivergenceMonitor
	for outer := 1; outer <= cfg.MaxOuters; outer++ {
		st.BeginOuter()
		res.Outers++
		for inner := 1; inner <= cfg.MaxInners; inner++ {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("core: run cancelled after %d inners: %w", res.Inners, err)
			}
			df, err := st.Inner()
			if err != nil {
				return nil, err
			}
			if err := mon.Observe(df); err != nil {
				return nil, err
			}
			if df, err = agree(df); err != nil {
				return nil, err
			}
			res.DFHistory = append(res.DFHistory, df)
			res.FinalDF = df
			res.Inners++
			if cfg.Progress != nil {
				cfg.Progress(Progress{Outer: outer, Inner: inner, Inners: res.Inners, DF: df})
			}
			if !cfg.ForceIterations && df < cfg.Epsi {
				break
			}
		}
		if cfg.ForceIterations {
			continue
		}
		odf, err := agree(st.OuterChange())
		if err != nil {
			return nil, err
		}
		if odf <= 10*cfg.Epsi {
			res.Converged = true
			break
		}
	}
	return res, nil
}

// BeginOuter, Inner and OuterChange make the solver the Stepper of its own
// Run.
func (s *Solver) BeginOuter() {
	s.outerPrev = s.PhiSnapshot(s.outerPrev)
	s.ComputeOuterSource()
}

// Inner runs one single-domain inner iteration: source, sweep, and
// FinishInner. Only the sweep counts towards Result.SweepTime.
func (s *Solver) Inner() (float64, error) {
	s.PrepareInner()
	t0 := time.Now()
	if err := s.SweepAllAngles(); err != nil {
		return 0, err
	}
	s.sweepTime += time.Since(t0)
	return s.FinishInner()
}

// FinishInner closes an inner iteration whose sweep has completed — under
// any driver, however the sweep was run: the configured acceleration, the
// NaN/Inf scan of the flux, and the inner's flux change.
func (s *Solver) FinishInner() (float64, error) {
	if err := s.Accelerate(); err != nil {
		return 0, err
	}
	if err := s.ScanFluxHealth(); err != nil {
		return 0, err
	}
	return s.MaxRelChange(), nil
}

// OuterChange measures the flux change across the whole outer iteration.
func (s *Solver) OuterChange() float64 { return s.MaxRelDiff(s.outerPrev) }

// Run executes the full iteration (see Iterate) and returns the iteration
// record together with the particle balance of the final flux.
func (s *Solver) Run() (*Result, error) { return s.RunContext(context.Background()) }

// RunContext is Run under a context: cancellation (or a deadline on ctx)
// is checked between inner iterations — a single-domain sweep cannot
// block on anything external, so per-inner granularity bounds the
// response time by one sweep — and surfaces as ctx.Err(). A NaN/Inf flux
// or a diverging flux-change sequence is reported as a typed
// *HealthError.
func (s *Solver) RunContext(ctx context.Context) (*Result, error) {
	s.asmNS, s.solveNS, s.sweepTime = 0, 0, 0
	res, err := Iterate(ctx, s.cfg, s, nil)
	if err != nil {
		return nil, err
	}
	res.SetupTime = s.setupTime
	res.SweepTime = s.sweepTime
	res.AssembleTime = time.Duration(s.asmNS)
	res.SolveTime = time.Duration(s.solveNS)
	res.Balance = s.ComputeBalance()
	return res, nil
}

// PhiSnapshot copies the scalar flux into dst (allocating when dst is too
// small) and returns the snapshot. The layout matches MaxRelDiff.
func (s *Solver) PhiSnapshot(dst []float64) []float64 {
	if len(dst) < len(s.phi) {
		dst = make([]float64, len(s.phi))
	}
	copy(dst, s.phi)
	return dst[:len(s.phi)]
}

// MaxRelDiff returns the pointwise maximum relative difference between the
// current scalar flux and a PhiSnapshot.
func (s *Solver) MaxRelDiff(prev []float64) float64 {
	df := 0.0
	for i, v := range s.phi {
		old := prev[i]
		var d float64
		if math.Abs(old) > convergenceFloor {
			d = math.Abs((v - old) / old)
		} else {
			d = math.Abs(v - old)
		}
		if d > df {
			df = d
		}
	}
	return df
}
