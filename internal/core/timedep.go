package core

import (
	"context"
	"fmt"
	"time"
)

// TimeConfig enables SNAP's time-dependent mode: backward-Euler (BDF1)
// time stepping of the transport equation. Each step solves a steady
// problem with the total cross section augmented by 1/(v_g dt) and an
// extra angular source psi_prev/(v_g dt); SNAP calls this quantity vdelt.
type TimeConfig struct {
	Steps    int
	Dt       float64
	Velocity []float64 // per-group particle speed, len NumGroups
}

func (tc *TimeConfig) validate(groups int) error {
	if tc.Steps < 1 {
		return fmt.Errorf("core: time stepping needs at least 1 step, got %d", tc.Steps)
	}
	if tc.Dt <= 0 {
		return fmt.Errorf("core: time step must be positive, got %g", tc.Dt)
	}
	if len(tc.Velocity) != groups {
		return fmt.Errorf("core: need %d group velocities, got %d", groups, len(tc.Velocity))
	}
	for g, v := range tc.Velocity {
		if v <= 0 {
			return fmt.Errorf("core: group %d velocity must be positive, got %g", g, v)
		}
	}
	return nil
}

// DefaultVelocities returns SNAP-style synthetic group speeds: highest
// energy group fastest, decreasing with group index.
func DefaultVelocities(groups int) []float64 {
	v := make([]float64, groups)
	for g := range v {
		v[g] = 1 / (1 + 0.1*float64(g))
	}
	return v
}

// vdelt returns 1/(v_g dt), the time-absorption term of group g.
func (s *Solver) vdelt(g int) float64 {
	tc := s.cfg.Time
	return 1 / (tc.Velocity[g] * tc.Dt)
}

// StepResult records one time step of a time-dependent run.
type StepResult struct {
	Step      int
	Inners    int
	Converged bool
	FinalDF   float64
	// FluxIntegral per group at the end of the step.
	FluxIntegral []float64
}

// RunTimeDependent executes Config.Time.Steps backward-Euler steps from
// the zero initial condition, converging the scattering source within each
// step exactly as the steady Run does — every step is one RunContext, so
// ctx bounds the whole march and is checked between inners. The per-step
// records let callers watch the approach to steady state.
func (s *Solver) RunTimeDependent(ctx context.Context) ([]StepResult, error) {
	tc := s.cfg.Time
	if tc == nil {
		return nil, fmt.Errorf("core: RunTimeDependent requires Config.Time")
	}
	steps := make([]StepResult, 0, tc.Steps)
	for step := 0; step < tc.Steps; step++ {
		res, err := s.RunContext(ctx)
		if err != nil {
			return nil, err
		}
		s.storePrevStep()
		sr := StepResult{
			Step: step, Inners: res.Inners,
			Converged: res.Converged, FinalDF: res.FinalDF,
			FluxIntegral: make([]float64, s.nG),
		}
		for g := 0; g < s.nG; g++ {
			sr.FluxIntegral[g] = s.FluxIntegral(g)
		}
		steps = append(steps, sr)
	}
	return steps, nil
}

// storePrevStep records the step that just converged as the next step's
// time source. The tasks need only M psi_prev (loadSource), so that is
// what is kept, in place of psi_prev itself; forming it is RHS assembly
// and is charged to the workers' assembly timers like the per-inner
// source pass.
func (s *Solver) storePrevStep() {
	copy(s.mPrev, s.psi)
	s.pool.run(s.prevStepRoundFn)
}

// prevStep is storePrevStep's pass over (angle a, element e).
func (s *Solver) prevStep(st *workerState, a, e int) {
	var t0 time.Time
	if s.cfg.Instrument {
		t0 = time.Now()
	}
	for g := 0; g < s.nG; g++ {
		massApply(s.mPrev[s.psiIdx(a, e, g):], s.stride, s.em[e].Mass, st.tmp)
	}
	if s.cfg.Instrument {
		st.asmNS += time.Since(t0).Nanoseconds()
	}
}
