package comm

import (
	"context"
	"errors"
	"fmt"
	"time"

	"unsnap/internal/core"
)

// This file is the lagged (paper-faithful) protocol: parallel block
// Jacobi in BSP super-steps — sweep | barrier | bulk halo exchange |
// barrier. Every rank declares its cross-rank faces External, like a
// pipelined rank, and sweeps self-driven (SweepAllAngles) against inflow
// slots the exchange filled with the previous inner iteration's flux.

// buildLagged builds one External-coupled solver per rank.
func (d *Driver) buildLagged() error {
	for r := range d.solvers {
		s, err := core.New(d.rankConfig(r))
		if err != nil {
			return fmt.Errorf("comm: building rank %d: %w", r, err)
		}
		d.solvers[r] = s
	}
	return nil
}

// exchange refreshes every rank's External inflow slots from the owning
// peer's current angular flux: for each remote face, the ordinates that
// flow into this rank through it, through the same gather and permutation
// as a pipelined transfer. It runs between sweeps (BSP), so the peers' flux arrays are
// stable.
func (d *Driver) exchange() {
	angles := d.cfg.Rank.Quad.Angles
	_ = d.forEachRank(func(r int) error {
		s := d.solvers[r]
		buf := make([]float64, d.nG*d.nF)
		for i, rf := range d.remote[r] {
			peer := d.solvers[rf.Ref.Rank]
			for a := range angles {
				if core.ExternalInflow(angles[a].Omega, rf.Normal, rf.Canonical) {
					d.gatherFace(peer, a, rf.Ref.Elem, rf.Ref.Face, buf)
					d.permuteInflow(s.ExternalInflowBuffer(i, a), buf, rf.Perm)
				}
			}
		}
		return nil
	})
}

// laggedStepper is the block Jacobi iteration's core.Stepper: every step
// is the same step on all ranks at once, and the flux changes are the
// maxima over the ranks. sweep accumulates the wall time of the concurrent
// super-steps.
type laggedStepper struct {
	d     *Driver
	dfs   []float64
	sweep time.Duration
}

func (l *laggedStepper) BeginOuter() {
	_ = l.d.forEachRank(func(r int) error {
		l.d.solvers[r].BeginOuter()
		return nil
	})
}

// Inner is one BSP super-step: every rank sources, sweeps against the
// previous inner's halos and closes its inner (FinishInner: the
// acceleration is rank-local — each rank corrects its own block with its
// own diffusion operator, vacuum Marshak closure at the rank interfaces;
// the correction vanishes at the fixed point, so the converged flux is the
// lagged protocol's usual answer), then the halos are exchanged.
func (l *laggedStepper) Inner() (float64, error) {
	d := l.d
	t0 := time.Now()
	err := d.forEachRank(func(r int) error {
		s := d.solvers[r]
		s.PrepareInner()
		err := s.SweepAllAngles()
		if err == nil {
			l.dfs[r], err = s.FinishInner()
		}
		if err != nil {
			return fmt.Errorf("comm: rank %d: %w", r, err)
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	l.sweep += time.Since(t0)
	d.exchange()
	return maxOf(l.dfs), nil
}

func (l *laggedStepper) OuterChange() float64 {
	for r, s := range l.d.solvers {
		l.dfs[r] = s.OuterChange()
	}
	return maxOf(l.dfs)
}

func maxOf(vs []float64) float64 {
	m := 0.0
	for _, v := range vs {
		if v > m {
			m = v
		}
	}
	return m
}

// runLagged executes the block Jacobi iteration: core.Iterate over the
// laggedStepper. BSP sweeps cannot block on a peer, so cancellation and
// Config.Deadline — a timeout on the iteration's context — are answered
// between super-steps, the natural synchronisation points of the protocol.
// The expiry of that timeout is reported as a rankless *SweepError.
func (d *Driver) runLagged(ctx context.Context) (*Result, error) {
	ictx := ctx
	if d.cfg.Deadline > 0 {
		var cancel context.CancelFunc
		ictx, cancel = context.WithTimeout(ctx, d.cfg.Deadline)
		defer cancel()
	}
	st := &laggedStepper{d: d, dfs: make([]float64, len(d.solvers))}
	res, err := core.Iterate(ictx, d.cfg.Rank, st, nil)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil {
			err = &SweepError{Rank: -1, Peer: -1, Ordinate: -1, Elem: -1,
				Deadline: d.cfg.Deadline, Cause: context.DeadlineExceeded}
		}
		return nil, err
	}
	res.SweepTime = st.sweep
	return &Result{Result: *res}, nil
}
