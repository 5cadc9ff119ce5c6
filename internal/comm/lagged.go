package comm

import (
	"context"
	"errors"
	"fmt"
	"time"

	"unsnap/internal/core"
	"unsnap/internal/mesh"
)

// This file is the lagged (paper-faithful) protocol: parallel block
// Jacobi in BSP super-steps — sweep | barrier | bulk halo exchange |
// barrier — with every rank reading the previous inner iteration's halo
// fluxes through a synchronous boundary callback.

// halo is the incoming angular flux storage of one remote face:
// data[(a*nG+g)*nF + k] holds the value for our face node k.
type halo struct {
	ref  mesh.RemoteRef
	perm []int // our face-node k -> peer face-node index (into peer order)
	data []float64
}

// laggedState holds the per-rank halo buffers of the BSP exchange.
type laggedState struct {
	halos   []map[mesh.FaceKey]*halo
	scratch [][]float64 // per-rank gather buffer (peer face ordering)
}

// buildLagged wires the halo buffers into each rank solver's
// boundary-flux callback.
func (d *Driver) buildLagged() error {
	lag := &laggedState{
		halos:   make([]map[mesh.FaceKey]*halo, len(d.part.Subs)),
		scratch: make([][]float64, len(d.part.Subs)),
	}
	d.lag = lag
	for r := range d.part.Subs {
		lag.halos[r] = make(map[mesh.FaceKey]*halo, len(d.remote[r]))
		lag.scratch[r] = make([]float64, d.nF)
		for _, rf := range d.remote[r] {
			lag.halos[r][rf.Key] = &halo{
				ref:  rf.Ref,
				perm: rf.Perm,
				data: make([]float64, d.nA*d.nG*d.nF),
			}
		}
	}
	for r := range d.part.Subs {
		hs := lag.halos[r]
		boundary := func(a, e, f, g int, buf []float64) []float64 {
			h, ok := hs[mesh.FaceKey{Elem: e, Face: f}]
			if !ok {
				return nil // true domain boundary: vacuum
			}
			off := (a*d.nG + g) * d.nF
			return h.data[off : off+d.nF]
		}
		cfg := d.rankConfig(r)
		cfg.Boundary = boundary
		s, err := core.New(cfg)
		if err != nil {
			return fmt.Errorf("comm: building rank %d: %w", r, err)
		}
		d.solvers[r] = s
	}
	return nil
}

// exchange refreshes every halo buffer from the owning peer's current
// angular flux. It runs between sweeps (BSP), so the peers' flux arrays
// are stable.
func (d *Driver) exchange() {
	_ = d.forEachRank(func(r int) error {
		buf := d.lag.scratch[r]
		for _, h := range d.lag.halos[r] {
			peer := d.solvers[h.ref.Rank]
			for a := 0; a < d.nA; a++ {
				for g := 0; g < d.nG; g++ {
					peer.PsiFaceValues(a, h.ref.Elem, g, h.ref.Face, buf)
					off := (a*d.nG + g) * d.nF
					for k := 0; k < d.nF; k++ {
						h.data[off+k] = buf[h.perm[k]]
					}
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
