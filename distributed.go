package unsnap

import (
	"context"
	"fmt"

	"unsnap/internal/comm"
)

// Distributed is a multi-rank solver: the mesh is split over a PY x PZ
// rank grid (KBA-style, Y and Z dimensions) and the ranks — goroutines
// standing in for the paper's MPI processes — are coupled by the selected
// Options.Protocol: lagged block Jacobi with a halo exchange after every
// inner iteration (the paper's scheme, the default), or the pipelined
// protocol that streams angular flux across ranks mid-sweep so the whole
// partitioned mesh executes one cross-rank task graph per sweep.
type Distributed struct {
	inner *comm.Driver
	prob  Problem
}

// NewDistributed builds a multi-rank solver over py x pz ranks. Options
// that cannot apply under the selected protocol are rejected up front:
// the pipelined protocol needs the engine scheme, while the lagged one
// runs any scheme (its ranks sweep self-driven between halo exchanges).
// Cyclic meshes need AllowCycles under either protocol; the pipelined one
// then distributes a single global cycle condensation so its flux still
// matches the single-domain solver exactly.
func NewDistributed(p Problem, o Options, py, pz int) (*Distributed, error) {
	if o.Reflect != [3]bool{} {
		return nil, fmt.Errorf("unsnap: reflective boundaries are only supported by the single-domain solver")
	}
	if o.TimeSteps > 0 {
		return nil, fmt.Errorf("unsnap: time-dependent mode is only supported by the single-domain solver")
	}
	if err := validateOptions(o, true); err != nil {
		return nil, err
	}
	m, q, lib, err := buildParts(p)
	if err != nil {
		return nil, err
	}
	rank := coreConfig(p, o, nil, q, lib)
	d, err := comm.New(comm.Config{
		Mesh: m, PY: py, PZ: pz,
		Protocol: o.Protocol,
		Rank:     rank,
		Deadline: o.Deadline, Policy: o.FailurePolicy, Fault: o.Fault,
	})
	if err != nil {
		return nil, err
	}
	return &Distributed{inner: d, prob: p}, nil
}

// Run executes the partitioned iteration.
func (d *Distributed) Run() (*Result, error) {
	return d.RunContext(context.Background())
}

// RunContext executes the partitioned iteration under a context.
// Cancellation — and Options.Deadline, enforced by the driver itself —
// aborts the sweep cleanly: every rank unwinds, no goroutines leak, and
// the error is structured (*SweepError for a timed-out sweep, naming the
// stuck rank and edge). Under a retry/degrade FailurePolicy the returned
// Result reports how many attempts the run took and whether the driver
// has degraded to the lagged protocol.
func (d *Distributed) RunContext(ctx context.Context) (*Result, error) {
	r, err := d.inner.RunContext(ctx)
	if err != nil {
		return nil, err
	}
	res := fromCoreResult(&r.Result)
	res.Attempts, res.Degraded = r.Attempts, r.Degraded
	return res, nil
}

// Degraded reports whether a FailDegrade policy has permanently switched
// the driver to the lagged BSP protocol.
func (d *Distributed) Degraded() bool { return d.inner.Degraded() }

// NumRanks returns the number of ranks.
func (d *Distributed) NumRanks() int { return d.inner.NumRanks() }

// Close stops every rank's background sweep workers deterministically
// (otherwise an engine-backed run leaks ranks x (Threads-1) goroutines
// until the solvers are garbage collected). A CommPipelined Run still in
// flight is aborted and joined first — that Run returns an error — so
// under that protocol Close is safe to call mid-sweep; under CommLagged
// call Close only between runs. The solver remains usable: queries keep
// working and a later Run rebuilds the worker pools. Safe to call
// multiple times.
func (d *Distributed) Close() { d.inner.Close() }

// FluxIntegral sums the group-g flux integral over all ranks.
func (d *Distributed) FluxIntegral(g int) float64 { return d.inner.FluxIntegral(g) }

// Problem returns the problem this solver was built for.
func (d *Distributed) Problem() Problem { return d.prob }
