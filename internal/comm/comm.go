package comm

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"unsnap/internal/core"
	"unsnap/internal/enum"
	"unsnap/internal/fault"
	"unsnap/internal/fem"
	"unsnap/internal/mesh"
)

// errDriverClosed aborts a pipelined Run whose driver was Closed mid-run.
// It is terminal under every failure policy: Close's decision to stop the
// pools must not be undone by a retry.
var errDriverClosed = errors.New("comm: driver closed mid-run")

// Protocol selects the cross-rank communication scheme.
type Protocol int

const (
	// Lagged is the paper's BSP block Jacobi with halo fluxes lagged by
	// one inner iteration (the default).
	Lagged Protocol = iota
	// Pipelined streams angular flux across ranks mid-sweep, resolving
	// cross-rank dependencies in wavefront order.
	Pipelined
)

var protocolNames = []string{Lagged: "lagged", Pipelined: "pipelined"}

// String names the protocol.
func (p Protocol) String() string { return enum.Name(protocolNames, p) }

// MarshalText spells p as String does.
func (p Protocol) MarshalText() ([]byte, error) { return []byte(p.String()), nil }

// UnmarshalText parses a String spelling; the empty text is Lagged.
func (p *Protocol) UnmarshalText(text []byte) error { return enum.Unmarshal(protocolNames, p, text) }

// Config describes a partitioned run: the global mesh and rank grid, the
// protocol coupling the ranks, and one core.Config template stamped onto
// every rank.
type Config struct {
	Mesh   *mesh.Mesh
	PY, PZ int // rank grid (KBA-style: Y and Z split, X kept whole)

	// Protocol selects the halo scheme; see the package comment.
	Protocol Protocol

	// Rank is the solver-configuration template applied identically to
	// every rank: set the solver knobs — Order, Quad, Lib, Scheme,
	// Threads (per rank), Solver, Kernel, AllowCycles, CycleOrder,
	// PreAssembled, Epsi, MaxInners, MaxOuters, ForceIterations,
	// Instrument, ScatOrder, Accelerate, Progress (reported
	// once per inner) and Cache — exactly as for a single-domain
	// core.Config. Leave Mesh and the coupling fields (Reflect, External,
	// CycleLag/CycleLagKey, Artifact, Time) unset: the driver owns those
	// per rank and rejects a template that sets them. Rank.Cache, when
	// set, is consulted by every rank's build — ranks whose subdomains
	// share a topology and External faces share one artifact, and the
	// pipelined protocol's global condensation joins the same cache.
	//
	// Every engine-backed rank runs the fused cross-octant phase under
	// both protocols. Under the pipelined protocol one global SCC
	// condensation is computed up front (AllowCycles) and distributed via
	// each rank's CycleLag, preserving single-domain flux parity; under
	// the lagged protocol each rank condenses its own subdomain.
	Rank core.Config

	// Deadline bounds each Run (each attempt, under a retrying Policy):
	// a pipelined run that cannot complete within it — a peer stalled, a
	// halo message lost — is aborted by a watchdog and returns a
	// structured *SweepError naming the stuck rank, edge and ordinate
	// instead of hanging; a lagged run checks the budget between inners.
	// Zero disables the watchdog.
	Deadline time.Duration

	// Policy selects the response to a failed or timed-out pipelined
	// sweep: fail fast (default), retry from the zero iterate with
	// bounded backoff, or degrade to the lagged protocol after the
	// retries are exhausted. See FailurePolicy.
	Policy FailurePolicy

	// Fault installs a deterministic fault injector on the pipelined
	// transport (chaos tests and failure drills; see internal/fault). Nil
	// keeps the raw channel transport — the hot path pays nothing. A
	// non-nil schedule with no rules measures the injector's bookkeeping
	// overhead without injecting anything.
	Fault *fault.Schedule
}

// validate rejects protocol/knob combinations that could never apply,
// and Rank templates that set the per-rank fields the driver owns.
func (cfg Config) validate() error {
	switch {
	case cfg.Rank.Mesh != nil:
		return fmt.Errorf("comm: Rank.Mesh is set per rank by the driver; configure the global mesh via Config.Mesh")
	case cfg.Rank.Reflect != [3]bool{}:
		return fmt.Errorf("comm: Rank.Reflect is not supported: the partitioned driver does not reflect; cross-rank faces are declared External by the driver")
	case cfg.Rank.External != nil:
		return fmt.Errorf("comm: Rank.External is set per rank by the driver from the partition; it cannot be set in the template")
	case cfg.Rank.CycleLag != nil || cfg.Rank.CycleLagKey != "":
		return fmt.Errorf("comm: Rank.CycleLag is owned by the pipelined protocol's global condensation; it cannot be set in the template")
	case cfg.Rank.Artifact != nil:
		return fmt.Errorf("comm: Rank.Artifact cannot serve every subdomain; share builds across ranks via Rank.Cache instead")
	case cfg.Rank.Time != nil:
		return fmt.Errorf("comm: time-dependent mode is not supported under the partitioned driver")
	}
	switch cfg.Protocol {
	case Lagged:
	case Pipelined:
		if !cfg.Rank.Scheme.EngineBacked() {
			return fmt.Errorf("comm: the pipelined protocol requires an engine-backed scheme (%v is a bucket executor that cannot hold latent remote dependencies)", cfg.Rank.Scheme)
		}
	default:
		return fmt.Errorf("comm: unknown protocol %d", int(cfg.Protocol))
	}
	if cfg.Deadline < 0 {
		return fmt.Errorf("comm: negative deadline %v", cfg.Deadline)
	}
	if err := cfg.Policy.validate(); err != nil {
		return err
	}
	if cfg.Fault != nil {
		if cfg.Protocol != Pipelined {
			return fmt.Errorf("comm: fault injection acts on the pipelined transport; the %v protocol has none", cfg.Protocol)
		}
		if err := cfg.Fault.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Driver owns the per-rank solvers and the protocol state coupling them.
type Driver struct {
	cfg     Config
	part    *mesh.Partition
	re      *fem.RefElement
	remote  [][]mesh.RemoteFace
	solvers []*core.Solver

	nG, nA, nF int

	pipe *pipelinedState
	inj  *fault.Injector // nil without Config.Fault

	// Run/Close lifecycle of the pipelined protocol: Close during an
	// active run aborts it and waits for the rank goroutines to unwind
	// before stopping the solver pools. closeSeq counts Closes so a
	// retrying Run can tell one landed between attempts and stop instead
	// of resurrecting the pools; degraded is the sticky FailDegrade
	// demotion to the lagged protocol.
	mu       sync.Mutex
	runAbort func()
	runDone  chan struct{}
	closeSeq int
	degraded bool
}

// New partitions the mesh and builds one core solver per rank, wired for
// the configured protocol.
func New(cfg Config) (*Driver, error) {
	if cfg.Mesh == nil {
		return nil, fmt.Errorf("comm: config needs a mesh")
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	part, err := cfg.Mesh.PartitionKBA(cfg.PY, cfg.PZ)
	if err != nil {
		return nil, err
	}
	re, err := fem.NewRefElement(cfg.Rank.Order)
	if err != nil {
		return nil, err
	}
	if cfg.Rank.Quad == nil || cfg.Rank.Lib == nil {
		return nil, fmt.Errorf("comm: config needs quadrature and cross sections")
	}
	remote, err := part.RemoteFaces(re)
	if err != nil {
		return nil, err
	}
	d := &Driver{
		cfg:    cfg,
		part:   part,
		re:     re,
		remote: remote,
		nG:     cfg.Rank.Lib.NumGroups,
		nA:     cfg.Rank.Quad.NumAngles(),
		nF:     re.NF,
	}
	d.solvers = make([]*core.Solver, len(part.Subs))
	switch cfg.Protocol {
	case Pipelined:
		err = d.buildPipelined()
	default:
		err = d.buildLagged()
	}
	if err != nil {
		return nil, err
	}
	if cfg.Fault != nil && d.pipe != nil {
		// Logical lanes mirror the transport: lane 2*ei is edge ei's
		// streamed stream, lane 2*ei+1 its lagged stream, each with the
		// per-sweep quota the protocol's accounting fixes.
		edges := make([]fault.Edge, 0, 2*len(d.pipe.edges))
		for _, ed := range d.pipe.edges {
			edges = append(edges,
				fault.Edge{From: ed.from, To: ed.to, Quota: ed.stream},
				fault.Edge{From: ed.from, To: ed.to, Quota: ed.lag})
		}
		d.inj = fault.New(cfg.Fault, edges)
	}
	return d, nil
}

// rankConfig stamps the Rank template onto rank r's subdomain: the whole
// solver configuration (including a shared Cache) is the template
// verbatim; only the mesh and the External declarations of the rank's
// cross-rank faces (d.remote[r], in order) differ between ranks. Both
// protocols build on it; the pipelined one adds the global cycle
// decisions.
func (d *Driver) rankConfig(r int) core.Config {
	cfg := d.cfg.Rank
	cfg.Mesh = d.part.Subs[r].Mesh
	cfg.External = make([]core.ExternalFace, len(d.remote[r]))
	for i, rf := range d.remote[r] {
		cfg.External[i] = core.ExternalFace{Elem: rf.Key.Elem, Face: rf.Key.Face,
			Normal: rf.Normal, Canonical: rf.Canonical}
	}
	return cfg
}

// gatherFace reads every group's nodal angular flux of (ordinate a, elem
// e, face f) of solver s into data, group-major, in s's face-node order:
// one cross-rank transfer.
func (d *Driver) gatherFace(s *core.Solver, a, e, f int, data []float64) {
	for g := 0; g < d.nG; g++ {
		s.PsiFaceValues(a, e, g, f, data[g*d.nF:(g+1)*d.nF])
	}
}

// permuteInflow writes one transfer gathered on the sending side into the
// receiving rank's inflow slot, in the receiver's face-node order.
func (d *Driver) permuteInflow(slot, data []float64, perm []int) {
	for g := 0; g < d.nG; g++ {
		src := data[g*d.nF : (g+1)*d.nF]
		dst := slot[g*d.nF : (g+1)*d.nF]
		for k := range dst {
			dst[k] = src[perm[k]]
		}
	}
}

// NumRanks returns the rank count.
func (d *Driver) NumRanks() int { return len(d.solvers) }

// Protocol returns the configured communication protocol.
func (d *Driver) Protocol() Protocol { return d.cfg.Protocol }

// Close stops every rank solver's background sweep workers
// deterministically. Without it an engine-backed driver leaks
// ranks x (ThreadsPerRank-1) persistent worker goroutines until the
// garbage collector notices the solvers are unreachable. A pipelined Run
// still in flight is aborted first (it returns an error) and joined, so
// for that protocol Close is safe even mid-sweep once Run has started
// its setup; under the lagged protocol Close must only be called between
// runs, as before. The driver remains fully usable: a later Run
// transparently rebuilds the pools. Safe to call multiple times.
func (d *Driver) Close() {
	d.mu.Lock()
	abort, done := d.runAbort, d.runDone
	d.closeSeq++
	d.mu.Unlock()
	if abort != nil {
		abort()
		<-done
	}
	for _, s := range d.solvers {
		s.Close()
	}
}

// Rank returns the solver of rank r (for inspection in tests and tools).
func (d *Driver) Rank(r int) *core.Solver { return d.solvers[r] }

// forEachRank runs fn(rank) concurrently for every rank and returns the
// first error.
func (d *Driver) forEachRank(fn func(r int) error) error {
	var wg sync.WaitGroup
	errs := make([]error, len(d.solvers))
	for r := range d.solvers {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = fn(r)
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Result reports a partitioned run: the iteration record core.Iterate
// filled, the slowest rank's in-sweep time and the global balance, plus
// what the failure policy spent.
type Result struct {
	core.Result

	// Attempts counts the runs the failure policy spent (1 without
	// faults or retries; the degraded lagged run counts as one more).
	Attempts int
	// Degraded reports that this result came from the lagged protocol
	// after a FailDegrade demotion.
	Degraded bool
}

// Run executes the partitioned iteration to convergence (or to the
// configured iteration limits) under the configured protocol.
func (d *Driver) Run() (*Result, error) {
	return d.RunContext(context.Background())
}

// RunContext is Run under an external context: cancellation (and any
// ctx deadline, alongside Config.Deadline) aborts the run with every
// rank goroutine joined, instead of hanging on unfinished sweeps.
func (d *Driver) RunContext(ctx context.Context) (*Result, error) {
	var res *Result
	var err error
	if d.cfg.Protocol == Pipelined && !d.Degraded() {
		res, err = d.runPipelinedPolicy(ctx)
	} else {
		res, err = d.runLagged(ctx)
		if err == nil {
			res.Degraded = d.Degraded()
		}
	}
	if err != nil {
		return nil, err
	}
	if res.Attempts == 0 {
		res.Attempts = 1
	}
	res.Balance = d.GlobalBalance()
	return res, nil
}

// GlobalBalance sums the per-rank balance terms. Leakage counts only true
// domain boundaries: each rank's balance skips its External faces, the
// cross-rank transfers that cancel at convergence.
func (d *Driver) GlobalBalance() core.Balance {
	var b core.Balance
	for _, s := range d.solvers {
		rb := s.ComputeBalance()
		b.Source += rb.Source
		b.Absorption += rb.Absorption
		b.Leakage += rb.Leakage
	}
	denom := b.Source
	if denom < 1 {
		denom = 1
	}
	b.Residual = math.Abs(b.Source-b.Absorption-b.Leakage) / denom
	return b
}

// FluxIntegral sums the group-g flux integral over all ranks.
func (d *Driver) FluxIntegral(g int) float64 {
	total := 0.0
	for _, s := range d.solvers {
		total += s.FluxIntegral(g)
	}
	return total
}
