// Package serve implements transport-as-a-service: a long-running,
// multi-tenant HTTP/JSON front end over the unsnap facade, multiplexing
// many concurrent solve jobs onto one shared artifact cache and a bounded
// worker pool.
//
// The economics are the point. Everything expensive about a transport
// solve — face matching, per-element DG matrices, inflow classification,
// SCC condensation, sweep graphs, the DSA geometry — is
// per-topology, not per-job (the PR 7 build/solve split), so a service
// that keeps one content-addressed build.Cache alive amortises that setup
// across every job that shares a mesh fingerprint: N submissions of one
// topology pay exactly one build (pinned by the build.Builds counter),
// and the marginal job is just sweeps. Per-tenant byte budgets
// (Config.TenantBytes) bound each tenant's cache occupancy so one
// tenant's topology churn cannot evict another's hot artifacts.
//
// The HTTP surface (all JSON; errors are {"error": "..."}):
//
//	POST   /v1/jobs             submit {tenant?, problem, options?} (an
//	                            unsnap.Spec plus an optional tenant; the
//	                            X-Tenant header wins over the body field).
//	                            202 {id, state} on accept; 400 on an
//	                            invalid spec; 422 on a valid spec above the
//	                            service's bounds (threads over GOMAXPROCS,
//	                            or a problem predicted to need more than
//	                            maxSolveBytes); 429 (with Retry-After) when
//	                            the queue is full; 503 when shutting down.
//	GET    /v1/jobs/{id}        job status; terminal states carry the
//	                            result (balance, per-group flux integrals,
//	                            inners/outers, converged, degraded) or the
//	                            structured error.
//	GET    /v1/jobs/{id}/events server-sent events: one "progress" event
//	                            per completed inner iteration (fed by the
//	                            core progress hook), then one terminal
//	                            "done" event naming the final state. The
//	                            stream replays from the job's start, so
//	                            late subscribers see the full history.
//	DELETE /v1/jobs/{id}        cancel: a queued job terminates
//	                            immediately, a running one unwinds through
//	                            the solver's context between inners.
//	                            Idempotent.
//	GET    /v1/stats            cache counters, per-tenant usage, job
//	                            counts by state, jobs in flight, and the
//	                            process-wide build.Builds counter (the
//	                            warm-path audit: submitting a hot mesh
//	                            must not move it).
//
// Lifecycle: jobs run on exactly Config.MaxConcurrent workers over a
// queue of depth Config.QueueDepth; a full queue is a structured 429, not
// backpressure on the HTTP goroutine. Shutdown closes intake (503),
// drains the queue and the in-flight jobs, and — if its context expires
// first — cancels every remaining job through the same context path a
// DELETE uses, so shutdown can never hang on a stuck solve and never
// leaks a goroutine (pinned under -race by the package tests). A panic
// on a job's goroutine fails that job alone — state "failed",
// "error_kind": "internal" — and the worker goes on to the next job.
package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"unsnap"
	"unsnap/internal/build"
)

// Config sizes the service.
type Config struct {
	// MaxConcurrent is the worker-pool size: at most this many solves run
	// at once (<= 0 means GOMAXPROCS). Each solve additionally uses its
	// spec's Threads for the sweep itself.
	MaxConcurrent int
	// QueueDepth bounds the jobs waiting for a worker; a submit beyond it
	// gets a 429 (<= 0 means 16).
	QueueDepth int
	// CacheBytes is the shared artifact cache's global LRU budget
	// (<= 0 means unbounded).
	CacheBytes int64
	// TenantBytes bounds each tenant's resident bytes in the shared cache
	// (<= 0 means unbounded): an over-budget tenant evicts its own LRU
	// entries, never another tenant's.
	TenantBytes int64
	// MaxDeadline caps per-job deadlines and substitutes for specs that
	// set none, so one runaway job cannot hold a worker forever
	// (0 means no cap — trust the specs).
	MaxDeadline time.Duration
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	return c
}

// Server is the solve service: a worker pool, a job table and one shared
// artifact cache. Create with New, expose with Handler, stop with
// Shutdown.
type Server struct {
	cfg   Config
	cache *build.Cache

	// baseCtx parents every job context: cancelling it (Shutdown past its
	// grace period) unwinds all in-flight solves.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu     sync.Mutex
	jobs   map[string]*job
	seq    int64
	closed bool
	queue  chan *job

	wg sync.WaitGroup // workers

	// onProgress, when set, runs on the job goroutine after every inner
	// iteration's event is published: the package tests' seam for
	// injecting a fault into a running job. Set it before submitting.
	onProgress func(unsnap.Progress)
}

// New builds the service and starts its worker pool.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		cache:      build.NewCache(cfg.CacheBytes),
		baseCtx:    ctx,
		baseCancel: cancel,
		jobs:       make(map[string]*job),
		queue:      make(chan *job, cfg.QueueDepth),
	}
	for i := 0; i < cfg.MaxConcurrent; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Cache exposes the shared artifact cache (stats endpoints, tests).
func (s *Server) Cache() *build.Cache { return s.cache }

// Shutdown stops intake (submits fail with 503), drains the queued and
// in-flight jobs, and waits for the workers to exit. If ctx expires
// before the drain completes, every remaining job is cancelled through
// its context — the same path DELETE uses — and Shutdown still waits for
// the workers before returning ctx's error. Idempotent.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.queue)
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.baseCancel()
		<-done
		return ctx.Err()
	}
}

// submit validates, registers and enqueues one job. It returns the job,
// or a submitError carrying the HTTP status the condition maps to.
func (s *Server) submit(tenant string, spec unsnap.Spec) (*job, error) {
	prob, opts, err := spec.Resolve()
	if err != nil {
		return nil, &submitError{status: 400, msg: err.Error()}
	}
	if opts.TimeSteps > 0 {
		return nil, &submitError{status: 400, msg: "unsnap: time-dependent runs are not supported by the solve service"}
	}
	// A solver starts one worker per thread and allocates the problem's
	// arrays up front, so an oversized spec must be refused before one
	// exists.
	if procs := runtime.GOMAXPROCS(0); opts.Threads > procs {
		return nil, &submitError{status: 422, msg: fmt.Sprintf("serve: threads %d above the bound of %d (GOMAXPROCS)", opts.Threads, procs)}
	}
	if need := solveBytes(prob); need > maxSolveBytes {
		return nil, &submitError{status: 422, msg: fmt.Sprintf("serve: the problem needs about %.4g bytes per solve, above the bound of %d", need, maxSolveBytes)}
	}
	if tenant == "" {
		tenant = "default"
	}
	if s.cfg.MaxDeadline > 0 && (opts.Deadline == 0 || opts.Deadline > s.cfg.MaxDeadline) {
		opts.Deadline = s.cfg.MaxDeadline
	}

	jctx, jcancel := context.WithCancel(s.baseCtx)
	j := &job{
		tenant:    tenant,
		prob:      prob,
		opts:      opts,
		submitted: time.Now(),
		state:     StateQueued,
		notify:    make(chan struct{}),
		ctx:       jctx,
		cancel:    jcancel,
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		jcancel()
		return nil, &submitError{status: 503, msg: "serve: shutting down"}
	}
	s.seq++
	j.id = fmt.Sprintf("j-%d", s.seq)
	select {
	case s.queue <- j:
	default:
		s.mu.Unlock()
		jcancel()
		return nil, &submitError{status: 429, msg: fmt.Sprintf("serve: job queue full (%d queued)", s.cfg.QueueDepth)}
	}
	s.jobs[j.id] = j
	s.mu.Unlock()
	return j, nil
}

// maxSolveBytes bounds the memory one job may ask for. Every benchmark
// spec needs tens of megabytes at most; {"nx":1000,"groups":1000} or a
// high element order would exhaust the host.
const maxSolveBytes = 1 << 30

// solveBytes predicts a solve's dominant allocations from the problem
// alone, in float64 so that no product overflows: the angular flux (8
// bytes per element, ordinate, node and group) and the element matrices
// at one geometry class per element (about 4 n^2 + 18 nf^2 doubles for
// n nodes and nf nodes per face).
func solveBytes(p unsnap.Problem) float64 {
	elems := float64(p.NX) * float64(p.NY) * float64(p.NZ)
	angles := 8 * float64(p.AnglesPerOctant)
	if p.PGCPolar > 0 && p.PGCAzi > 0 {
		angles = 8 * float64(p.PGCPolar) * float64(p.PGCAzi)
	}
	k := float64(p.Order) + 1
	n, nf := k*k*k, k*k
	return 8 * elems * (angles*n*float64(p.Groups) + 4*n*n + 18*nf*nf)
}

// submitError maps a rejected submission onto an HTTP status.
type submitError struct {
	status int
	msg    string
}

func (e *submitError) Error() string { return e.msg }

// worker drains the queue until Shutdown closes it.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

// internalError is the terminal error of a job whose solve panicked: a
// bug in the solver (or a hook), not in the request.
type internalError struct {
	value any
}

func (e *internalError) Error() string {
	return fmt.Sprintf("serve: internal error: solve panicked: %v", e.value)
}

// runJob executes one job end to end: a solver built against the shared
// cache under the job's tenant budget, a progress hook feeding the job's
// event stream, and a context that both DELETE and Shutdown can cancel.
// A panic on the job goroutine (solver construction, the iteration loop
// between sweeps, the progress hook) fails this job with an internalError
// and leaves the worker, the process and every other tenant's jobs
// running; a panic on one of the solver's own sweep workers is recovered
// by the solver's pool and arrives here as the error RunContext returns,
// failing the job the ordinary way.
func (s *Server) runJob(j *job) {
	j.mu.Lock()
	if j.state != StateQueued { // cancelled while queued
		j.mu.Unlock()
		return
	}
	j.state = StateRunning
	j.started = time.Now()
	j.bumpLocked()
	j.mu.Unlock()

	defer func() {
		if r := recover(); r != nil {
			j.finish(nil, nil, &internalError{value: r})
		}
		j.cancel() // release the context's resources
	}()

	opts := j.opts
	opts.Cache = s.cache
	opts.CacheTenant = j.tenant
	opts.CacheTenantBytes = s.cfg.TenantBytes
	opts.Progress = func(p unsnap.Progress) {
		j.publish(Event{Outer: p.Outer, Inner: p.Inner, Inners: p.Inners, DF: p.DF})
		if s.onProgress != nil {
			s.onProgress(p)
		}
	}

	solver, err := unsnap.NewSolver(j.prob, opts)
	if err != nil {
		j.finish(nil, nil, err)
		return
	}
	defer solver.Close()
	res, err := solver.RunContext(j.ctx)
	if err != nil {
		j.finish(nil, nil, err)
		return
	}
	flux := make([]float64, j.prob.Groups)
	for g := range flux {
		flux[g] = solver.FluxIntegral(g)
	}
	j.finish(res, flux, nil)
}

// get looks a job up by id.
func (s *Server) get(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// cancelJob requests cancellation: queued jobs terminate immediately,
// running jobs unwind through their context between inners, terminal
// jobs are left alone. Returns false when the id is unknown.
func (s *Server) cancelJob(id string) (*job, bool) {
	j := s.get(id)
	if j == nil {
		return nil, false
	}
	j.mu.Lock()
	switch j.state {
	case StateQueued:
		j.state = StateCancelled
		j.finished = time.Now()
		j.err = context.Canceled
		j.bumpLocked()
	case StateRunning:
		// The worker observes the context between inners and finishes the
		// job as cancelled.
	default:
		// Terminal: nothing to do (idempotent cancel).
	}
	j.mu.Unlock()
	j.cancel()
	return j, true
}

// jobCounts tallies jobs by state (for /v1/stats), and the jobs in
// flight: the running ones, each of which holds a worker. Counting them
// from the states keeps the two numbers consistent.
func (s *Server) jobCounts() (map[string]int, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	counts := map[string]int{}
	for _, j := range s.jobs {
		j.mu.Lock()
		counts[string(j.state)]++
		j.mu.Unlock()
	}
	return counts, counts[string(StateRunning)]
}

// State names a job's position in its lifecycle.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// terminal reports whether the state is final.
func (st State) terminal() bool {
	return st == StateDone || st == StateFailed || st == StateCancelled
}

// Event is one entry of a job's progress stream: a completed inner
// iteration (from the solver's progress hook).
type Event struct {
	Outer  int     `json:"outer"`
	Inner  int     `json:"inner"`
	Inners int     `json:"inners"`
	DF     float64 `json:"df"`
}

// job is one submitted solve and everything observed about it.
type job struct {
	id        string
	tenant    string
	prob      unsnap.Problem
	opts      unsnap.Options
	submitted time.Time

	ctx    context.Context
	cancel context.CancelFunc

	mu       sync.Mutex
	state    State
	started  time.Time
	finished time.Time
	events   []Event
	// notify is closed and replaced on every state/event change;
	// subscribers re-read under mu after each close (broadcast without
	// per-subscriber bookkeeping, so an abandoned SSE client costs
	// nothing).
	notify chan struct{}
	res    *unsnap.Result
	flux   []float64
	err    error
}

// bumpLocked wakes every waiter (mu held).
func (j *job) bumpLocked() {
	close(j.notify)
	j.notify = make(chan struct{})
}

// publish appends one progress event and wakes the stream subscribers.
func (j *job) publish(ev Event) {
	j.mu.Lock()
	j.events = append(j.events, ev)
	j.bumpLocked()
	j.mu.Unlock()
}

// finish moves the job to its terminal state, classifying the error:
// context cancellation (DELETE, shutdown) is "cancelled", anything else —
// solver construction, deadline expiry, health errors — is "failed".
func (j *job) finish(res *unsnap.Result, flux []float64, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.terminal() {
		return
	}
	j.finished = time.Now()
	switch {
	case err == nil:
		j.state = StateDone
		j.res, j.flux = res, flux
	case errors.Is(err, context.Canceled):
		j.state = StateCancelled
		j.err = err
	default:
		j.state = StateFailed
		j.err = err
	}
	j.bumpLocked()
}
