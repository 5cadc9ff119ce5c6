package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sync"
	"time"

	"unsnap"
	"unsnap/internal/build"
	"unsnap/internal/serve"
)

// harness is one in-process service instance on a loopback port.
type harness struct {
	srv  *serve.Server
	http *http.Server
	base string
	done chan struct{}
}

func startServer(cfg serve.Config) (*harness, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := &harness{
		srv:  serve.New(cfg),
		base: "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	h.http = &http.Server{Handler: h.srv.Handler()}
	go func() {
		defer close(h.done)
		_ = h.http.Serve(ln) // returns ErrServerClosed on stop
	}()
	return h, nil
}

// stop drains the service and waits for the listener goroutine.
func (h *harness) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = h.http.Shutdown(ctx)
	_ = h.srv.Shutdown(ctx)
	<-h.done
}

// jobView is the part of GET /v1/jobs/{id} the benchmark reads.
type jobView struct {
	ID        string     `json:"id"`
	State     string     `json:"state"`
	Submitted time.Time  `json:"submitted"`
	Started   *time.Time `json:"started"`
	Finished  *time.Time `json:"finished"`
	Error     string     `json:"error"`
	Result    *struct {
		Outers    int  `json:"outers"`
		Inners    int  `json:"inners"`
		Converged bool `json:"converged"`
		Balance   struct {
			Residual float64 `json:"residual"`
		} `json:"balance"`
		Flux         []float64 `json:"flux"`
		SetupSeconds float64   `json:"setup_seconds"`
		SweepSeconds float64   `json:"sweep_seconds"`
	} `json:"result"`
}

// statsView is the part of GET /v1/stats the benchmark reads.
type statsView struct {
	Cache struct {
		Hits      int64 `json:"hits"`
		Misses    int64 `json:"misses"`
		Evictions int64 `json:"evictions"`
	} `json:"cache"`
	Tenants map[string]struct {
		Evictions int64 `json:"evictions"`
	} `json:"tenants"`
	Jobs map[string]int `json:"jobs"`
}

// jobResult is one job as its client saw it.
type jobResult struct {
	job      job
	status   int // HTTP status of the submit
	err      error
	view     jobView
	events   int
	sent     time.Time // POST sent
	accepted time.Time // 202 decoded
	doneSeen time.Time // SSE done frame read
	decoded  time.Time // result body decoded
}

func (r *jobResult) latency() float64 { return r.decoded.Sub(r.sent).Seconds() }

// client is one closed-loop user: it holds one connection and sends its
// next job only after the previous result is decoded.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

func (c *client) getJSON(path string, v any) error {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// do runs one job: POST, follow the event stream to the done frame, GET
// the result. With a tracer it also records the job's spans.
func (c *client) do(j job, tr *tracer, op int) (r jobResult) {
	r.job = j
	root := tr.begin("job", op, -1)
	defer func() { tr.end(root) }()

	r.sent = time.Now()
	id := tr.begin("serve.submit", op, root)
	resp, err := c.hc.Post(c.base+"/v1/jobs", "application/json", bytes.NewReader(j.body()))
	if err != nil {
		tr.end(id)
		r.err = err
		return
	}
	var acc struct {
		ID string `json:"id"`
	}
	r.status = resp.StatusCode
	err = json.NewDecoder(resp.Body).Decode(&acc)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	r.accepted = time.Now()
	tr.end(id)
	if r.status != http.StatusAccepted || err != nil {
		r.err = fmt.Errorf("submit: status %d: %v", r.status, err)
		return
	}

	wait := tr.begin("serve.wait", op, root)
	waitStart := time.Now()
	resp, err = c.hc.Get(c.base + "/v1/jobs/" + acc.ID + "/events")
	if err != nil {
		tr.end(wait)
		r.err = err
		return
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		switch sc.Text() {
		case "event: progress":
			r.events++
		case "event: done":
			r.doneSeen = time.Now()
		}
	}
	resp.Body.Close()
	tr.end(wait)
	if r.doneSeen.IsZero() {
		r.err = fmt.Errorf("event stream of %s ended without a done frame: %v", acc.ID, sc.Err())
		return
	}

	id = tr.begin("serve.result_fetch", op, root)
	r.err = c.getJSON("/v1/jobs/"+acc.ID, &r.view)
	r.decoded = time.Now()
	tr.end(id)

	// The server's own run interval, clamped so that it nests inside the
	// wait even when the job started before the client asked for events.
	if r.err == nil && r.view.Started != nil && r.view.Finished != nil {
		s, e := *r.view.Started, *r.view.Finished
		if s.Before(waitStart) {
			s = waitStart
		}
		if e.After(r.doneSeen) {
			e = r.doneSeen
		}
		if e.After(s) {
			tr.add("serve.run", op, wait, s, e)
		}
	}
	return
}

// ok reports whether the job reached done with a result.
func (r *jobResult) ok() bool {
	return r.err == nil && r.view.State == "done" && r.view.Result != nil
}

// directSolve solves the job's spec with the library, the way the service
// does, and returns the per-group flux integrals and the inner count.
func directSolve(j job) ([]float64, int, error) {
	p, o, err := j.Spec.Resolve()
	if err != nil {
		return nil, 0, err
	}
	s, err := unsnap.NewSolver(p, o)
	if err != nil {
		return nil, 0, err
	}
	defer s.Close()
	res, err := s.Run()
	if err != nil {
		return nil, 0, err
	}
	flux := make([]float64, p.Groups)
	for g := range flux {
		flux[g] = s.FluxIntegral(g)
	}
	return flux, res.Inners, nil
}

// coldBalanceTol is the largest accepted balance residual of a serve_cold
// job, which converges only to epsi 1e-2.
const coldBalanceTol = 5e-3

// checkJobs is the service oracle. Every job must be done and converged.
// On the hot mix every result must equal, bitwise, a direct library solve
// of its spec (one per distinct key); on the cold mix the residual is
// bounded and every coldSampleEvery-th job is re-solved directly.
func checkJobs(results []jobResult, hot bool) (failed int, failures []string) {
	fail := func(format string, a ...any) {
		failed++
		if len(failures) < 8 {
			failures = append(failures, fmt.Sprintf(format, a...))
		}
	}
	type ref struct {
		flux   []float64
		inners int
		err    error
	}
	refs := map[string]ref{}
	for i := range results {
		r := &results[i]
		switch {
		case r.status == http.StatusTooManyRequests:
			fail("job refused with 429")
			continue
		case !r.ok():
			fail("job %s: state %q error %q / %v", r.view.ID, r.view.State, r.view.Error, r.err)
			continue
		case !r.view.Result.Converged:
			fail("job %s not converged after %d inners", r.view.ID, r.view.Result.Inners)
			continue
		}
		if !hot {
			if res := r.view.Result.Balance.Residual; !(res <= coldBalanceTol) {
				fail("job %s balance residual %.3g > %.0e", r.view.ID, res, coldBalanceTol)
				continue
			}
			if i%coldSampleEvery != 0 {
				continue
			}
		}
		k := r.job.key()
		want, seen := refs[k]
		if !seen {
			want.flux, want.inners, want.err = directSolve(r.job)
			refs[k] = want
		}
		switch {
		case want.err != nil:
			fail("direct solve of job %s: %v", r.view.ID, want.err)
		case want.inners != r.view.Result.Inners:
			fail("job %s took %d inners, the direct solve %d", r.view.ID, r.view.Result.Inners, want.inners)
		case len(want.flux) != len(r.view.Result.Flux):
			fail("job %s returned %d groups, the direct solve %d", r.view.ID, len(r.view.Result.Flux), len(want.flux))
		default:
			for g, v := range r.view.Result.Flux {
				if math.Float64bits(v) != math.Float64bits(want.flux[g]) {
					fail("job %s group %d flux %v is not bitwise the direct solve's %v", r.view.ID, g, v, want.flux[g])
					break
				}
			}
		}
	}
	return
}

// setUpService starts a server and runs the fixed warm-up through one
// client; the service counts as set up when the last warm-up result is
// decoded.
func setUpService(sc serveCase) (*harness, []jobResult, error) {
	h, err := startServer(sc.Config)
	if err != nil {
		return nil, nil, err
	}
	cl := newClient(h.base)
	defer cl.close()
	var out []jobResult
	for _, j := range sc.Warmup {
		out = append(out, cl.do(j, nil, 0))
	}
	return h, out, nil
}

// runServe runs one service workload: set-ups, then a closed loop of P
// clients until the window closes, then the oracle.
func runServe(w workloadInfo, rc runConfig) (*report, error) {
	sc := makeServeCase(w.name, rc.seed, rc.p, rc.tiny)
	rep := newReport(w, rc, sc.hash())

	setups := 5
	if rc.tiny {
		setups = 1
	}
	var h *harness
	var setupS []float64
	var warm []jobResult
	for i := 0; i < setups; i++ {
		if h != nil {
			h.stop()
		}
		t0 := time.Now()
		var err error
		h, warm, err = setUpService(sc)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer h.stop()
	buildsBefore := build.Builds()

	var tr *tracer
	window := rc.window()
	if rc.trace {
		tr = newTracer()
		window /= 2
	}
	perClient := make([][]jobResult, rc.p)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < rc.p; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := newClient(h.base)
			defer cl.close()
			seq := sc.Clients[c]
			for i := 0; time.Since(start) < window || i < 2; i++ {
				t := tr
				if i%2 == 0 {
					t = nil
				}
				r := cl.do(seq[i%len(seq)], t, c*len(seq)+i+1)
				perClient[c] = append(perClient[c], r)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	builds := build.Builds() - buildsBefore

	var stats statsView
	cl := newClient(h.base)
	err := cl.getJSON("/v1/stats", &stats)
	cl.close()
	if err != nil {
		return nil, fmt.Errorf("%s: stats: %w", w.name, err)
	}

	// Interleave the clients' results so the 1-in-N cold sample draws
	// from every client.
	var results []jobResult
	for i := 0; ; i++ {
		added := false
		for c := range perClient {
			if i < len(perClient[c]) {
				results = append(results, perClient[c][i])
				added = true
			}
		}
		if !added {
			break
		}
	}
	all := append(append([]jobResult(nil), warm...), results...)
	rep.attempted = len(all)
	rep.failed, rep.failures = checkJobs(all, sc.hot)

	var lat []float64
	good := 0
	for i := range results {
		if results[i].ok() {
			good++
			lat = append(lat, results[i].latency())
		}
	}
	rep.note("jobs: %d in the window (%d done), %d warm-up; p50 %.4f s p95 %.4f s", len(results), good, len(warm), median(lat), quantile(lat, 0.95))
	rep.note("cache: %d hits %d misses %d evictions; %d builds in the window", stats.Cache.Hits, stats.Cache.Misses, stats.Cache.Evictions, builds)

	if !rc.trace {
		rep.set("setup_s", median(setupS), "s", len(setupS))
		rep.set("op_p50_s", median(lat), "s", len(lat))
		rep.set("ops_per_s", float64(good)/elapsed, "1/s", good)
		return rep, nil
	}

	// The layer probes run at the shape of the first warm-up job.
	p, o, err := sc.Warmup[0].Spec.Resolve()
	if err != nil {
		return nil, err
	}
	lp := &layerProbe{rep: rep, rc: rc, tr: tr, c: libCase{Problem: p, Options: o, Grid: [2]int{1, 1}}, cache: h.srv.Cache()}
	// Jobs differ in cost, so traced and plain latencies are compared
	// within each problem shape (a job's key minus its twist).
	plain, traced := map[string][]float64{}, map[string][]float64{}
	for c := range perClient {
		for i, r := range perClient[c] {
			if !r.ok() {
				continue
			}
			shape := r.job.Spec.Problem
			shape.Twist = 0
			class := fmt.Sprint(shape)
			if i%2 == 0 {
				plain[class] = append(plain[class], r.latency())
			} else {
				traced[class] = append(traced[class], r.latency())
			}
		}
	}
	lp.overhead(plain, traced)
	serveMetrics(rep, results, stats.Jobs["failed"]+stats.Jobs["cancelled"])
	tenantEv := int64(0)
	for _, t := range stats.Tenants {
		tenantEv += t.Evictions
	}
	cacheMetrics(rep, float64(builds)/float64(max(1, len(results))), len(results),
		stats.Cache.Hits, stats.Cache.Misses, stats.Cache.Evictions, tenantEv)
	lp.setupLayers()
	lp.la()
	lp.coreFromSpans(0)
	lp.coreScaling()
	lp.accel()
	lp.comm(0, 0)
	return rep, tr.write(rc.traceOut)
}

// serveMetrics derives the serve.* metrics from the jobs' client
// timestamps and the server's own job timestamps.
func serveMetrics(rep *report, results []jobResult, serverFailed int) {
	var submit, queue, run, lag, fetch, setup, lat, events []float64
	var sweepS, runS float64
	rejected := 0
	msBetween := func(a, b time.Time) float64 { return ms(b.Sub(a).Seconds()) }
	for i := range results {
		r := &results[i]
		if r.status == http.StatusTooManyRequests {
			rejected++
		}
		if !r.ok() || r.view.Started == nil || r.view.Finished == nil {
			continue
		}
		submit = append(submit, msBetween(r.sent, r.accepted))
		queue = append(queue, msBetween(r.view.Submitted, *r.view.Started))
		run = append(run, msBetween(*r.view.Started, *r.view.Finished))
		lag = append(lag, msBetween(*r.view.Finished, r.doneSeen))
		fetch = append(fetch, msBetween(r.doneSeen, r.decoded))
		setup = append(setup, ms(r.view.Result.SetupSeconds))
		lat = append(lat, ms(r.latency()))
		events = append(events, float64(r.events))
		sweepS += r.view.Result.SweepSeconds
		runS += r.view.Finished.Sub(*r.view.Started).Seconds()
	}
	n := len(lat)
	rep.set("serve.submit_ms", median(submit), "ms", n)
	rep.set("serve.queue_wait_ms", median(queue), "ms", n)
	rep.set("serve.run_ms", median(run), "ms", n)
	rep.set("serve.done_lag_ms", median(lag), "ms", n)
	rep.set("serve.result_fetch_ms", median(fetch), "ms", n)
	rep.set("serve.job_p95_ms", quantile(lat, 0.95), "ms", n)
	rep.set("serve.overhead_share", 1-sum(run)/sum(lat), "share", n)
	rep.set("serve.solver_setup_ms", median(setup), "ms", n)
	rep.set("serve.sweep_share", sweepS/runS, "share", n)
	rep.set("serve.events_per_job", sum(events)/float64(max(1, n)), "count", n)
	rep.set("serve.rejected_429", float64(rejected), "count", len(results))
	rep.set("serve.jobs_failed", float64(serverFailed), "count", len(results))
}

// cacheMetrics reports the artifact cache's counters over the workload.
func cacheMetrics(rep *report, buildsPerOp float64, ops int, hits, misses, evictions, tenantEvictions int64) {
	rep.set("build.builds", buildsPerOp, "count/op", ops)
	rep.set("build.cache_hit_share", float64(hits)/float64(max(1, hits+misses)), "share", int(hits+misses))
	rep.set("build.cache_evictions", float64(evictions), "count", 1)
	rep.set("build.tenant_evictions", float64(tenantEvictions), "count", 1)
}
