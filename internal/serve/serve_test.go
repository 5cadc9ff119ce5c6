package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"unsnap"
	"unsnap/internal/build"
)

// tinySpec is a spec that solves in milliseconds.
const tinySpec = `{
	"problem": {"nx":4,"ny":4,"nz":4,"lx":1,"ly":1,"lz":1,
	            "order":1,"angles_per_octant":2,"groups":2},
	"options": {"epsi":1e-4,"max_inners":10,"max_outers":4}
}`

// longSpec is a spec that iterates for a long time (force_iterations
// never converges early), used to catch jobs mid-flight. The deadline is
// a safety net so a failed cancellation cannot wedge the test binary.
const longSpec = `{
	"problem": {"nx":8,"ny":8,"nz":8,"lx":1,"ly":1,"lz":1,
	            "order":1,"angles_per_octant":2,"groups":2},
	"options": {"force_iterations":true,"max_inners":50,"max_outers":100,
	            "deadline_seconds":60}
}`

func startServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s, ts
}

// submit posts a job body and decodes the response.
func submit(t *testing.T, ts *httptest.Server, body string, tenant string) (int, map[string]any) {
	t.Helper()
	req, err := http.NewRequest("POST", ts.URL+"/v1/jobs", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("decoding submit response: %v", err)
	}
	return resp.StatusCode, m
}

// getJob fetches GET /v1/jobs/{id} into jobView.
func getJob(t *testing.T, ts *httptest.Server, id string) jobView {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET job %s: status %d", id, resp.StatusCode)
	}
	var v jobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// waitState polls until the job reaches the state (or any terminal state
// when the wanted one is terminal and the job overshot into another —
// that is reported as a failure).
func waitState(t *testing.T, ts *httptest.Server, id string, want State) jobView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		v := getJob(t, ts, id)
		if v.State == want {
			return v
		}
		if v.State.terminal() {
			t.Fatalf("job %s reached %q (error %q), want %q", id, v.State, v.Error, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q waiting for %q", id, v.State, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	name string
	data string
}

// readSSE consumes the whole event stream for a job (it must terminate,
// i.e. the job must reach a terminal state).
func readSSE(t *testing.T, ts *httptest.Server, id string) []sseEvent {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("events stream: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events stream content type %q", ct)
	}
	var events []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		case line == "":
			if cur.name != "" {
				events = append(events, cur)
			}
			cur = sseEvent{}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading event stream: %v", err)
	}
	return events
}

// TestServeLifecycle pins the submit -> stream -> result path: a valid
// spec is accepted with 202, runs to a converged result whose payload
// carries balance and per-group flux, and the event stream replays one
// progress frame per inner followed by a terminal done frame.
func TestServeLifecycle(t *testing.T) {
	_, ts := startServer(t, Config{MaxConcurrent: 1})
	status, m := submit(t, ts, tinySpec, "")
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d (%v)", status, m)
	}
	id := m["id"].(string)
	v := waitState(t, ts, id, StateDone)
	if v.Tenant != "default" {
		t.Errorf("tenant defaulted to %q, want default", v.Tenant)
	}
	if v.Result == nil || !v.Result.Converged {
		t.Fatalf("job done but result %+v not converged", v.Result)
	}
	if len(v.Result.Flux) != 2 {
		t.Fatalf("flux groups %d, want 2", len(v.Result.Flux))
	}
	if v.Result.Balance.Residual > 1e-2 {
		t.Errorf("balance residual %v implausibly large", v.Result.Balance.Residual)
	}
	if v.Started == nil || v.Finished == nil {
		t.Errorf("done job missing timestamps: %+v", v)
	}

	// The stream replays the full history even for a finished job.
	events := readSSE(t, ts, id)
	if len(events) == 0 {
		t.Fatal("empty event stream")
	}
	last := events[len(events)-1]
	if last.name != "done" || !strings.Contains(last.data, `"done"`) {
		t.Fatalf("terminal event %+v, want done", last)
	}
	progress := events[:len(events)-1]
	if len(progress) != v.Result.Inners {
		t.Fatalf("progress events %d, want one per inner (%d)", len(progress), v.Result.Inners)
	}
	var ev Event
	if err := json.Unmarshal([]byte(progress[len(progress)-1].data), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Inners != v.Result.Inners || ev.DF != v.Result.FinalDF {
		t.Fatalf("final progress frame %+v does not match result (inners %d, df %v)",
			ev, v.Result.Inners, v.Result.FinalDF)
	}
}

// TestServeWarmCacheSharedBuild is the acceptance criterion of the
// service: two sequential submissions of the same mesh — from different
// tenants — produce bitwise-identical flux while the process-wide build
// counter moves exactly once, i.e. the second job paid zero topology
// work and the artifact was shared across the tenant boundary.
func TestServeWarmCacheSharedBuild(t *testing.T) {
	_, ts := startServer(t, Config{MaxConcurrent: 1, TenantBytes: 1 << 30})
	builds0 := build.Builds()

	_, m := submit(t, ts, tinySpec, "acme")
	v1 := waitState(t, ts, m["id"].(string), StateDone)
	if got := build.Builds() - builds0; got != 1 {
		t.Fatalf("first job ran %d topology builds, want 1", got)
	}

	_, m = submit(t, ts, tinySpec, "zeta")
	v2 := waitState(t, ts, m["id"].(string), StateDone)
	if got := build.Builds() - builds0; got != 1 {
		t.Fatalf("two same-mesh jobs ran %d topology builds, want exactly 1", got)
	}
	for g := range v1.Result.Flux {
		if v1.Result.Flux[g] != v2.Result.Flux[g] {
			t.Fatalf("group %d flux differs across warm resubmit: %v vs %v",
				g, v1.Result.Flux[g], v2.Result.Flux[g])
		}
	}

	// /v1/stats attributes the build to acme and the warm hit to zeta.
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statsView
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Tenants["acme"].Misses == 0 || st.Tenants["acme"].Bytes == 0 {
		t.Errorf("acme (the builder) shows no charge: %+v", st.Tenants["acme"])
	}
	if st.Tenants["zeta"].Hits == 0 || st.Tenants["zeta"].Bytes != 0 {
		t.Errorf("zeta (the sharer) should hit without a charge: %+v", st.Tenants["zeta"])
	}
	if st.Jobs[string(StateDone)] != 2 {
		t.Errorf("job counts %v, want 2 done", st.Jobs)
	}
}

// getStats fetches GET /v1/stats.
func getStats(t *testing.T, ts *httptest.Server) statsView {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statsView
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestServeStoreBytesDrain pins store_mapped_bytes, the one view of the
// factor stores runtime.MemStats cannot see: a running job's store shows
// in it, and a job that has turned terminal — done or cancelled — holds
// none, so a drained server reports 0.
func TestServeStoreBytesDrain(t *testing.T) {
	_, ts := startServer(t, Config{MaxConcurrent: 1})
	_, m := submit(t, ts, longSpec, "")
	id := m["id"].(string)
	waitState(t, ts, id, StateRunning)
	deadline := time.Now().Add(30 * time.Second)
	for getJob(t, ts, id).Inners == 0 {
		if time.Now().After(deadline) {
			t.Fatal("job never recorded an inner")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if b := getStats(t, ts).StoreMappedBytes; b <= 0 {
		t.Fatalf("a running job's store shows %d bytes", b)
	}
	req, _ := http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if v := waitTerminal(t, ts, id); v.State != StateCancelled {
		t.Fatalf("cancelled job ended %q", v.State)
	}
	if b := getStats(t, ts).StoreMappedBytes; b != 0 {
		t.Fatalf("cancelled job left %d store bytes mapped", b)
	}
	_, m = submit(t, ts, tinySpec, "")
	waitState(t, ts, m["id"].(string), StateDone)
	if b := getStats(t, ts).StoreMappedBytes; b != 0 {
		t.Fatalf("a drained server reports %d store bytes", b)
	}
}

// TestServeCancelMidSweepNoLeak pins the cancellation contract under
// -race: a DELETE lands between inners, the job reports cancelled, and
// after shutdown the process has the same goroutine population it
// started with — no worker, solver pool or SSE goroutine leaks.
func TestServeCancelMidSweepNoLeak(t *testing.T) {
	runtime.GC()
	runtime.GC()
	time.Sleep(50 * time.Millisecond)
	before := runtime.NumGoroutine()

	func() {
		s := New(Config{MaxConcurrent: 2})
		ts := httptest.NewServer(s.Handler())
		defer func() {
			ts.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := s.Shutdown(ctx); err != nil {
				t.Errorf("shutdown: %v", err)
			}
		}()

		_, m := submit(t, ts, longSpec, "")
		id := m["id"].(string)
		// Wait until it is demonstrably mid-iteration (at least one inner
		// recorded), so the cancel exercises the between-inners path.
		waitState(t, ts, id, StateRunning)
		deadline := time.Now().Add(30 * time.Second)
		for getJob(t, ts, id).Inners == 0 {
			if time.Now().After(deadline) {
				t.Fatal("job never recorded an inner")
			}
			time.Sleep(5 * time.Millisecond)
		}

		req, _ := http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("cancel: status %d", resp.StatusCode)
		}
		deadline = time.Now().Add(30 * time.Second)
		for {
			v := getJob(t, ts, id)
			if v.State.terminal() {
				if v.State != StateCancelled {
					t.Fatalf("cancelled job ended %q (error %q)", v.State, v.Error)
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("job did not observe cancellation")
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()

	http.DefaultClient.CloseIdleConnections()
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after shutdown", before, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// waitTerminal polls a job until it reaches any terminal state.
func waitTerminal(t *testing.T, ts *httptest.Server, id string) jobView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if v := getJob(t, ts, id); v.State.terminal() {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never reached a terminal state", id)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServePanicIsolatedToJob: a panic on a job's goroutine (injected
// through the progress hook, mid-iteration) fails that job with a
// structured internal error; the single worker survives it, another
// tenant's job then completes on the same server, and its event stream
// closes with the failed state.
func TestServePanicIsolatedToJob(t *testing.T) {
	s, ts := startServer(t, Config{MaxConcurrent: 1})
	armed := true
	s.onProgress = func(p unsnap.Progress) {
		if armed && p.Inners == 2 {
			armed = false // only the worker goroutine touches it
			panic("injected fault")
		}
	}
	_, m := submit(t, ts, longSpec, "faulty")
	bad := m["id"].(string)
	status, m := submit(t, ts, tinySpec, "bystander")
	if status != http.StatusAccepted {
		t.Fatalf("second submit: status %d (%v)", status, m)
	}
	good := m["id"].(string)

	v := waitTerminal(t, ts, bad)
	if v.State != StateFailed || v.ErrorKind != "internal" || !strings.Contains(v.Error, "injected fault") {
		t.Fatalf("panicked job: state %q kind %q error %q, want failed/internal naming the panic", v.State, v.ErrorKind, v.Error)
	}
	if v.Inners != 2 || v.Result != nil {
		t.Fatalf("panicked job reports %d inners and result %+v, want 2 and none", v.Inners, v.Result)
	}
	events := readSSE(t, ts, bad)
	if last := events[len(events)-1]; last.name != "done" || !strings.Contains(last.data, `"failed"`) {
		t.Fatalf("panicked job's terminal event %+v, want done/failed", last)
	}

	if v := waitState(t, ts, good, StateDone); v.Result == nil || !v.Result.Converged {
		t.Fatalf("bystander job after the panic: %+v", v)
	}
	if _, inFlight := s.jobCounts(); inFlight != 0 {
		t.Fatalf("in-flight count %d after both jobs finished, want 0", inFlight)
	}
}

// TestServeQueueFull429 pins the admission contract: with one worker
// pinned by a running job and the one-deep queue occupied, the next
// submission is refused with a structured 429 and a Retry-After header,
// and the refused job never appears in the job table.
func TestServeQueueFull429(t *testing.T) {
	s, ts := startServer(t, Config{MaxConcurrent: 1, QueueDepth: 1})

	_, m := submit(t, ts, longSpec, "")
	running := m["id"].(string)
	waitState(t, ts, running, StateRunning) // worker now pinned

	status, _ := submit(t, ts, tinySpec, "") // fills the queue
	if status != http.StatusAccepted {
		t.Fatalf("queued submit: status %d", status)
	}

	req, _ := http.NewRequest("POST", ts.URL+"/v1/jobs", strings.NewReader(tinySpec))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	_, _ = body.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity submit: status %d, want 429 (%s)", resp.StatusCode, body.String())
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if !strings.Contains(body.String(), "queue full") {
		t.Errorf("429 body %q does not explain itself", body.String())
	}
	s.mu.Lock()
	n := len(s.jobs)
	s.mu.Unlock()
	if n != 2 {
		t.Errorf("job table has %d entries after a refused submit, want 2", n)
	}

	// Unblock the cleanup: cancel the long job so shutdown drains fast.
	req, _ = http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+running, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
}

// TestServeBadRequests pins the validation surface at the HTTP boundary:
// malformed bodies, unknown fields, unknown knob spellings and
// service-unsupported modes are all structured 400s; unknown job ids are
// 404s on every per-job endpoint.
func TestServeBadRequests(t *testing.T) {
	_, ts := startServer(t, Config{MaxConcurrent: 1})
	cases := map[string]string{
		"not json":       `{"problem":`,
		"unknown field":  `{"problem":{"nx":4,"ny":4,"nz":4,"lx":1,"ly":1,"lz":1,"order":1,"angles_per_octant":2,"groups":2},"optoins":{}}`,
		"unknown scheme": `{"problem":{"nx":4,"ny":4,"nz":4,"lx":1,"ly":1,"lz":1,"order":1,"angles_per_octant":2,"groups":2},"options":{"scheme":"warp"}}`,
		"unknown option": `{"problem":{"nx":4,"ny":4,"nz":4,"lx":1,"ly":1,"lz":1,"order":1,"angles_per_octant":2,"groups":2},"options":{"octants":"sequential"}}`,
		"zero grid":      `{"problem":{"nx":0,"ny":4,"nz":4,"lx":1,"ly":1,"lz":1,"order":1,"angles_per_octant":2,"groups":2}}`,
		"time dependent": `{"problem":{"nx":4,"ny":4,"nz":4,"lx":1,"ly":1,"lz":1,"order":1,"angles_per_octant":2,"groups":2},"options":{"time_steps":3,"time_dt":0.1}}`,
		"empty body":     ``,
	}
	for name, body := range cases {
		status, m := submit(t, ts, body, "")
		if status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%v)", name, status, m)
		}
		if status == http.StatusBadRequest && m["error"] == "" {
			t.Errorf("%s: 400 without an error message", name)
		}
	}

	for _, probe := range []struct{ method, path string }{
		{"GET", "/v1/jobs/nope"},
		{"GET", "/v1/jobs/nope/events"},
		{"DELETE", "/v1/jobs/nope"},
	} {
		req, _ := http.NewRequest(probe.method, ts.URL+probe.path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s: status %d, want 404", probe.method, probe.path, resp.StatusCode)
		}
	}
}

// TestServeBoundsSpecs pins the 422 bounds: a thread count above
// GOMAXPROCS, and problems predicted to need more than maxSolveBytes (a
// fine grid with many groups, a high element order), are refused before
// any solver exists: no build runs and no goroutine starts.
func TestServeBoundsSpecs(t *testing.T) {
	s, ts := startServer(t, Config{MaxConcurrent: 1})
	box := `"lx":1,"ly":1,"lz":1,"angles_per_octant":2`
	cases := map[string]struct{ body, want string }{
		"threads": {`{"problem":{"nx":4,"ny":4,"nz":4,"order":1,"groups":2,` + box + `},"options":{"threads":100000000}}`,
			fmt.Sprintf("bound of %d", runtime.GOMAXPROCS(0))},
		"grid and groups": {`{"problem":{"nx":1000,"ny":1000,"nz":1000,"order":1,"groups":1000,` + box + `}}`,
			fmt.Sprintf("bound of %d", maxSolveBytes)},
		"order": {`{"problem":{"nx":1,"ny":1,"nz":1,"order":60,"groups":1,` + box + `}}`,
			fmt.Sprintf("bound of %d", maxSolveBytes)},
	}
	builds, goroutines := build.Builds(), runtime.NumGoroutine()
	for name, c := range cases {
		sp, err := unsnap.ParseSpec([]byte(c.body))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		_, err = s.submit("", sp)
		var se *submitError
		if !errors.As(err, &se) || se.status != http.StatusUnprocessableEntity || !strings.Contains(se.msg, c.want) {
			t.Errorf("%s: got %v, want a 422 naming the %s", name, err, c.want)
		}
	}
	if b, g := build.Builds(), runtime.NumGoroutine(); b != builds || g != goroutines {
		t.Errorf("a refused spec built %d artifacts and started %d goroutines", b-builds, g-goroutines)
	}
	if status, m := submit(t, ts, cases["threads"].body, ""); status != http.StatusUnprocessableEntity || m["error"] == "" {
		t.Errorf("POST /v1/jobs: status %d (%v), want 422 with an error", status, m)
	}
}

// TestServeShutdownDrains pins graceful shutdown: queued jobs complete,
// later submissions are refused with 503, and a shutdown whose grace
// period expires cancels the stragglers instead of hanging.
func TestServeShutdownDrains(t *testing.T) {
	s := New(Config{MaxConcurrent: 1, QueueDepth: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var ids []string
	for i := 0; i < 3; i++ {
		status, m := submit(t, ts, tinySpec, "")
		if status != http.StatusAccepted {
			t.Fatalf("submit %d: status %d", i, status)
		}
		ids = append(ids, m["id"].(string))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	for _, id := range ids {
		if v := getJob(t, ts, id); v.State != StateDone {
			t.Errorf("job %s ended %q after drain, want done (error %q)", id, v.State, v.Error)
		}
	}
	if status, _ := submit(t, ts, tinySpec, ""); status != http.StatusServiceUnavailable {
		t.Errorf("submit after shutdown: status %d, want 503", status)
	}

	// Expired grace period: the running job is cancelled, not awaited.
	s2 := New(Config{MaxConcurrent: 1})
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	_, m := submit(t, ts2, longSpec, "")
	id := m["id"].(string)
	waitState(t, ts2, id, StateRunning)
	ctx2, cancel2 := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel2()
	if err := s2.Shutdown(ctx2); err == nil {
		t.Fatal("expired-grace shutdown returned nil, want context error")
	}
	if v := getJob(t, ts2, id); v.State != StateCancelled {
		t.Errorf("job after forced shutdown: %q, want cancelled", v.State)
	}
}
