// Command unsnap-serve runs the transport solve service: a long-running
// multi-tenant HTTP/JSON front end that accepts Problem+Options specs as
// jobs, runs them on a bounded worker pool over one shared artifact
// cache, and streams per-inner progress as server-sent events. See the
// unsnap/internal/serve package comment for the endpoint contract and
// the README's "Running the server" walkthrough for a curl session.
//
// Usage:
//
//	unsnap-serve -addr :8080 -max-concurrent 4 -queue-depth 32 \
//	             -cache-bytes 268435456 -tenant-bytes 67108864
//
// The process shuts down gracefully on SIGINT/SIGTERM: intake stops
// (submissions get 503), queued and running jobs drain, and any job
// still running when -drain expires is cancelled through its context.
//
// -smoke runs an in-process self-test instead of serving: it boots the
// service on a loopback port, submits a tiny solve twice, and verifies
// that both converge, that the second submission was a pure cache hit
// (the topology-build counter does not move), and that shutdown drains
// cleanly. It prints one greppable verdict line; CI gates on it.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"unsnap/internal/build"
	"unsnap/internal/serve"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "unsnap-serve:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("unsnap-serve", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	maxConcurrent := fs.Int("max-concurrent", 0, "max concurrent solves (0 = GOMAXPROCS)")
	queueDepth := fs.Int("queue-depth", 16, "queued jobs beyond the running ones before submissions get 429")
	cacheBytes := fs.Int64("cache-bytes", 0, "shared artifact cache budget in bytes (0 = unbounded)")
	tenantBytes := fs.Int64("tenant-bytes", 0, "per-tenant artifact cache budget in bytes (0 = unbounded)")
	maxDeadline := fs.Duration("max-deadline", 0, "cap per-job deadlines and apply to jobs that set none (0 = trust the specs)")
	drain := fs.Duration("drain", 30*time.Second, "graceful-shutdown grace period before in-flight jobs are cancelled")
	smoke := fs.Bool("smoke", false, "run the in-process self-test and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := serve.Config{
		MaxConcurrent: *maxConcurrent,
		QueueDepth:    *queueDepth,
		CacheBytes:    *cacheBytes,
		TenantBytes:   *tenantBytes,
		MaxDeadline:   *maxDeadline,
	}
	if *smoke {
		return runSmoke(cfg)
	}

	s := serve.New(cfg)
	httpServer := newHTTPServer(s.Handler())
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Printf("unsnap-serve: listening on %s (max-concurrent %d, queue %d)\n",
		ln.Addr(), cfg.MaxConcurrent, cfg.QueueDepth)

	errc := make(chan error, 1)
	go func() { errc <- httpServer.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		fmt.Printf("unsnap-serve: %v, draining (up to %v)\n", sig, *drain)
	}
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpServer.Shutdown(ctx); err != nil {
		return fmt.Errorf("http shutdown: %w", err)
	}
	if err := s.Shutdown(ctx); err != nil {
		return fmt.Errorf("job drain: %w (in-flight jobs were cancelled)", err)
	}
	fmt.Println("unsnap-serve: drained clean")
	return nil
}

// smokeSpec is the tiny solve the self-test submits (twice).
const smokeSpec = `{
	"problem": {"nx":4,"ny":4,"nz":4,"lx":1,"ly":1,"lz":1,
	            "order":1,"angles_per_octant":2,"groups":2},
	"options": {"epsi":1e-4,"max_inners":10,"max_outers":4}
}`

// newHTTPServer builds the server both the real and the smoke path serve
// on, so the two cannot drift. A client that never finishes its request
// headers, or parks an idle keep-alive connection, must not hold a
// goroutine and a descriptor forever. There is deliberately no
// WriteTimeout (or ReadTimeout): GET /v1/jobs/{id}/events is a long-lived
// SSE stream, and a whole-response deadline would cut it off mid-job.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}

// runSmoke boots the service on loopback and drives it as a client. It
// always prints the verdict line (CI greps for it) and returns an error
// on any failed expectation.
func runSmoke(cfg serve.Config) error {
	s := serve.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	httpServer := newHTTPServer(s.Handler())
	go func() { _ = httpServer.Serve(ln) }()
	base := "http://" + ln.Addr().String()

	converged := false
	warmBuilds := int64(-1)
	clean := false
	defer func() {
		fmt.Printf("serve-smoke: converged %v, warm builds %d, shutdown clean %v\n",
			converged, warmBuilds, clean)
	}()

	runOne := func() (map[string]any, error) {
		resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(smokeSpec))
		if err != nil {
			return nil, err
		}
		var acc struct {
			ID    string `json:"id"`
			Error string `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&acc)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusAccepted {
			return nil, fmt.Errorf("submit: status %d (%s)", resp.StatusCode, acc.Error)
		}
		deadline := time.Now().Add(60 * time.Second)
		for {
			resp, err := http.Get(base + "/v1/jobs/" + acc.ID)
			if err != nil {
				return nil, err
			}
			var v map[string]any
			err = json.NewDecoder(resp.Body).Decode(&v)
			resp.Body.Close()
			if err != nil {
				return nil, err
			}
			switch v["state"] {
			case "done":
				return v, nil
			case "failed", "cancelled":
				return nil, fmt.Errorf("job ended %v: %v", v["state"], v["error"])
			}
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("job stuck in %v", v["state"])
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	v1, err := runOne()
	if err != nil {
		return err
	}
	builds0 := build.Builds()
	v2, err := runOne()
	if err != nil {
		return err
	}
	warmBuilds = build.Builds() - builds0
	r1, ok1 := v1["result"].(map[string]any)
	r2, ok2 := v2["result"].(map[string]any)
	if !ok1 || !ok2 {
		return fmt.Errorf("done jobs without results")
	}
	converged = r1["converged"] == true && r2["converged"] == true
	if !converged {
		return fmt.Errorf("smoke solves did not converge")
	}
	if warmBuilds != 0 {
		return fmt.Errorf("second same-mesh job ran %d topology builds, want 0", warmBuilds)
	}
	if fmt.Sprint(r1["flux"]) != fmt.Sprint(r2["flux"]) {
		return fmt.Errorf("warm resubmit changed the flux: %v vs %v", r1["flux"], r2["flux"])
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpServer.Shutdown(ctx); err != nil {
		return err
	}
	if err := s.Shutdown(ctx); err != nil {
		return err
	}
	clean = true
	return nil
}
