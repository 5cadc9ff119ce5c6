package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"unsnap"
	"unsnap/internal/build"
)

// maxBodyBytes bounds a submission body; a Problem+Options spec is a few
// hundred bytes, so 1 MiB is generous.
const maxBodyBytes = 1 << 20

// Handler returns the service's HTTP surface (see the package comment
// for the endpoint contract).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	return mux
}

// submitRequest is the POST /v1/jobs body: a Spec plus the tenant the
// job's cache usage is charged to.
type submitRequest struct {
	Tenant string `json:"tenant,omitempty"`
	unsnap.Spec
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	var req submitRequest
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("invalid spec: %v", err))
		return
	}
	tenant := req.Tenant
	if h := r.Header.Get("X-Tenant"); h != "" {
		tenant = h
	}
	j, err := s.submit(tenant, req.Spec)
	if err != nil {
		var status = http.StatusInternalServerError
		if se, ok := err.(*submitError); ok {
			status = se.status
		}
		if status == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", "1")
		}
		writeError(w, status, err.Error())
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]any{"id": j.id, "state": StateQueued})
}

// balanceView is unsnap.Balance with wire-format tags.
type balanceView struct {
	Source     float64 `json:"source"`
	Absorption float64 `json:"absorption"`
	Leakage    float64 `json:"leakage"`
	Residual   float64 `json:"residual"`
}

// resultView is the terminal payload of a done job.
type resultView struct {
	Outers    int         `json:"outers"`
	Inners    int         `json:"inners"`
	Converged bool        `json:"converged"`
	FinalDF   float64     `json:"final_df"`
	Balance   balanceView `json:"balance"`
	// Flux is the volume-integrated scalar flux per group.
	Flux     []float64 `json:"flux"`
	Attempts int       `json:"attempts,omitempty"`
	Degraded bool      `json:"degraded,omitempty"`

	SetupSeconds float64 `json:"setup_seconds"`
	SweepSeconds float64 `json:"sweep_seconds"`
}

// jobView is the GET /v1/jobs/{id} payload.
type jobView struct {
	ID        string      `json:"id"`
	Tenant    string      `json:"tenant"`
	State     State       `json:"state"`
	Submitted time.Time   `json:"submitted"`
	Started   *time.Time  `json:"started,omitempty"`
	Finished  *time.Time  `json:"finished,omitempty"`
	Inners    int         `json:"inners,omitempty"` // progress so far
	Error     string      `json:"error,omitempty"`
	ErrorKind string      `json:"error_kind,omitempty"` // "internal": the solve panicked (a server bug, not the request)
	Result    *resultView `json:"result,omitempty"`
}

// view snapshots the job for JSON (j.mu taken inside).
func (j *job) view() jobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := jobView{
		ID: j.id, Tenant: j.tenant, State: j.state, Submitted: j.submitted,
		Inners: len(j.events),
	}
	if !j.started.IsZero() {
		t := j.started
		v.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.Finished = &t
	}
	if j.err != nil {
		v.Error = j.err.Error()
		var ie *internalError
		if errors.As(j.err, &ie) {
			v.ErrorKind = "internal"
		}
	}
	if j.res != nil {
		v.Result = &resultView{
			Outers: j.res.Outers, Inners: j.res.Inners,
			Converged: j.res.Converged, FinalDF: j.res.FinalDF,
			Balance: balanceView{
				Source:     j.res.Balance.Source,
				Absorption: j.res.Balance.Absorption,
				Leakage:    j.res.Balance.Leakage,
				Residual:   j.res.Balance.Residual,
			},
			Flux:         j.flux,
			Attempts:     j.res.Attempts,
			Degraded:     j.res.Degraded,
			SetupSeconds: j.res.SetupSeconds,
			SweepSeconds: j.res.SweepSeconds,
		}
	}
	return v
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	j := s.get(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	writeJSON(w, http.StatusOK, j.view())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.cancelJob(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	j.mu.Lock()
	state := j.state
	j.mu.Unlock()
	writeJSON(w, http.StatusAccepted, map[string]any{"id": j.id, "state": state})
}

// handleEvents streams the job's progress as server-sent events: every
// recorded inner as an "event: progress" frame (replayed from the start
// for late subscribers), then one "event: done" frame naming the
// terminal state. The stream ends when the job does or when the client
// disconnects — either way the handler returns and nothing leaks.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.get(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	idx := 0
	for {
		j.mu.Lock()
		pending := j.events[idx:]
		idx = len(j.events)
		state := j.state
		notify := j.notify
		j.mu.Unlock()

		for _, ev := range pending {
			data, _ := json.Marshal(ev)
			fmt.Fprintf(w, "event: progress\ndata: %s\n\n", data)
		}
		if state.terminal() {
			fmt.Fprintf(w, "event: done\ndata: {\"state\":%q}\n\n", state)
			fl.Flush()
			return
		}
		fl.Flush()
		select {
		case <-notify:
		case <-r.Context().Done():
			return
		}
	}
}

// cacheStatsView is build.CacheStats with wire-format tags.
type cacheStatsView struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`
}

// tenantStatsView is build.TenantStats with wire-format tags.
type tenantStatsView struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`
}

// statsView is the GET /v1/stats payload.
type statsView struct {
	Cache   cacheStatsView             `json:"cache"`
	Tenants map[string]tenantStatsView `json:"tenants,omitempty"`
	// Jobs counts every job the server has seen, by state.
	Jobs map[string]int `json:"jobs"`
	// InFlight is the number of running jobs, each holding a worker.
	InFlight int `json:"in_flight"`
	// Builds is the process-wide topology-build counter (build.Builds):
	// a warm-path submission must not move it.
	Builds int64 `json:"builds"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := s.cache.Stats()
	v := statsView{
		Cache: cacheStatsView{
			Hits: st.Hits, Misses: st.Misses, Evictions: st.Evictions,
			Entries: st.Entries, Bytes: st.Bytes,
		},
		Builds: build.Builds(),
	}
	if ts := s.cache.TenantStatsSnapshot(); len(ts) > 0 {
		v.Tenants = make(map[string]tenantStatsView, len(ts))
		for name, t := range ts {
			v.Tenants[name] = tenantStatsView{
				Hits: t.Hits, Misses: t.Misses, Evictions: t.Evictions,
				Entries: t.Entries, Bytes: t.Bytes,
			}
		}
	}
	v.Jobs, v.InFlight = s.jobCounts()
	writeJSON(w, http.StatusOK, v)
}

// writeJSON writes v as the response with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeError writes a structured {"error": ...} payload.
func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
