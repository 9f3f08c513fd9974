package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"insitu/internal/advisor"
	"insitu/internal/cluster"
	"insitu/internal/core"
	"insitu/internal/obs"
	"insitu/internal/registry"
	"insitu/internal/serve"
)

// maxBodyBytes bounds request bodies; a frame request is a few hundred
// bytes.
const maxBodyBytes = 1 << 20

// webServer wires the render-serving subsystem to HTTP. fleet is the
// optional worker cluster behind srv (nil without -cluster); readiness
// reports its quorum.
type webServer struct {
	srv   *serve.Server
	fleet *cluster.Cluster
	start time.Time
}

func newWebServer(srv *serve.Server, fleet *cluster.Cluster) *webServer {
	return &webServer{srv: srv, fleet: fleet, start: time.Now()}
}

// handler builds the route table.
func (s *webServer) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /v1/frame", s.handleFrameGet)
	mux.HandleFunc("POST /v1/frame", s.handleFramePost)
	mux.HandleFunc("POST /v1/session", s.handleSessionOpen)
	mux.HandleFunc("GET /v1/session/{id}", s.handleSessionInfo)
	mux.HandleFunc("GET /v1/session/{id}/frame", s.handleSessionFrame)
	mux.HandleFunc("GET /v1/session/{id}/stream", s.handleSessionStream)
	mux.HandleFunc("DELETE /v1/session/{id}", s.handleSessionClose)
	mux.HandleFunc("GET /v1/models", s.handleModels)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/trace", s.handleTrace)
	mux.HandleFunc("GET /metrics", s.handleProm)
	return mux
}

// writeJSON is the shared buffered-encode helper.
func writeJSON(w http.ResponseWriter, status int, v any) {
	serve.WriteJSON(w, status, v)
}

type errorBody struct {
	Error string `json:"error"`
	// Rejection carries the model's predicted-time verdict when the
	// error is a deadline rejection.
	Rejection *serve.RejectionError `json:"rejection,omitempty"`
}

// writeServeError answers a serving error as a JSON errorBody, carrying
// the model's verdict when the error is a deadline rejection.
func writeServeError(w http.ResponseWriter, err error, status int) {
	body := errorBody{Error: err.Error()}
	errors.As(err, &body.Rejection)
	writeJSON(w, status, body)
}

// frameErrStatus maps serving errors to HTTP statuses: client mistakes
// are 400, unknown models 404, deadline rejections 422 (the request is
// well-formed, the physics disagree), backpressure 503.
func frameErrStatus(err error) int {
	var rej *serve.RejectionError
	switch {
	case errors.As(err, &rej):
		return http.StatusUnprocessableEntity
	case errors.Is(err, serve.ErrBadRequest):
		return http.StatusBadRequest
	case errors.Is(err, registry.ErrNoModel):
		return http.StatusNotFound
	case errors.Is(err, serve.ErrQueueFull), errors.Is(err, serve.ErrClosed):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// serveFrame runs one request through the serving path and writes the
// PNG (or the structured refusal).
func (s *webServer) serveFrame(w http.ResponseWriter, req serve.FrameRequest) {
	res, err := s.srv.Render(req)
	if err != nil {
		writeServeError(w, err, frameErrStatus(err))
		return
	}
	h := w.Header()
	h.Set("Content-Type", "image/png")
	h.Set("X-Renderd-Cache", hitMiss(res.CacheHit))
	h.Set("X-Renderd-Degraded", strconv.FormatBool(res.Degraded))
	h.Set("X-Renderd-Quality", fmt.Sprintf("%dx%d n=%d wl=%d", res.Width, res.Height, res.N, res.RTWorkload))
	h.Set("X-Renderd-Predicted-Seconds", strconv.FormatFloat(res.PredictedSeconds, 'g', 6, 64))
	h.Set("X-Renderd-Render-Seconds", strconv.FormatFloat(res.RenderSeconds, 'g', 6, 64))
	h.Set("X-Renderd-Shards", strconv.Itoa(res.Shards))
	h.Set("X-Renderd-Retries", strconv.Itoa(res.Retries))
	h.Set("X-Renderd-Fleet-Degraded", strconv.FormatBool(res.FleetDegraded))
	h.Set("X-Renderd-Queue-Seconds", strconv.FormatFloat(res.QueueSeconds, 'g', 6, 64))
	if res.DeadlineMiss {
		h.Set("X-Renderd-Deadline-Miss", "1")
	}
	if res.Shards > 1 {
		h.Set("X-Renderd-Composite-Seconds", strconv.FormatFloat(res.CompositeSeconds, 'g', 6, 64))
		h.Set("X-Renderd-Predicted-Composite-Seconds", strconv.FormatFloat(res.PredictedCompositeSeconds, 'g', 6, 64))
		ranks := make([]string, len(res.RankRenderSeconds))
		for i, sec := range res.RankRenderSeconds {
			ranks[i] = strconv.FormatFloat(sec, 'g', 6, 64)
		}
		h.Set("X-Renderd-Rank-Render-Seconds", strings.Join(ranks, ","))
	}
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(res.PNG)
}

func hitMiss(hit bool) string {
	if hit {
		return "hit"
	}
	return "miss"
}

// handleFramePost renders from a JSON body.
func (s *webServer) handleFramePost(w http.ResponseWriter, r *http.Request) {
	var req serve.FrameRequest
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad request body: " + err.Error()})
		return
	}
	s.serveFrame(w, req)
}

// handleFrameGet renders from query parameters — the curl-friendly
// form: /v1/frame?backend=raytracer&sim=kripke&n=24&size=256&deadline_ms=50
func (s *webServer) handleFrameGet(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	req := serve.FrameRequest{
		Backend: core.Renderer(q.Get("backend")),
		Sim:     q.Get("sim"),
		Arch:    q.Get("arch"),
	}
	intArg := func(name string, dst *int) bool {
		v := q.Get(name)
		if v == "" {
			return true
		}
		n, err := strconv.Atoi(v)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("bad %s: %v", name, err)})
			return false
		}
		*dst = n
		return true
	}
	floatArg := func(name string, dst *float64) bool {
		v := q.Get(name)
		if v == "" {
			return true
		}
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("bad %s: %v", name, err)})
			return false
		}
		*dst = f
		return true
	}
	var size int
	if !intArg("n", &req.N) || !intArg("size", &size) ||
		!intArg("width", &req.Width) || !intArg("height", &req.Height) ||
		!intArg("shards", &req.Shards) ||
		!floatArg("azimuth", &req.Azimuth) || !floatArg("zoom", &req.Zoom) ||
		!floatArg("deadline_ms", &req.DeadlineMillis) {
		return
	}
	if size > 0 && req.Width == 0 {
		req.Width = size
	}
	s.serveFrame(w, req)
}

// healthzBody is the liveness document.
type healthzBody struct {
	Status        string `json:"status"`
	Models        int    `json:"models"`
	Generation    uint64 `json:"generation"`
	UptimeSeconds int64  `json:"uptime_seconds"`
}

// handleHealthz is pure liveness: the process is up and answering. It
// always returns 200 — a renderd with an empty registry or a degraded
// fleet is alive, just not ready; orchestrators that restart on failed
// liveness must not confuse the two (that restart loop would be worse
// than the degradation). Readiness gating belongs to /readyz.
func (s *webServer) handleHealthz(w http.ResponseWriter, r *http.Request) {
	body := healthzBody{
		Status:        "ok",
		UptimeSeconds: int64(time.Since(s.start).Seconds()),
	}
	if v, err := s.srv.Engine().Registry().View(); err == nil {
		body.Generation = v.Generation()
		body.Models = len(v.Snapshot().Models)
	}
	writeJSON(w, http.StatusOK, body)
}

// readyzBody is the readiness document: can this process serve frames
// well right now?
type readyzBody struct {
	Status     string `json:"status"`
	Models     int    `json:"models"`
	Generation uint64 `json:"generation"`
	// Fleet health, present when this renderd fronts a worker cluster.
	// Ready requires a majority of ranks alive: below quorum the fleet
	// serves only heavily clamped or fallback frames, so a load balancer
	// should prefer a healthier replica.
	FleetWorkers int   `json:"fleet_workers,omitempty"`
	FleetAlive   int   `json:"fleet_alive,omitempty"`
	FleetDead    []int `json:"fleet_dead,omitempty"`
}

func (s *webServer) handleReadyz(w http.ResponseWriter, r *http.Request) {
	body := readyzBody{Status: "ok"}
	v, err := s.srv.Engine().Registry().View()
	if err != nil {
		body.Status = "no models loaded"
		writeJSON(w, http.StatusServiceUnavailable, body)
		return
	}
	body.Generation = v.Generation()
	body.Models = len(v.Snapshot().Models)
	if s.fleet != nil {
		body.FleetWorkers = s.fleet.Workers()
		body.FleetAlive = s.fleet.AliveWorkers()
		body.FleetDead = s.fleet.DeadRanks()
		if 2*body.FleetAlive <= body.FleetWorkers {
			body.Status = "fleet below quorum"
			writeJSON(w, http.StatusServiceUnavailable, body)
			return
		}
	}
	writeJSON(w, http.StatusOK, body)
}

// modelsBody mirrors advisord's /v1/models so clients can watch the
// calibration generation on either service.
type modelsBody struct {
	Generation  uint64              `json:"generation"`
	Source      string              `json:"source"`
	CreatedUnix int64               `json:"created_unix"`
	Mapping     registry.MappingDoc `json:"mapping"`
	Archs       []string            `json:"archs"`
	Models      []registry.ModelDoc `json:"models"`
	Compositing *registry.ModelDoc  `json:"compositing,omitempty"`
}

func (s *webServer) handleModels(w http.ResponseWriter, r *http.Request) {
	v, err := s.srv.Engine().Registry().View()
	if err != nil {
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "no registry loaded"})
		return
	}
	snap := v.Snapshot()
	archs := make([]string, 0, 2)
	seen := map[string]bool{}
	for _, d := range snap.Models {
		if !seen[d.Arch] {
			seen[d.Arch] = true
			archs = append(archs, d.Arch)
		}
	}
	sort.Strings(archs)
	writeJSON(w, http.StatusOK, modelsBody{
		Generation:  v.Generation(),
		Source:      snap.Source,
		CreatedUnix: snap.CreatedUnix,
		Mapping:     snap.Mapping,
		Archs:       archs,
		Models:      snap.Models,
		Compositing: snap.Compositing,
	})
}

// metricsBody merges the serving-path counters with the advisor
// engine's per-operation latencies and the registry's prediction-cache
// stats.
type metricsBody struct {
	UptimeSeconds int64               `json:"uptime_seconds"`
	Generation    uint64              `json:"generation"`
	Serve         serve.Stats         `json:"serve"`
	Ops           []advisor.OpStats   `json:"ops"`
	PredictCache  registry.CacheStats `json:"predict_cache"`
}

func (s *webServer) metricsSnapshot() metricsBody {
	eng := s.srv.Engine()
	return metricsBody{
		UptimeSeconds: int64(time.Since(s.start).Seconds()),
		Generation:    eng.Registry().Generation(),
		Serve:         s.srv.Stats(),
		Ops:           eng.Metrics(),
		PredictCache:  eng.Registry().CacheStats(),
	}
}

func (s *webServer) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.metricsSnapshot())
}

// handleProm renders the same metrics snapshot /v1/metrics serves, in
// Prometheus text exposition format, so a scraper needs no sidecar.
func (s *webServer) handleProm(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := obs.WriteProm(w, "renderd", s.metricsSnapshot()); err != nil {
		// Headers are out; all we can do is log through the access log.
		_ = err
	}
}

// traceBody is the /v1/trace document: the most recent committed frame
// lifecycle traces, oldest first.
type traceBody struct {
	Count  int             `json:"count"`
	Traces []obs.TraceJSON `json:"traces"`
}

// handleTrace serves recent frame lifecycle traces. Query: last=N
// (default 64, bounded by the tracer's ring capacity) selects how many;
// format=chrome streams a chrome://tracing-loadable trace_event array
// instead of the native timeline JSON.
func (s *webServer) handleTrace(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	last := 64
	if v := q.Get("last"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("bad last: %q", v)})
			return
		}
		last = n
	}
	traces := s.srv.Traces(last)
	if q.Get("format") == "chrome" {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition", `attachment; filename="renderd-trace.json"`)
		_ = obs.WriteChromeTrace(w, traces)
		return
	}
	body := traceBody{Count: len(traces), Traces: make([]obs.TraceJSON, len(traces))}
	for i := range traces {
		body.Traces[i] = traces[i].JSON()
	}
	writeJSON(w, http.StatusOK, body)
}

// logRequests is minimal access logging middleware.
func logRequests(logf func(format string, args ...any), next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		next.ServeHTTP(w, r)
		logf("%s %s %s", r.Method, r.URL.Path, time.Since(start))
	})
}
