package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
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

// maxFrameBody bounds frame and session request bodies; a frame request
// is a few hundred bytes.
const maxFrameBody = 1 << 20

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
	mux.HandleFunc("GET /v1/models", serve.ModelsHandler(s.srv.Engine().Registry()))
	mux.HandleFunc("POST /v1/predict", s.handlePredict)
	mux.HandleFunc("POST /v1/feasibility", adviseHandler(s.srv.Engine().Feasibility))
	mux.HandleFunc("POST /v1/max_triangles", adviseHandler(s.srv.Engine().MaxTriangles))
	mux.HandleFunc("POST /v1/observations", s.handleObservations)
	mux.HandleFunc("POST /v1/reload", s.handleReload)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/trace", s.handleTrace)
	mux.HandleFunc("GET /metrics", s.handleProm)
	return mux
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
	serve.WriteJSON(w, status, body)
}

// decodeBody decodes a JSON request body of at most limit bytes into v,
// answering 413 itself for an oversized body and 400 for malformed JSON.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit)).Decode(v)
	if err == nil {
		return true
	}
	status := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		status = http.StatusRequestEntityTooLarge
	}
	serve.WriteJSON(w, status, errorBody{Error: "bad request body: " + err.Error()})
	return false
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
	writePNG(w, &res, false)
}

// writePNG answers a served frame in net/http's minimum of two socket
// writes: with a Content-Length (a PNG over 2 KB would go out chunked,
// its terminator in a third write), the headers set by canonical key
// over one backing array, and the cached PNG in one Write. A session
// frame carries the session subset of the X-Renderd-* headers.
func writePNG(w http.ResponseWriter, res *serve.FrameResult, session bool) {
	h := w.Header()
	vals := make([]string, 0, 16)
	set := func(key, v string) {
		vals = append(vals, v)
		h[key] = vals[len(vals)-1 : len(vals) : len(vals)]
	}
	set("Content-Type", "image/png")
	set("Content-Length", strconv.Itoa(len(res.PNG)))
	set("X-Renderd-Cache", hitMiss(res.CacheHit))
	set("X-Renderd-Quality", strconv.Itoa(res.Width)+"x"+strconv.Itoa(res.Height)+" n="+strconv.Itoa(res.N)+" wl="+strconv.Itoa(res.RTWorkload))
	set("X-Renderd-Queue-Seconds", seconds(res.QueueSeconds))
	if res.DeadlineMiss {
		set("X-Renderd-Deadline-Miss", "1")
	}
	if session {
		set("X-Renderd-Prefetch", hitMiss(res.PrefetchHit))
	} else {
		set("X-Renderd-Degraded", strconv.FormatBool(res.Degraded))
		set("X-Renderd-Predicted-Seconds", seconds(res.PredictedSeconds))
		set("X-Renderd-Render-Seconds", seconds(res.RenderSeconds))
		set("X-Renderd-Shards", strconv.Itoa(res.Shards))
		set("X-Renderd-Retries", strconv.Itoa(res.Retries))
		set("X-Renderd-Fleet-Degraded", strconv.FormatBool(res.FleetDegraded))
		if res.Shards > 1 {
			set("X-Renderd-Composite-Seconds", seconds(res.CompositeSeconds))
			set("X-Renderd-Predicted-Composite-Seconds", seconds(res.PredictedCompositeSeconds))
			ranks := make([]string, len(res.RankRenderSeconds))
			for i, sec := range res.RankRenderSeconds {
				ranks[i] = seconds(sec)
			}
			set("X-Renderd-Rank-Render-Seconds", strings.Join(ranks, ","))
		}
	}
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(res.PNG)
}

func seconds(sec float64) string { return strconv.FormatFloat(sec, 'g', 6, 64) }

func hitMiss(hit bool) string {
	if hit {
		return "hit"
	}
	return "miss"
}

// handleFramePost renders from a JSON body.
func (s *webServer) handleFramePost(w http.ResponseWriter, r *http.Request) {
	var req serve.FrameRequest
	if decodeBody(w, r, maxFrameBody, &req) {
		s.serveFrame(w, req)
	}
}

// handleFrameGet renders from query parameters — the curl-friendly
// form: /v1/frame?backend=raytracer&sim=kripke&n=24&size=256&deadline_ms=50
func (s *webServer) handleFrameGet(w http.ResponseWriter, r *http.Request) {
	req, err := frameQuery(r.URL.Query())
	if err != nil {
		serve.WriteJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	s.serveFrame(w, req)
}

// frameQuery parses a GET /v1/frame query into the JSON form's request
// (size is the width when width is unset). It rejects only malformed
// numbers; the serving path checks ranges.
func frameQuery(q url.Values) (req serve.FrameRequest, err error) {
	req = serve.FrameRequest{Backend: core.Renderer(q.Get("backend")), Sim: q.Get("sim"), Arch: q.Get("arch")}
	var size int
	queryArg(q, "n", &req.N, strconv.Atoi, &err)
	queryArg(q, "size", &size, strconv.Atoi, &err)
	queryArg(q, "width", &req.Width, strconv.Atoi, &err)
	queryArg(q, "height", &req.Height, strconv.Atoi, &err)
	queryArg(q, "shards", &req.Shards, strconv.Atoi, &err)
	queryArg(q, "azimuth", &req.Azimuth, parseFloat, &err)
	queryArg(q, "zoom", &req.Zoom, parseFloat, &err)
	queryArg(q, "deadline_ms", &req.DeadlineMillis, parseFloat, &err)
	if size > 0 && req.Width == 0 {
		req.Width = size
	}
	return req, err
}

// queryArg parses query parameter name into *dst when it is present,
// unless an earlier parameter already set *err.
func queryArg[T any](q url.Values, name string, dst *T, parse func(string) (T, error), err *error) {
	if v := q.Get(name); v != "" && *err == nil {
		var perr error
		if *dst, perr = parse(v); perr != nil {
			*err = fmt.Errorf("bad %s: %v", name, perr)
		}
	}
}

func parseFloat(v string) (float64, error) { return strconv.ParseFloat(v, 64) }

// healthzBody is the liveness document. LastReload is set only in the
// /v1/reload answer.
type healthzBody struct {
	Status        string `json:"status"`
	Models        int    `json:"models"`
	Generation    uint64 `json:"generation"`
	UptimeSeconds int64  `json:"uptime_seconds"`
	LastReload    int64  `json:"last_reload_unix,omitempty"`
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
	serve.WriteJSON(w, http.StatusOK, body)
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
		serve.WriteJSON(w, http.StatusServiceUnavailable, body)
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
			serve.WriteJSON(w, http.StatusServiceUnavailable, body)
			return
		}
	}
	serve.WriteJSON(w, http.StatusOK, body)
}

// metricsBody merges the serving-path counters with the advisor
// engine's per-operation latencies.
type metricsBody struct {
	UptimeSeconds int64             `json:"uptime_seconds"`
	Generation    uint64            `json:"generation"`
	Serve         serve.Stats       `json:"serve"`
	Ops           []advisor.OpStats `json:"ops"`
}

func (s *webServer) metricsSnapshot() metricsBody {
	eng := s.srv.Engine()
	return metricsBody{
		UptimeSeconds: int64(time.Since(s.start).Seconds()),
		Generation:    eng.Registry().Generation(),
		Serve:         s.srv.Stats(),
		Ops:           eng.Metrics(),
	}
}

func (s *webServer) handleMetrics(w http.ResponseWriter, r *http.Request) {
	serve.WriteJSON(w, http.StatusOK, s.metricsSnapshot())
}

// handleProm renders the same metrics snapshot /v1/metrics serves, in
// Prometheus text exposition format, so a scraper needs no sidecar.
func (s *webServer) handleProm(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = obs.WriteProm(w, "renderd", s.metricsSnapshot())
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
	var err error
	if queryArg(q, "last", &last, strconv.Atoi, &err); err != nil || last < 1 {
		serve.WriteJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("bad last: %q", q.Get("last"))})
		return
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
	serve.WriteJSON(w, http.StatusOK, body)
}
