package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"sync"
	"time"

	"insitu/internal/advisor"
	"insitu/internal/core"
	"insitu/internal/obs"
	"insitu/internal/registry"
	"insitu/internal/serve"
)

// maxBodyBytes bounds request bodies; the largest legitimate payload is a
// few thousand batched predictions.
const maxBodyBytes = 4 << 20

// server wires the advisor engine to HTTP.
type server struct {
	engine *advisor.Engine
	start  time.Time

	// Observation ingestion: validated sample batches queue here and a
	// background worker refits off the request path. Nil until
	// startCalibration. obsMu orders handler enqueues against
	// stopCalibration's close so a request that outlives the server's
	// drain window cannot send on a closed channel.
	obsMu     sync.RWMutex
	obsCh     chan []core.Sample
	obsClosed bool
	obsWG     sync.WaitGroup
	obsLogf   func(format string, args ...any)
}

func newServer(e *advisor.Engine) *server {
	return &server{engine: e, start: time.Now()}
}

// startCalibration opens the observation queue and starts the background
// refit worker. The engine must already have an observer configured.
func (s *server) startCalibration(queue int, logf func(format string, args ...any)) {
	if queue < 1 {
		queue = 1
	}
	s.obsCh = make(chan []core.Sample, queue)
	s.obsLogf = logf
	s.obsWG.Add(1)
	go func() {
		defer s.obsWG.Done()
		for batch := range s.obsCh {
			resp, err := s.engine.Observe(batch)
			if err != nil {
				s.obsLogf("observe: %d samples rejected: %v", len(batch), err)
				continue
			}
			if resp.Published {
				s.obsLogf("observe: corpus %d, published generation %d", resp.CorpusSize, resp.Generation)
			}
		}
	}()
}

// stopCalibration drains the queue and stops the worker. Batches already
// accepted are refitted; late handlers answer 503.
func (s *server) stopCalibration() {
	s.obsMu.Lock()
	if s.obsCh == nil || s.obsClosed {
		s.obsMu.Unlock()
		return
	}
	s.obsClosed = true
	close(s.obsCh)
	s.obsMu.Unlock()
	s.obsWG.Wait()
}

// enqueueObservations hands a validated batch to the background worker.
// ok=false means ingestion is disabled or stopped; full=true means the
// queue had no room.
func (s *server) enqueueObservations(samples []core.Sample) (ok, full bool) {
	s.obsMu.RLock()
	defer s.obsMu.RUnlock()
	if s.obsCh == nil || s.obsClosed {
		return false, false
	}
	select {
	case s.obsCh <- samples:
		return true, false
	default:
		return false, true
	}
}

// handler builds the route table.
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/models", serve.ModelsHandler(s.engine.Registry()))
	mux.HandleFunc("POST /v1/predict", s.handlePredict)
	mux.HandleFunc("POST /v1/feasibility", s.handleFeasibility)
	mux.HandleFunc("POST /v1/max_triangles", s.handleMaxTriangles)
	mux.HandleFunc("POST /v1/observations", s.handleObservations)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	mux.HandleFunc("GET /metrics", s.handleProm)
	mux.HandleFunc("POST /v1/reload", s.handleReload)
	return mux
}

type errorBody struct {
	Error string `json:"error"`
}

// errStatus maps engine errors to HTTP statuses: unknown models are 404,
// everything else the client sent is 400.
func errStatus(err error) int {
	if errors.Is(err, registry.ErrNoModel) {
		return http.StatusNotFound
	}
	return http.StatusBadRequest
}

// bodyErrStatus distinguishes an oversized body (413) from malformed
// JSON (400).
func bodyErrStatus(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if err := json.NewDecoder(body).Decode(v); err != nil {
		serve.WriteJSON(w, bodyErrStatus(err), errorBody{Error: "bad request body: " + err.Error()})
		return false
	}
	return true
}

// healthzBody is the liveness document.
type healthzBody struct {
	Status        string `json:"status"`
	Models        int    `json:"models"`
	Generation    uint64 `json:"generation"`
	UptimeSeconds int64  `json:"uptime_seconds"`
	LastReload    int64  `json:"last_reload_unix,omitempty"`
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	reg := s.engine.Registry()
	body := healthzBody{
		Status:        "ok",
		UptimeSeconds: int64(time.Since(s.start).Seconds()),
	}
	if lr := reg.LastReload(); !lr.IsZero() {
		body.LastReload = lr.Unix()
	}
	// One consistent view: generation and model count from the same load.
	v, err := reg.View()
	if err != nil {
		body.Status = "empty"
		serve.WriteJSON(w, http.StatusServiceUnavailable, body)
		return
	}
	body.Generation = v.Generation()
	body.Models = len(v.Snapshot().Models)
	serve.WriteJSON(w, http.StatusOK, body)
}

// modelsBody is the /v1/models response, shared with the other
// serving binary.
type modelsBody = serve.ModelsBody

// handlePredict accepts one request object or a JSON array of them; a
// batch answers with positionally aligned items so one bad element does
// not fail the rest.
func (s *server) handlePredict(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		serve.WriteJSON(w, bodyErrStatus(err), errorBody{Error: "bad request body: " + err.Error()})
		return
	}
	trimmed := bytes.TrimLeft(body, " \t\r\n")
	if len(trimmed) > 0 && trimmed[0] == '[' {
		var reqs []advisor.PredictRequest
		if err := json.Unmarshal(body, &reqs); err != nil {
			serve.WriteJSON(w, http.StatusBadRequest, errorBody{Error: "bad batch body: " + err.Error()})
			return
		}
		serve.WriteJSON(w, http.StatusOK, s.engine.PredictBatch(reqs))
		return
	}
	var req advisor.PredictRequest
	if err := json.Unmarshal(body, &req); err != nil {
		serve.WriteJSON(w, http.StatusBadRequest, errorBody{Error: "bad request body: " + err.Error()})
		return
	}
	resp, err := s.engine.Predict(req)
	if err != nil {
		serve.WriteJSON(w, errStatus(err), errorBody{Error: err.Error()})
		return
	}
	serve.WriteJSON(w, http.StatusOK, resp)
}

func (s *server) handleFeasibility(w http.ResponseWriter, r *http.Request) {
	var req advisor.FeasibilityRequest
	if !decodeBody(w, r, &req) {
		return
	}
	resp, err := s.engine.Feasibility(req)
	if err != nil {
		serve.WriteJSON(w, errStatus(err), errorBody{Error: err.Error()})
		return
	}
	serve.WriteJSON(w, http.StatusOK, resp)
}

func (s *server) handleMaxTriangles(w http.ResponseWriter, r *http.Request) {
	var req advisor.MaxTrianglesRequest
	if !decodeBody(w, r, &req) {
		return
	}
	resp, err := s.engine.MaxTriangles(req)
	if err != nil {
		serve.WriteJSON(w, errStatus(err), errorBody{Error: err.Error()})
		return
	}
	serve.WriteJSON(w, http.StatusOK, resp)
}

// observationsAccepted is the 202 body for a queued observation batch:
// the refit happens in the background, so the generation reported here is
// the one serving at accept time — poll /v1/models (or /healthz) for the
// bump.
type observationsAccepted struct {
	Accepted   int    `json:"accepted"`
	Queued     bool   `json:"queued"`
	Generation uint64 `json:"generation"`
}

// handleObservations ingests measured samples for continuous calibration.
// The body is one observation object or a JSON array of them; validation
// is synchronous (a malformed batch is rejected whole with a 400), the
// refit and hot-reload are not.
func (s *server) handleObservations(w http.ResponseWriter, r *http.Request) {
	if s.obsCh == nil {
		serve.WriteJSON(w, http.StatusServiceUnavailable,
			errorBody{Error: "observation ingestion disabled (start advisord with -calibrate)"})
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		serve.WriteJSON(w, bodyErrStatus(err), errorBody{Error: "bad request body: " + err.Error()})
		return
	}
	var obs []advisor.Observation
	trimmed := bytes.TrimLeft(body, " \t\r\n")
	if len(trimmed) > 0 && trimmed[0] == '[' {
		err = json.Unmarshal(body, &obs)
	} else {
		var one advisor.Observation
		if err = json.Unmarshal(body, &one); err == nil {
			obs = []advisor.Observation{one}
		}
	}
	if err != nil {
		serve.WriteJSON(w, http.StatusBadRequest, errorBody{Error: "bad request body: " + err.Error()})
		return
	}
	samples, err := advisor.SamplesFromObservations(obs)
	if err != nil {
		serve.WriteJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	// Read the generation before enqueueing: with a fast refit cadence
	// the worker can publish before this handler resumes, and reporting
	// the post-refit generation as the accept-time one would make a
	// client polling for "generation > accepted" wait forever.
	gen := s.engine.Registry().Generation()
	ok, full := s.enqueueObservations(samples)
	switch {
	case ok:
		serve.WriteJSON(w, http.StatusAccepted, observationsAccepted{
			Accepted:   len(samples),
			Queued:     true,
			Generation: gen,
		})
	case full:
		serve.WriteJSON(w, http.StatusServiceUnavailable, errorBody{Error: "calibration queue full, retry later"})
	default:
		serve.WriteJSON(w, http.StatusServiceUnavailable, errorBody{Error: "observation ingestion stopped"})
	}
}

// metricsBody reports per-operation latency and cache effectiveness.
type metricsBody struct {
	UptimeSeconds int64               `json:"uptime_seconds"`
	Generation    uint64              `json:"generation"`
	Ops           []advisor.OpStats   `json:"ops"`
	Cache         registry.CacheStats `json:"cache"`
}

func (s *server) metricsSnapshot() metricsBody {
	return metricsBody{
		UptimeSeconds: int64(time.Since(s.start).Seconds()),
		Generation:    s.engine.Registry().Generation(),
		Ops:           s.engine.Metrics(),
		Cache:         s.engine.Registry().CacheStats(),
	}
}

func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	serve.WriteJSON(w, http.StatusOK, s.metricsSnapshot())
}

// handleProm renders the same snapshot /v1/metrics serves, as Prometheus
// text exposition, so advisord scrapes with no sidecar.
func (s *server) handleProm(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = obs.WriteProm(w, "advisord", s.metricsSnapshot())
}

// handleReload hot-reloads the registry file; on failure the previous
// models keep serving and the error is reported.
func (s *server) handleReload(w http.ResponseWriter, r *http.Request) {
	reg := s.engine.Registry()
	if err := reg.Reload(); err != nil {
		serve.WriteJSON(w, http.StatusConflict, errorBody{Error: err.Error()})
		return
	}
	v, err := reg.View()
	if err != nil {
		serve.WriteJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
		return
	}
	serve.WriteJSON(w, http.StatusOK, healthzBody{
		Status:        "ok",
		Models:        len(v.Snapshot().Models),
		Generation:    v.Generation(),
		UptimeSeconds: int64(time.Since(s.start).Seconds()),
		LastReload:    reg.LastReload().Unix(),
	})
}
