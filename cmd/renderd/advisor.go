package main

import (
	"encoding/json"
	"errors"
	"net/http"
	"time"

	"insitu/internal/advisor"
	"insitu/internal/registry"
	"insitu/internal/serve"
)

// Advisor endpoints (predict, feasibility, max_triangles, observations,
// reload; see the package doc): the fitted models answer the paper's
// viability questions directly, from the same engine that gates every
// frame.

// maxAdvisorBody bounds advisor request bodies; the largest legitimate
// payload is a few thousand batched predictions.
const maxAdvisorBody = 4 << 20

// writeAnswer writes an engine answer, or its error: unknown models are
// 404, everything else the client sent is 400.
func writeAnswer(w http.ResponseWriter, resp any, err error) {
	switch {
	case errors.Is(err, registry.ErrNoModel):
		serve.WriteJSON(w, http.StatusNotFound, errorBody{Error: err.Error()})
	case err != nil:
		serve.WriteJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
	default:
		serve.WriteJSON(w, http.StatusOK, resp)
	}
}

// oneOrMany unmarshals a request body that is either one T or a JSON
// array of them; batch reports which.
func oneOrMany[T any](raw json.RawMessage) (items []T, batch bool, err error) {
	if len(raw) > 0 && raw[0] == '[' {
		err = json.Unmarshal(raw, &items)
		return items, true, err
	}
	var one T
	err = json.Unmarshal(raw, &one)
	return []T{one}, false, err
}

// adviseHandler serves one single-request engine question.
func adviseHandler[Req, Resp any](ask func(Req) (Resp, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req Req
		if !decodeBody(w, r, maxAdvisorBody, &req) {
			return
		}
		resp, err := ask(req)
		writeAnswer(w, resp, err)
	}
}

// handlePredict accepts one request object or a JSON array of them; a
// batch answers with positionally aligned items so one bad element does
// not fail the rest.
func (s *webServer) handlePredict(w http.ResponseWriter, r *http.Request) {
	var raw json.RawMessage
	if !decodeBody(w, r, maxAdvisorBody, &raw) {
		return
	}
	reqs, batch, err := oneOrMany[advisor.PredictRequest](raw)
	if err != nil {
		serve.WriteJSON(w, http.StatusBadRequest, errorBody{Error: "bad request body: " + err.Error()})
		return
	}
	eng := s.srv.Engine()
	if batch {
		serve.WriteJSON(w, http.StatusOK, eng.PredictBatch(reqs))
		return
	}
	resp, err := eng.Predict(reqs[0])
	writeAnswer(w, resp, err)
}

// observationsAccepted is the 202 body for a queued observation batch:
// the refit happens in the background, so the generation reported here is
// the one serving at accept time — poll /v1/models for the bump.
type observationsAccepted struct {
	Accepted   int    `json:"accepted"`
	Queued     bool   `json:"queued"`
	Generation uint64 `json:"generation"`
}

// handleObservations ingests measured samples for continuous calibration.
// The body is one observation object or a JSON array of them; validation
// is synchronous (a malformed batch is rejected whole with a 400), the
// refit and hot-reload are not.
func (s *webServer) handleObservations(w http.ResponseWriter, r *http.Request) {
	var raw json.RawMessage
	if !decodeBody(w, r, maxAdvisorBody, &raw) {
		return
	}
	obs, _, err := oneOrMany[advisor.Observation](raw)
	if err != nil {
		serve.WriteJSON(w, http.StatusBadRequest, errorBody{Error: "bad request body: " + err.Error()})
		return
	}
	// Read the generation before queueing: with a fast refit cadence the
	// worker can publish before this handler resumes, and reporting the
	// post-refit generation as the accept-time one would make a client
	// polling for "generation > accepted" wait forever.
	gen := s.srv.Engine().Registry().Generation()
	if err := s.srv.QueueObservations(obs); err != nil {
		status := http.StatusServiceUnavailable
		switch {
		case errors.Is(err, serve.ErrBadRequest):
			status = http.StatusBadRequest
		case errors.Is(err, serve.ErrBatchTooLarge):
			status = http.StatusRequestEntityTooLarge
		}
		serve.WriteJSON(w, status, errorBody{Error: err.Error()})
		return
	}
	serve.WriteJSON(w, http.StatusAccepted, observationsAccepted{Accepted: len(obs), Queued: true, Generation: gen})
}

// handleReload hot-reloads the registry file; on failure the previous
// models keep serving and the error is reported.
func (s *webServer) handleReload(w http.ResponseWriter, r *http.Request) {
	reg := s.srv.Engine().Registry()
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
