package main

import (
	"errors"
	"fmt"
	"math"
	"mime/multipart"
	"net/http"
	"net/textproto"
	"net/url"
	"strconv"
	"time"

	"insitu/internal/serve"
)

// Session endpoints: a session keeps the client's last camera pose and
// speculatively renders the predicted next frame into the cache during
// idle headroom, so a well-predicted interactive orbit is served at
// cache-hit latency.
//
//	POST   /v1/session              open (body: frame request; camera = opening pose)
//	GET    /v1/session/{id}         session info + prefetch counters
//	GET    /v1/session/{id}/frame   next frame (query: azimuth, zoom) -> image/png
//	GET    /v1/session/{id}/stream  server-paced orbit as multipart/x-mixed-replace
//	DELETE /v1/session/{id}         close

// handleSessionOpen opens a session from a JSON frame request.
func (s *webServer) handleSessionOpen(w http.ResponseWriter, r *http.Request) {
	var req serve.FrameRequest
	if !decodeBody(w, r, maxFrameBody, &req) {
		return
	}
	sess, err := s.srv.OpenSession(req)
	if err != nil {
		writeServeError(w, err, sessionErrStatus(err))
		return
	}
	serve.WriteJSON(w, http.StatusCreated, sess.Info())
}

// sessionErrStatus extends frameErrStatus with the session-specific
// refusals.
func sessionErrStatus(err error) int {
	switch {
	case errors.Is(err, serve.ErrTooManySessions):
		return http.StatusServiceUnavailable
	case errors.Is(err, serve.ErrSessionClosed):
		return http.StatusGone
	default:
		return frameErrStatus(err)
	}
}

// lookupSession resolves the {id} path value, answering 404 itself when
// the session does not exist.
func (s *webServer) lookupSession(w http.ResponseWriter, r *http.Request) (*serve.Session, bool) {
	sess, ok := s.srv.LookupSession(r.PathValue("id"))
	if !ok {
		serve.WriteJSON(w, http.StatusNotFound, errorBody{Error: "no such session"})
	}
	return sess, ok
}

func (s *webServer) handleSessionInfo(w http.ResponseWriter, r *http.Request) {
	if sess, ok := s.lookupSession(w, r); ok {
		serve.WriteJSON(w, http.StatusOK, sess.Info())
	}
}

func (s *webServer) handleSessionClose(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.lookupSession(w, r)
	if !ok {
		return
	}
	sess.Close()
	w.WriteHeader(http.StatusNoContent)
}

// handleSessionFrame serves the session's next pose. Unset query
// parameters keep the previous pose's value.
func (s *webServer) handleSessionFrame(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.lookupSession(w, r)
	if !ok {
		return
	}
	last := sess.LastPose()
	azimuth, zoom := last.Azimuth, last.Zoom
	q := r.URL.Query()
	var err error
	queryArg(q, "azimuth", &azimuth, parseFloat, &err)
	queryArg(q, "zoom", &zoom, parseFloat, &err)
	if err != nil {
		serve.WriteJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	res, err := sess.Frame(azimuth, zoom)
	if err != nil {
		writeServeError(w, err, sessionErrStatus(err))
		return
	}
	writePNG(w, &res, true)
}

// handleSessionStream pushes a server-paced orbit over the session as
// multipart/x-mixed-replace PNG parts — the browser-compatible motion
// form, and the steady camera velocity the predictor thrives on. Query:
// see streamQuery. The stream ends on client disconnect, after the
// requested frame count, or when the session closes (including server
// drain at shutdown).
func (s *webServer) handleSessionStream(w http.ResponseWriter, r *http.Request) {
	step, interval, frames, err := streamQuery(r.URL.Query())
	if err != nil {
		serve.WriteJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	sess, ok := s.lookupSession(w, r)
	if !ok {
		return
	}

	mw := multipart.NewWriter(w)
	w.Header().Set("Content-Type", "multipart/x-mixed-replace; boundary="+mw.Boundary())
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	pose := sess.LastPose()
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for i := 0; frames <= 0 || i < frames; i++ {
		pose.Azimuth = orbitStep(pose.Azimuth, step)
		res, err := sess.Frame(pose.Azimuth, pose.Zoom)
		if err != nil {
			_ = mw.Close()
			return // session closed or render failed; the boundary ends the stream
		}
		part, err := mw.CreatePart(textproto.MIMEHeader{
			"Content-Type":       {"image/png"},
			"X-Renderd-Prefetch": {hitMiss(res.PrefetchHit)},
		})
		if err != nil {
			return
		}
		if _, err := part.Write(res.PNG); err != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
		select {
		case <-r.Context().Done():
			_ = mw.Close()
			return
		case <-tick.C:
		}
	}
	_ = mw.Close()
}

// orbitStep advances an azimuth by step degrees, wrapped into [0, 360):
// unwrapped, an orbit walks out of the serving path's azimuth bounds.
func orbitStep(azimuth, step float64) float64 {
	azimuth = math.Mod(azimuth+step, 360)
	if azimuth < 0 {
		azimuth = math.Mod(azimuth+360, 360) // a tiny negative rounds up to 360
	}
	return azimuth
}

// streamQuery parses the stream query: step (degrees per part, default
// 15), fps (default 10) and frames (part count, default unbounded). It
// rejects a step that is not finite and an fps whose interval is not a
// positive int64 of nanoseconds, on which time.NewTicker panics.
func streamQuery(q url.Values) (step float64, interval time.Duration, frames int, err error) {
	step, fps := 15.0, 10.0
	queryArg(q, "step", &step, parseFloat, &err)
	queryArg(q, "fps", &fps, parseFloat, &err)
	queryArg(q, "frames", &frames, strconv.Atoi, &err)
	// NaN fails every comparison; a huge fps rounds the interval to 0 ns,
	// a tiny one overflows int64.
	ns := float64(time.Second) / fps
	switch {
	case err != nil:
		return 0, 0, 0, err
	case math.IsNaN(step) || math.IsInf(step, 0):
		return 0, 0, 0, fmt.Errorf("bad step: want a finite number, got %v", step)
	case !(ns >= 1 && ns < math.MaxInt64):
		return 0, 0, 0, fmt.Errorf("bad fps: want a positive rate whose interval is 1ns to 292 years, got %v", fps)
	}
	return step, time.Duration(ns), frames, nil
}
