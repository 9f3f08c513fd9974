package main

import (
	"errors"
	"fmt"
	"mime/multipart"
	"net/http"
	"net/textproto"
	"strconv"
	"time"

	"insitu/internal/serve"
)

// Session endpoints: a session pins a warm renderer, tracks the
// client's camera path, and speculatively renders the predicted next
// frames into the cache during idle headroom, so a well-predicted
// interactive orbit is served at cache-hit latency.
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
	if v := q.Get("azimuth"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			serve.WriteJSON(w, http.StatusBadRequest, errorBody{Error: "bad azimuth: " + err.Error()})
			return
		}
		azimuth = f
	}
	if v := q.Get("zoom"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			serve.WriteJSON(w, http.StatusBadRequest, errorBody{Error: "bad zoom: " + err.Error()})
			return
		}
		zoom = f
	}
	res, err := sess.Frame(azimuth, zoom)
	if err != nil {
		writeServeError(w, err, sessionErrStatus(err))
		return
	}
	h := w.Header()
	h.Set("Content-Type", "image/png")
	h.Set("X-Renderd-Cache", hitMiss(res.CacheHit))
	h.Set("X-Renderd-Prefetch", hitMiss(res.PrefetchHit))
	h.Set("X-Renderd-Quality", fmt.Sprintf("%dx%d n=%d wl=%d", res.Width, res.Height, res.N, res.RTWorkload))
	h.Set("X-Renderd-Queue-Seconds", strconv.FormatFloat(res.QueueSeconds, 'g', 6, 64))
	if res.DeadlineMiss {
		h.Set("X-Renderd-Deadline-Miss", "1")
	}
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(res.PNG)
}

// handleSessionStream pushes a server-paced orbit over the session as
// multipart/x-mixed-replace PNG parts — the browser-compatible motion
// form, and the steady camera velocity the predictor thrives on. Query:
// step (degrees per frame, default 15), fps (default 10), frames (part
// count, default unbounded). The stream ends on client disconnect,
// after the requested frame count, or when the session closes
// (including server drain at shutdown).
func (s *webServer) handleSessionStream(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.lookupSession(w, r)
	if !ok {
		return
	}
	step, fps, frames := 15.0, 10.0, 0
	q := r.URL.Query()
	bad := func(name string, err error) {
		serve.WriteJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("bad %s: %v", name, err)})
	}
	if v := q.Get("step"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			bad("step", err)
			return
		}
		step = f
	}
	if v := q.Get("fps"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || f <= 0 {
			bad("fps", fmt.Errorf("want a positive number, got %q", v))
			return
		}
		fps = f
	}
	if v := q.Get("frames"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			bad("frames", err)
			return
		}
		frames = n
	}

	mw := multipart.NewWriter(w)
	w.Header().Set("Content-Type", "multipart/x-mixed-replace; boundary="+mw.Boundary())
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	pose := sess.LastPose()
	tick := time.NewTicker(time.Duration(float64(time.Second) / fps))
	defer tick.Stop()
	for i := 0; frames <= 0 || i < frames; i++ {
		pose.Azimuth += step
		if pose.Azimuth >= 360 {
			pose.Azimuth -= 360
		}
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
