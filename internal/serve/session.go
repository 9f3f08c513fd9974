package serve

import (
	"errors"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// ErrSessionClosed reports a frame request on a closed session.
var ErrSessionClosed = errors.New("serve: session closed")

// ErrTooManySessions reports OpenSession at the session cap with no
// idle session to reap (HTTP layers map it to 503).
var ErrTooManySessions = errors.New("serve: too many open sessions")

// Session is one interactive client's persistent streaming state: the
// camera-free frame configuration it opened with, its last camera pose,
// and the speculative prefetch that renders the predicted next frame
// into the shared frame cache during idle headroom. A session frame is a
// served frame — the front half, admission memo and frame cache Render
// uses — plus one predicted pose, so the steady-state Frame path (cache
// hit, prediction, one cache probe) performs zero heap allocations.
//
// Sessions are safe for concurrent use, but one client's frames
// naturally serialize; fairness across thousands of sessions comes from
// the per-session cap of one speculative render in flight, the
// shed-oldest background queue, and the scene cache: sessions of one
// configuration share its prepared scene, and every render worker draws
// it on its own arena, so no session's frame queues behind another's
// render of the same configuration.
type Session struct {
	srv   *Server
	id    uint64
	token string
	// base is the normalized opening request; per-frame requests copy
	// it and overwrite the camera.
	base FrameRequest

	closed       atomic.Bool
	lastUsed     atomic.Int64 // unix nanos of the last Frame
	inflight     atomic.Int32 // outstanding speculative renders (0 or 1)
	frames       atomic.Uint64
	prefetchHits atomic.Uint64

	// mu guards the last pose, the think-time estimate and the latest
	// decision.
	mu     sync.Mutex
	last   Pose // the last served pose; the opening pose before any frame
	lastT  time.Time
	emaGap float64  // EMA of client inter-frame seconds (the think time)
	d      decision // latest admitted decision (quality, prediction)
}

// SessionInfo is the client-visible identity and admitted quality of a
// session, JSON-shaped for the HTTP layer.
type SessionInfo struct {
	ID               string  `json:"session"`
	Width            int     `json:"width"`
	Height           int     `json:"height"`
	N                int     `json:"n"`
	RTWorkload       int     `json:"rt_workload"`
	Shards           int     `json:"shards"`
	PredictedSeconds float64 `json:"predicted_seconds"`
	Degraded         bool    `json:"degraded"`
	// PrefetchDepth is how many predicted poses ahead the session
	// renders: always 1.
	PrefetchDepth int    `json:"prefetch_depth"`
	Frames        uint64 `json:"frames"`
	PrefetchHits  uint64 `json:"prefetch_hits"`
}

// OpenSession runs the request front half once (camera fields are the
// opening pose) — validation, the fleet-health clamp, admission —
// and registers the session. A deadline no quality fits is refused with
// the same RejectionError a one-shot Render would get. At MaxSessions,
// sessions idle longer than SessionIdleTimeout are reaped to make room;
// with none to reap, ErrTooManySessions.
func (s *Server) OpenSession(req FrameRequest) (*Session, error) {
	d, _, err := s.front(&req)
	if err != nil {
		return nil, err
	}

	s.sessMu.Lock()
	if s.sessClose {
		s.sessMu.Unlock()
		return nil, ErrClosed
	}
	if len(s.sessions) >= s.cfg.MaxSessions {
		s.reapIdleLocked()
	}
	if len(s.sessions) >= s.cfg.MaxSessions {
		s.sessMu.Unlock()
		return nil, ErrTooManySessions
	}
	s.nextSess++
	sess := &Session{
		srv:   s,
		id:    s.nextSess,
		token: strconv.FormatUint(s.nextSess, 16),
		base:  req,
		last:  Pose{Azimuth: req.Azimuth, Zoom: req.Zoom},
		d:     d,
	}
	sess.lastUsed.Store(time.Now().UnixNano())
	s.sessions[sess.id] = sess
	s.sessMu.Unlock()
	atomic.AddUint64(&s.n.SessionsOpened, 1)
	return sess, nil
}

// reapIdleLocked closes sessions idle longer than the configured
// timeout. Caller holds sessMu.
func (s *Server) reapIdleLocked() {
	cutoff := time.Now().Add(-s.cfg.SessionIdleTimeout).UnixNano()
	for id, sess := range s.sessions {
		if sess.lastUsed.Load() < cutoff {
			delete(s.sessions, id)
			sess.finish()
		}
	}
}

// LookupSession resolves a session token from the HTTP layer.
func (s *Server) LookupSession(token string) (*Session, bool) {
	id, err := strconv.ParseUint(token, 16, 64)
	if err != nil {
		return nil, false
	}
	s.sessMu.Lock()
	sess, ok := s.sessions[id]
	s.sessMu.Unlock()
	return sess, ok
}

// SessionsOpen reports the number of live sessions.
func (s *Server) SessionsOpen() int {
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	return len(s.sessions)
}

// DrainSessions closes every open session and refuses new ones — the
// graceful-shutdown step HTTP layers run before Close, so streaming
// clients see their sessions end while the listener still answers.
func (s *Server) DrainSessions() { s.closeAllSessions() }

// closeAllSessions drains every session on server shutdown: marks them
// closed, so in-flight speculative jobs see the flag and no-op.
func (s *Server) closeAllSessions() {
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	s.sessClose = true
	for id, sess := range s.sessions {
		delete(s.sessions, id)
		sess.finish()
	}
}

// Token returns the session's client-visible identifier.
func (sess *Session) Token() string { return sess.token }

// Info snapshots the session's admitted quality and prefetch counters.
func (sess *Session) Info() SessionInfo {
	sess.mu.Lock()
	d := sess.d
	sess.mu.Unlock()
	return SessionInfo{
		ID:    sess.token,
		Width: d.q.W, Height: d.q.H, N: d.q.N,
		RTWorkload: d.q.RTWorkload, Shards: max(d.q.Shards, 1),
		PredictedSeconds: d.predicted,
		Degraded:         d.degraded,
		PrefetchDepth:    1,
		Frames:           sess.frames.Load(),
		PrefetchHits:     sess.prefetchHits.Load(),
	}
}

// LastPose returns the most recent camera pose the session served (the
// opening pose before its first frame).
func (sess *Session) LastPose() Pose {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.last
}

// Close unregisters the session. In-flight speculative renders for it
// become no-ops. Idempotent.
func (sess *Session) Close() {
	s := sess.srv
	s.sessMu.Lock()
	delete(s.sessions, sess.id)
	s.sessMu.Unlock()
	sess.finish()
}

// finish marks the session closed; callers have already unregistered
// it.
func (sess *Session) finish() {
	if sess.closed.Swap(true) {
		return
	}
	atomic.AddUint64(&sess.srv.n.SessionsClosed, 1)
}

// Frame serves the session's next camera pose (zoom <= 0 keeps the
// previous zoom) through the path Render takes, then predicts the pose
// after it and speculatively renders that frame into idle headroom when
// it is not cached. When the prediction was right, this frame was
// already cached and the whole call is a zero-allocation cache hit.
func (sess *Session) Frame(azimuth, zoom float64) (FrameResult, error) {
	s := sess.srv
	if sess.closed.Load() {
		return FrameResult{}, ErrSessionClosed
	}
	now := time.Now()
	sess.lastUsed.Store(now.UnixNano())

	req := sess.base
	req.Azimuth, req.Zoom = azimuth, zoom
	if zoom <= 0 {
		req.Zoom = sess.LastPose().Zoom
	}
	res, d, err := s.serveFrame(req, sess)
	if err != nil {
		return res, err
	}
	sess.frames.Add(1)
	atomic.AddUint64(&s.n.SessionFrames, 1)
	sess.prefetch(now, req, d)
	return res, nil
}

// prefetch records the served pose and decision, predicts the next pose
// and, when its frame is not cached, hands it to submitPrefetch. A
// correct prediction costs one cache probe and no allocation.
func (sess *Session) prefetch(now time.Time, req FrameRequest, d decision) {
	s := sess.srv
	pose := Pose{Azimuth: req.Azimuth, Zoom: req.Zoom}
	sess.mu.Lock()
	// The inter-frame gap EMA is the measured think time — the idle
	// headroom budget speculative renders must fit into. The first frame
	// has no previous frame to measure from (opening is not a frame), so
	// it leaves the EMA unmeasured and speculation bootstraps.
	if dt := now.Sub(sess.lastT).Seconds(); dt > 0 && !sess.lastT.IsZero() {
		if sess.emaGap == 0 {
			sess.emaGap = dt
		} else {
			sess.emaGap = 0.8*sess.emaGap + 0.2*dt
		}
	}
	sess.lastT = now
	next, ok := nextPose(sess.last, pose)
	sess.last, sess.d = pose, d
	// Think-time budget: the client's inter-frame gap times the workers
	// left after the foreground reserve. Zero means "not measured yet"
	// — bootstrap speculatively.
	budget := sess.emaGap * float64(s.sched.bgSlots())
	sess.mu.Unlock()
	if !ok {
		return
	}
	req.Azimuth, req.Zoom = next.Azimuth, next.Zoom
	fk := frameKeyFor(&req, d.q)
	if _, cached := s.frames.Get(fk); !cached {
		sess.submitPrefetch(req, d, fk, budget)
	}
}

// submitPrefetch enqueues a background render of the predicted frame fk,
// gated three ways: the model-predicted think-time budget (speculation
// must fit the headroom the client's own cadence leaves), one
// speculative render in flight per session (fairness across sessions),
// and the scheduler's idle-headroom admission (no queued foreground
// work, a free worker). Refusals are counted, never retried — the next
// Frame predicts from a fresher pose. It is separate from prefetch
// because the job's closure moves its captures to the heap.
func (sess *Session) submitPrefetch(req FrameRequest, d decision, fk frameKey, budget float64) {
	s := sess.srv
	if budget > 0 && d.predicted > budget {
		atomic.AddUint64(&s.n.PrefetchNoHeadroomBudget, 1)
		return
	}
	if !sess.inflight.CompareAndSwap(0, 1) {
		atomic.AddUint64(&s.n.PrefetchNoHeadroomInflight, 1)
		return
	}
	req.DeadlineMillis = 0 // speculative work has no client deadline
	err := s.sched.submitBackground(
		func(ws *workerState) { s.runPrefetchJob(ws, sess, req, d, fk) },
		func() {
			sess.inflight.Add(-1)
			atomic.AddUint64(&s.n.PrefetchShed, 1)
		},
	)
	switch {
	case err == nil:
		atomic.AddUint64(&s.n.PrefetchScheduled, 1)
	case errors.Is(err, errNoHeadroom):
		sess.inflight.Add(-1)
		atomic.AddUint64(&s.n.PrefetchNoHeadroomScheduler, 1)
	default:
		sess.inflight.Add(-1)
		atomic.AddUint64(&s.n.PrefetchShed, 1)
	}
}

// runPrefetchJob is the background half of speculation, running on a
// scheduler worker during idle headroom: re-check that the frame is
// still wanted, uncached and not in flight, then lead its flight (so a
// foreground miss arriving mid-render waits instead of duplicating).
// Speculative frames are real frames: they trace, cache and feed
// calibration like any other, minus the admit/queue-wait stages.
func (s *Server) runPrefetchJob(ws *workerState, sess *Session, req FrameRequest, d decision, fk frameKey) {
	defer sess.inflight.Add(-1)
	if sess.closed.Load() {
		atomic.AddUint64(&s.n.PrefetchStale, 1)
		return
	}
	if _, ok := s.frames.Get(fk); ok {
		atomic.AddUint64(&s.n.PrefetchStale, 1)
		return
	}
	f, led := s.lead(ws, &req, d, fk, time.Now(), 0)
	switch {
	case !led:
		atomic.AddUint64(&s.n.PrefetchStale, 1)
	case f.err != nil:
		atomic.AddUint64(&s.n.PrefetchErrors, 1)
	default:
		atomic.AddUint64(&s.n.PrefetchRendered, 1)
	}
}
