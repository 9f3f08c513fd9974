package serve

import (
	"errors"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// MaxPrefetchDepth caps how many predicted poses ahead a session may
// speculate; Session pose scratch and the verified-key window are sized
// by it.
const MaxPrefetchDepth = 8

// ErrSessionClosed reports a frame request on a closed session.
var ErrSessionClosed = errors.New("serve: session closed")

// ErrTooManySessions reports OpenSession at the session cap with no
// idle session to reap (HTTP layers map it to 503).
var ErrTooManySessions = errors.New("serve: too many open sessions")

// Session is one interactive client's persistent streaming state: the
// camera-free frame configuration it opened with, its recent camera
// path, and the speculative-prefetch machinery that renders predicted
// next frames into the shared frame cache during idle headroom. Its
// per-frame admission stays memoized, so the steady-state Frame path —
// pose record, prediction, cache probes, cache hit — performs zero heap
// allocations.
//
// Sessions are safe for concurrent use, but one client's frames
// naturally serialize; fairness across thousands of sessions comes from
// per-session prefetch caps (at most PrefetchDepth speculative renders
// in flight per session), the shed-oldest background queue, and the
// scene cache: sessions of one configuration share its prepared scene,
// and every render worker draws it on its own arena, so no session's
// frame queues behind another's render of the same configuration.
type Session struct {
	srv   *Server
	id    uint64
	token string
	// base is the normalized opening request; per-frame requests copy
	// it and overwrite the camera.
	base  FrameRequest
	depth int

	closed       atomic.Bool
	lastUsed     atomic.Int64 // unix nanos of the last Frame
	inflight     atomic.Int32 // outstanding speculative renders
	frames       atomic.Uint64
	prefetchHits atomic.Uint64

	// mu guards the path history, prediction scratch, and the memoized
	// decision.
	mu      sync.Mutex
	hist    [4]Pose
	nhist   int
	lastT   time.Time
	emaGap  float64 // EMA of client inter-frame seconds (the think time)
	scratch [MaxPrefetchDepth]Pose
	cands   [MaxPrefetchDepth]prefetchCand
	// verified is the sliding window of predicted camera poses already
	// found cached or submitted on the previous Frame; re-probing them
	// every frame would double the steady-state cache traffic. Only the
	// quantized camera is stored — everything else in a session's frame
	// key is fixed per admitted quality, and the window resets when a
	// refit changes that quality — so the scan is integer compares, not
	// struct equality over strings.
	verified    [2 * MaxPrefetchDepth]cameraKey
	nVerified   int
	newVerified [MaxPrefetchDepth]cameraKey
	d           decision // latest admitted decision (quality, prediction)
	gen         uint64   // model generation sess.d was admitted under
}

// prefetchCand is one predicted pose whose frame is not cached yet.
type prefetchCand struct {
	pose Pose
	fk   frameKey
}

// cameraKey is the camera half of a frameKey: the pose quantized to
// millidegrees. A session's verified-pose window stores these instead of
// full frame keys — within one admitted quality they identify a frame
// uniquely, and comparing two is a pair of integer compares.
type cameraKey struct {
	azMilli   int64
	zoomMilli int64
}

// cameraKeyFor quantizes a pose (normalize bounds the camera, so the
// quantization cannot overflow).
func cameraKeyFor(p Pose) cameraKey {
	return cameraKey{
		azMilli:   int64(math.Round(p.Azimuth * 1e3)),
		zoomMilli: int64(math.Round(p.Zoom * 1e3)),
	}
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
	PrefetchDepth    int     `json:"prefetch_depth"`
	Frames           uint64  `json:"frames"`
	PrefetchHits     uint64  `json:"prefetch_hits"`
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
		depth: s.cfg.PrefetchDepth,
	}
	now := time.Now()
	sess.lastUsed.Store(now.UnixNano())
	sess.hist[0] = Pose{Azimuth: req.Azimuth, Zoom: req.Zoom}
	sess.nhist = 1
	sess.refreshDecision(d)
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
		PrefetchDepth:    max(sess.depth, 0),
		Frames:           sess.frames.Load(),
		PrefetchHits:     sess.prefetchHits.Load(),
	}
}

// LastPose returns the most recent camera pose the session served.
func (sess *Session) LastPose() Pose {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.nhist == 0 {
		return Pose{Azimuth: sess.base.Azimuth, Zoom: sess.base.Zoom}
	}
	return sess.hist[sess.nhist-1]
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
// previous zoom): record the pose, serve through the shared admission /
// frame-cache / scheduler path, then extrapolate the next poses and
// speculatively render the uncached ones into idle headroom. When the
// prediction was right, this frame was already cached and the whole
// call is a sub-microsecond, zero-allocation cache hit.
func (sess *Session) Frame(azimuth, zoom float64) (FrameResult, error) {
	s := sess.srv
	if sess.closed.Load() {
		return FrameResult{}, ErrSessionClosed
	}
	now := time.Now()
	sess.lastUsed.Store(now.UnixNano())

	req := sess.base
	req.Azimuth = azimuth
	if zoom > 0 {
		req.Zoom = zoom
	}
	// Only the camera changes between a session's frames; bound it here
	// so the fast path can skip full normalization (everything else was
	// validated at open and copied from base).
	if math.IsNaN(azimuth) || math.Abs(azimuth) > maxAzimuthDegrees ||
		math.IsNaN(req.Zoom) || req.Zoom <= 0 || req.Zoom > maxZoom {
		atomic.AddUint64(&s.n.BadRequests, 1)
		return FrameResult{}, badRequestf("session camera out of range: azimuth %g zoom %g", azimuth, req.Zoom)
	}

	// Steady-state fast path: the session's admission is memoized per
	// model generation, so a correctly predicted (already cached) frame
	// costs one atomic generation read and one cache probe — no
	// normalization, no admission LRU.
	res, d, served := sess.fastFrame(&req)
	if !served {
		var err error
		res, d, err = s.serveFrame(req, sess)
		if err != nil {
			return res, err
		}
		sess.refreshDecision(d)
	}
	sess.frames.Add(1)
	atomic.AddUint64(&s.n.SessionFrames, 1)

	if n := sess.planPrefetch(now, &req, d); n > 0 {
		sess.submitPrefetch(&req, d, n)
	}
	return res, nil
}

// fastFrame is the memoized session frame path: reuse the stored
// admission decision while the model generation it was made under
// still stands, and serve straight from the frame cache. Returns
// served=false (and an unusable result) on a generation change or a
// cache miss — the caller then takes the full serveFrame path.
func (sess *Session) fastFrame(req *FrameRequest) (res FrameResult, d decision, served bool) {
	s := sess.srv
	start := time.Now()
	gen := s.engine.Registry().Generation()
	sess.mu.Lock()
	d, current := sess.d, sess.gen == gen
	sess.mu.Unlock()
	if !current {
		return FrameResult{}, decision{}, false
	}
	fk := frameKeyFor(req, d.q)
	cf, ok := s.frames.Get(fk)
	if !ok {
		return FrameResult{}, decision{}, false
	}
	atomic.AddUint64(&s.n.Admitted, 1)
	if d.degraded {
		atomic.AddUint64(&s.n.Degraded, 1)
	}
	s.hitFrame(&res, &cf, &d, sess)
	s.commitHitTrace(req, &d, start, time.Since(start))
	return res, d, true
}

// refreshDecision memoizes an admission outcome: the opening one, then
// each one the slow path re-admits.
func (sess *Session) refreshDecision(d decision) {
	gen := sess.srv.engine.Registry().Generation()
	sess.mu.Lock()
	if d.q != sess.d.q {
		// Verified poses identified frames at the old quality; the new
		// quality's frames must be re-probed.
		sess.nVerified = 0
	}
	sess.d, sess.gen = d, gen
	sess.mu.Unlock()
}

// pushPoseLocked appends to the fixed-size path history, dropping the
// oldest pose. Caller holds sess.mu.
func (sess *Session) pushPoseLocked(p Pose) {
	if sess.nhist < len(sess.hist) {
		sess.hist[sess.nhist] = p
		sess.nhist++
		return
	}
	copy(sess.hist[:], sess.hist[1:])
	sess.hist[len(sess.hist)-1] = p
}

// planPrefetch extrapolates the next poses and fills sess.cands with
// the ones whose frames are not cached, verified recently, or already
// in flight. It is the zero-allocation half of prefetch: predictions
// that are already cached cost one LRU probe the first frame and a key
// comparison afterwards.
func (sess *Session) planPrefetch(now time.Time, req *FrameRequest, d decision) int {
	s := sess.srv
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
	sess.pushPoseLocked(Pose{Azimuth: req.Azimuth, Zoom: req.Zoom})
	if sess.depth <= 0 {
		sess.mu.Unlock()
		return 0
	}
	n := OrbitPredictor{}.Predict(sess.hist[:sess.nhist], sess.scratch[:sess.depth])
	ncand, nverify := 0, 0
	for i := 0; i < n; i++ {
		pose := sess.scratch[i]
		ck := cameraKeyFor(pose)
		if sess.verifiedLocked(ck) {
			if nverify < len(sess.newVerified) {
				sess.newVerified[nverify] = ck
				nverify++
			}
			continue
		}
		// Only a pose outside the verified window — in steady state the
		// single newly entered horizon pose — pays for a full frame key
		// and a cache probe.
		req.Azimuth, req.Zoom = pose.Azimuth, pose.Zoom
		fk := frameKeyFor(req, d.q)
		if _, ok := s.frames.Get(fk); ok {
			if nverify < len(sess.newVerified) {
				sess.newVerified[nverify] = ck
				nverify++
			}
			continue
		}
		if ncand < len(sess.cands) {
			sess.cands[ncand] = prefetchCand{pose: pose, fk: fk}
			ncand++
		}
	}
	// The verified window carries over keys still inside the horizon so
	// steady state re-probes only the newly entered pose.
	copy(sess.verified[:], sess.newVerified[:nverify])
	sess.nVerified = nverify
	sess.mu.Unlock()
	return ncand
}

// verifiedLocked reports whether the pose was found cached (or
// submitted) on the previous Frame. Caller holds sess.mu.
func (sess *Session) verifiedLocked(ck cameraKey) bool {
	for i := 0; i < sess.nVerified; i++ {
		if sess.verified[i] == ck {
			return true
		}
	}
	return false
}

// submitPrefetch enqueues background renders for the planned
// candidates, gated three ways: per-session in-flight cap (fairness
// across sessions), the model-predicted think-time budget (speculation
// must fit the headroom the client's own cadence leaves), and the
// scheduler's idle-headroom admission (no queued foreground work, a
// free worker). Refusals are counted, never retried — the next Frame
// replans from fresher poses.
func (sess *Session) submitPrefetch(req *FrameRequest, d decision, n int) {
	s := sess.srv
	// Think-time budget: the client's inter-frame gap times the workers
	// left after the foreground reserve. Zero means "not measured yet"
	// — bootstrap speculatively.
	//
	// Snapshot the candidates in the same critical section: sess.cands is
	// prediction scratch that a concurrent Frame's planPrefetch rewrites
	// under sess.mu, so reading it lock-free here would tear.
	sess.mu.Lock()
	budget := sess.emaGap * float64(s.sched.bgSlots())
	var cands [MaxPrefetchDepth]prefetchCand
	copy(cands[:], sess.cands[:n])
	sess.mu.Unlock()
	spent := 0.0
	for i := 0; i < n; i++ {
		cand := cands[i]
		if int(sess.inflight.Load()) >= sess.depth {
			atomic.AddUint64(&s.n.PrefetchNoHeadroomInflight, 1)
			continue
		}
		if budget > 0 && spent+d.predicted > budget {
			atomic.AddUint64(&s.n.PrefetchNoHeadroomBudget, 1)
			continue
		}
		pr := *req
		pr.Azimuth, pr.Zoom = cand.pose.Azimuth, cand.pose.Zoom
		pr.DeadlineMillis = 0 // speculative work has no client deadline
		fk := cand.fk
		sess.inflight.Add(1)
		err := s.sched.submitBackground(
			func(ws *workerState) { s.runPrefetchJob(ws, sess, pr, d, fk) },
			func() {
				sess.inflight.Add(-1)
				atomic.AddUint64(&s.n.PrefetchShed, 1)
			},
		)
		if err != nil {
			sess.inflight.Add(-1)
			if errors.Is(err, errNoHeadroom) {
				atomic.AddUint64(&s.n.PrefetchNoHeadroomScheduler, 1)
			} else {
				atomic.AddUint64(&s.n.PrefetchShed, 1)
			}
			return // no headroom now; further candidates fare no better
		}
		atomic.AddUint64(&s.n.PrefetchScheduled, 1)
		spent += d.predicted
		// Submitted predictions join the verified window so the next
		// Frame does not re-candidate them while they render.
		sess.mu.Lock()
		if sess.nVerified < len(sess.verified) {
			sess.verified[sess.nVerified] = fk.cam
			sess.nVerified++
		}
		sess.mu.Unlock()
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
