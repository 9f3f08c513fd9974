// Package serve is the render-serving subsystem: it operationalizes the
// fitted performance models as admission control for a real rendering
// service. Every frame request is costed by the advisor engine before
// any pixel is touched — rejected with the prediction when no quality
// fits the deadline, or degraded (resolution, geometry, ray tracing
// workload) until the prediction fits — then scheduled
// earliest-deadline-first on a bounded worker pool of persistent,
// cached scenario FrameRunners, and served as PNG from an LRU frame
// cache. Measured wall times feed back into the engine's observer, so
// the traffic the scheduler admits continuously refits the very models
// it admits with: the paper's predict → act → measure → refit loop in
// one process.
//
// Interactive clients open persistent Sessions (OpenSession): a session
// is admitted once, soft-pins its warm runner in the RunnerCache,
// memoizes its admission per model generation, and tracks the client's
// camera path. After each frame it extrapolates the next poses
// (OrbitPredictor) and speculatively renders the uncached ones into
// the frame cache through a strictly-background scheduler class —
// admitted only into idle headroom, budgeted by the model's predicted
// cost against the measured client think time, shed first under
// pressure — so a predictable camera path sees cache-hit
// time-to-photon while foreground deadline traffic is never delayed.
//
// Frame pipeline: Render and OpenSession share one front half (front:
// validate, fleet-health clamp, memoized admission, rejection). A frame
// cache hit is then answered allocation-free; a miss goes to the one
// flight leader (lead) that foreground misses and speculative prefetch
// share. It draws on one of three execution paths — a leased warm runner
// (spans runner_lease, render), the worker fleet (shard_dispatch with
// rank_render and composite nested), or the standalone fallback (render
// with composite nested) — and all three end in one tail, finishFrame:
// encode, deadline test, residuals, calibration feed.
package serve

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"insitu/internal/advisor"
	"insitu/internal/cluster"
	"insitu/internal/conduit"
	"insitu/internal/core"
	"insitu/internal/device"
	"insitu/internal/lru"
	"insitu/internal/obs"
	"insitu/internal/render"
	"insitu/internal/scenario"
	"insitu/internal/sim"
	"insitu/internal/vecmath"
)

// FrameRequest is one frame a client wants rendered. The zero values of
// optional fields pick documented defaults; DeadlineMillis <= 0 means
// "no deadline" (admitted at the requested quality).
type FrameRequest struct {
	// Backend names the scenario rendering backend ("raytracer",
	// "rasterizer", "volume", "volume-unstructured").
	Backend core.Renderer `json:"backend"`
	// Sim names the proxy simulation providing the data ("cloverleaf",
	// "kripke", "lulesh"; default "kripke").
	Sim string `json:"sim,omitempty"`
	// N is the per-task data size (an N^3 block).
	N int `json:"n"`
	// Width and Height are the requested resolution (Height defaults to
	// Width).
	Width  int `json:"width"`
	Height int `json:"height,omitempty"`
	// Azimuth (degrees) and Zoom set the orbit camera (defaults 0, 1).
	Azimuth float64 `json:"azimuth,omitempty"`
	Zoom    float64 `json:"zoom,omitempty"`
	// DeadlineMillis is the per-frame budget the prediction is gated
	// against.
	DeadlineMillis float64 `json:"deadline_ms,omitempty"`
	// Arch is the device profile to render on (default the server's).
	Arch string `json:"arch,omitempty"`
	// Shards > 1 partitions the frame across that many cluster worker
	// ranks (weak scaling: each renders an N^3 block) and composites
	// sort-last. Requires a Config.Cluster; 0 and 1 mean the local
	// single-process path.
	Shards int `json:"shards,omitempty"`
}

// FrameResult is one served frame. PNG aliases the cache entry; treat
// it as read-only.
type FrameResult struct {
	PNG []byte
	// Width, Height, N, RTWorkload are the served quality (equal to the
	// request unless Degraded).
	Width, Height, N int
	RTWorkload       int
	// PrefetchHit marks a cache hit on a frame that a session's
	// speculative prefetch rendered before any client asked — the
	// time-to-photon collapse interactive sessions exist for.
	PrefetchHit bool
	// PredictedSeconds is the admission-time prediction for the served
	// quality; RenderSeconds the measured wall time of the frame's
	// actual render (also set on cache hits, to the hit frame's
	// original measurement). For sharded frames RenderSeconds is the
	// slowest rank's local render — the paper's max(T_local).
	PredictedSeconds float64
	RenderSeconds    float64
	// Shards is the served decomposition width (1 = local render). When
	// above 1, CompositeSeconds is the measured sort-last compositing
	// time, PredictedCompositeSeconds the fitted model's Tc charged at
	// admission, and RankRenderSeconds each rank's local render time.
	Shards                    int
	CompositeSeconds          float64
	PredictedCompositeSeconds float64
	RankRenderSeconds         []float64
	CacheHit                  bool
	Degraded                  bool
	DegradeSteps              int
	// RankCompositeSeconds is each rank's measured share of the sort-last
	// exchange (sharded frames only) — the per-rank span behind a slow
	// composite.
	RankCompositeSeconds []float64
	// QueueSeconds is how long the frame waited in the scheduler queue
	// before a worker picked it up (0 for cache hits).
	QueueSeconds float64
	// DeadlineMiss marks a served frame whose measured time exceeded the
	// admitted deadline — surfaced per response so the client that
	// suffered the miss sees it, not just a global counter.
	DeadlineMiss bool
	// Retries is how many failed cluster attempts preceded this frame
	// (rank failures healed by re-placement; 0 on the healthy path).
	Retries int
	// FleetDegraded marks a frame the fleet could not serve as asked:
	// the shard count was clamped to the surviving workers, or the frame
	// fell back to the standalone renderer (cluster failure or open
	// circuit breaker). The pixels are still exact — recovery changes
	// where a frame renders, never what it shows.
	FleetDegraded bool
}

// Config tunes a Server. Zero values pick the documented defaults.
type Config struct {
	// Arch is the default device profile and model architecture.
	Arch string // default "cpu"
	// Workers bounds concurrent renders; QueueCap bounds waiting ones.
	Workers  int // default 2
	QueueCap int // default 64
	// FrameCacheEntries bounds the encoded-frame LRU; RunnerCacheEntries
	// the idle prepared runners kept warm.
	FrameCacheEntries  int // default 256
	RunnerCacheEntries int // default 8
	// ObserveQueue buffers measured samples for the engine's observer;
	// 0 disables calibration feedback.
	ObserveQueue int // default 256
	// PrefetchDepth is how many predicted poses ahead a streaming
	// session speculatively renders (capped at MaxPrefetchDepth);
	// negative disables prefetch, 0 picks the default 3.
	PrefetchDepth int
	// MaxSessions bounds concurrently open streaming sessions;
	// SessionIdleTimeout lets an at-capacity OpenSession reap sessions
	// idle longer than this instead of refusing.
	MaxSessions        int           // default 4096
	SessionIdleTimeout time.Duration // default 5m
	// Cluster, when non-nil, enables sharded frames: requests with
	// Shards > 1 are partitioned across its worker fleet. The server
	// does not own the cluster; close it after the server.
	Cluster *cluster.Cluster
	// BreakerThreshold is how many consecutive cluster failures trip the
	// circuit breaker, flipping sharded traffic to the standalone
	// fallback; BreakerCooldown is how long it stays open before probing
	// the fleet again.
	BreakerThreshold int           // default 3
	BreakerCooldown  time.Duration // default 5s
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
}

// maxAzimuthDegrees and maxZoom bound the camera parameters a request
// may carry: generous for any real orbit, small enough that the
// millidegree key quantization stays far from int64 overflow.
const (
	maxAzimuthDegrees = 1e6
	maxZoom           = 1e6
)

// Serving limits with one value in use, so constants rather than
// Config fields.
const (
	// admitCacheEntries bounds the memoized admission decisions.
	admitCacheEntries = 4096
	// runnerReuse amortizes one-time build costs over this many frames
	// in predictions (runners are cached, so builds really are reused).
	runnerReuse = 100
	// minDegradeSize and minDegradeN floor the degradation ladder;
	// maxImageSize and maxN bound what a request may ask for at all.
	minDegradeSize = 64
	minDegradeN    = 8
	maxImageSize   = 2048
	maxN           = 64
	// prefetchQueueCap bounds queued (not yet running) speculative
	// renders; overflow sheds the oldest prediction first.
	prefetchQueueCap = 64
	// clusterTimeout bounds one sharded frame end to end (dispatch,
	// render, composite, result transfer — including any failure-recovery
	// retries). A tighter request deadline overrides it per frame.
	clusterTimeout = 60 * time.Second
)

func (c *Config) setDefaults() {
	if c.Arch == "" {
		c.Arch = "cpu"
	}
	orDefault(&c.Workers, 1, 2)
	orDefault(&c.QueueCap, 1, 64)
	if c.FrameCacheEntries == 0 {
		c.FrameCacheEntries = 256
	}
	orDefault(&c.RunnerCacheEntries, 1, 8)
	orDefault(&c.BreakerThreshold, 1, 3)
	orDefault(&c.BreakerCooldown, 1, 5*time.Second)
	if c.PrefetchDepth == 0 {
		c.PrefetchDepth = 3
	}
	c.PrefetchDepth = min(c.PrefetchDepth, MaxPrefetchDepth)
	orDefault(&c.MaxSessions, 1, 4096)
	orDefault(&c.SessionIdleTimeout, 1, 5*time.Minute)
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
}

// orDefault replaces a setting below floor with its default.
func orDefault[T int | time.Duration](v *T, floor, def T) {
	if *v < floor {
		*v = def
	}
}

// frameKey identifies a served frame: who renders what, from where, at
// which (possibly degraded) quality. Camera angles are quantized to
// millidegrees so float noise cannot fragment the cache (normalize
// bounds them, so the quantization cannot overflow).
type frameKey struct {
	arch    string
	backend core.Renderer
	sim     string
	cam     cameraKey
	q       quality
}

// runnerKey identifies a prepared runner: the frame key minus the
// camera. Geometry and acceleration structures are camera-independent
// (FrameRunner.SetCamera repoints per frame), so an orbiting client
// reuses one warm runner instead of re-preparing the scene per angle.
type runnerKey struct {
	arch    string
	backend core.Renderer
	sim     string
	q       quality
}

// preparedRunner couples a cached runner with the scene bounds the
// per-request orbit camera is derived from.
type preparedRunner struct {
	scenario.FrameRunner
	bounds vecmath.AABB
}

// cachedFrame is one encoded frame plus the measurements that produced
// it (composite fields zero for local single-process frames).
// speculative marks frames a session's prefetch rendered before any
// client asked; hits on them are the prefetch hit rate.
type cachedFrame struct {
	png                  []byte
	renderSeconds        float64
	compositeSeconds     float64
	rankRenderSeconds    []float64
	rankCompositeSeconds []float64
	speculative          bool
}

// flight coalesces concurrent misses on one frame key: followers wait
// for the leader's render instead of queueing a duplicate. A
// speculative flight's leader is a background prefetch job — a
// foreground miss that joins it still collapses to a wait instead of a
// duplicate render, the mid-render form of a prefetch hit.
type flight struct {
	done        chan struct{}
	speculative bool
	res         FrameResult
	err         error
}

// Server is the render-serving subsystem: admission, scheduling,
// caching, and calibration feedback behind one Render call.
type Server struct {
	// n is the live counter block, bumped with atomic.AddUint64. First
	// in the struct so its 64-bit fields are 8-byte aligned on 32-bit
	// platforms too.
	n Counters

	engine *advisor.Engine
	cfg    Config

	sims     map[string]bool
	profiles map[string]bool

	admit   *lru.Cache[admitKey, decision]
	frames  *lru.Cache[frameKey, cachedFrame]
	runners *scenario.RunnerCache[runnerKey]
	sched   *scheduler
	brk     *breaker

	flightMu sync.Mutex
	flights  map[frameKey]*flight

	sessMu    sync.Mutex
	sessions  map[uint64]*Session
	nextSess  uint64
	sessClose bool

	obsCh     chan core.Sample
	obsWG     sync.WaitGroup
	obsMu     sync.Mutex
	obsClosed bool

	// Frame-lifecycle observability: every served frame commits a
	// FrameTrace into the tracer's rings and folds into the per-stage
	// latency histograms; every measured render/composite records its
	// model residual. All three are allocation-free on the hot path.
	tracer    *obs.Tracer
	stageLat  *obs.StageLatency
	residuals *obs.Residuals
}

// New builds a server over the engine. When the engine has an observer
// configured (advisor.Engine.SetObserver) and cfg.ObserveQueue is not
// negative, every served frame's measurement feeds the observer.
func New(engine *advisor.Engine, cfg Config) *Server {
	cfg.setDefaults()
	s := &Server{
		engine:   engine,
		cfg:      cfg,
		sims:     map[string]bool{},
		profiles: map[string]bool{},
		admit:    lru.New[admitKey, decision](admitCacheEntries),
		frames:   lru.New[frameKey, cachedFrame](cfg.FrameCacheEntries),
		runners:  scenario.NewRunnerCache[runnerKey](cfg.RunnerCacheEntries),
		sched:    newScheduler(cfg.Workers, cfg.QueueCap, prefetchQueueCap),
		brk:      newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown),
		flights:  map[frameKey]*flight{},
		sessions: map[uint64]*Session{},
		tracer:   obs.NewTracer(4, 256),
		stageLat: &obs.StageLatency{},
	}
	s.sched.bgGrace = speculationGrace
	var rkeys []obs.ResidualKey
	for _, name := range scenario.Names() {
		rkeys = append(rkeys,
			obs.ResidualKey{Backend: string(name), Term: "render"},
			obs.ResidualKey{Backend: string(name), Term: "composite"})
	}
	s.residuals = obs.NewResiduals(rkeys)
	for _, name := range sim.Names() {
		s.sims[name] = true
	}
	for _, name := range device.ProfileNames() {
		s.profiles[name] = true
	}
	if cfg.ObserveQueue >= 0 {
		q := cfg.ObserveQueue
		if q == 0 {
			q = 256
		}
		s.obsCh = make(chan core.Sample, q)
		s.obsWG.Add(1)
		go s.observeLoop()
	}
	return s
}

// Engine exposes the advisor engine gating admissions.
func (s *Server) Engine() *advisor.Engine { return s.engine }

// Traces returns the most recent n committed frame traces, oldest
// first — the data behind GET /v1/trace.
func (s *Server) Traces(n int) []obs.FrameTrace { return s.tracer.Last(n) }

// traceIdentity stamps a trace with the frame's served identity.
//
//insitu:noalloc
func traceIdentity(tr *obs.FrameTrace, req *FrameRequest, q quality) {
	tr.Backend = string(req.Backend)
	tr.Width, tr.Height, tr.N = q.W, q.H, q.N
	tr.Shards = q.Shards
}

// commitTrace finishes a trace and folds it into the stage histograms.
//
//insitu:noalloc
func (s *Server) commitTrace(tr *obs.FrameTrace, now time.Time) {
	tr.Finish(now)
	s.tracer.Commit(tr)
	s.stageLat.ObserveTrace(tr)
}

// Close drains active sessions (releasing their runner pins), sheds
// queued speculative work, drains the scheduler, stops the calibration
// feed, and releases cached runners (device worker pools).
func (s *Server) Close() {
	s.closeAllSessions()
	s.sched.close()
	s.obsMu.Lock()
	if s.obsCh != nil && !s.obsClosed {
		s.obsClosed = true
		close(s.obsCh)
	}
	s.obsMu.Unlock()
	s.obsWG.Wait()
	s.runners.Close()
}

// normalize validates the request and fills defaults in place. It
// performs no heap allocation for valid requests — the zero-allocation
// cache-hit path runs straight through it.
func (s *Server) normalize(req *FrameRequest) error {
	if req.Backend == "" {
		return badRequestf("missing backend (registered: %v)", scenario.Names())
	}
	if req.Sim == "" {
		req.Sim = "kripke"
	}
	if !s.sims[req.Sim] {
		return badRequestf("unknown sim %q (have %v)", req.Sim, sim.Names())
	}
	if req.Arch == "" {
		req.Arch = s.cfg.Arch
	}
	if !s.profiles[req.Arch] {
		return badRequestf("unknown arch %q (have %v)", req.Arch, device.ProfileNames())
	}
	if req.N < 4 {
		return badRequestf("n must be >= 4, got %d", req.N)
	}
	if req.N > maxN {
		return badRequestf("n %d exceeds the serving cap %d", req.N, maxN)
	}
	if req.Width <= 0 {
		return badRequestf("width must be positive, got %d", req.Width)
	}
	if req.Height <= 0 {
		req.Height = req.Width
	}
	if req.Width > maxImageSize || req.Height > maxImageSize {
		return badRequestf("image %dx%d exceeds the serving cap %d", req.Width, req.Height, maxImageSize)
	}
	if req.Zoom == 0 {
		req.Zoom = 1
	}
	// The bounds also guarantee the cache keys' millidegree quantization
	// cannot overflow int64 (which would alias distinct cameras onto one
	// cached frame).
	if math.IsNaN(req.Azimuth) || math.Abs(req.Azimuth) > maxAzimuthDegrees {
		return badRequestf("azimuth must be finite and within ±%g degrees", float64(maxAzimuthDegrees))
	}
	if math.IsNaN(req.Zoom) || req.Zoom <= 0 || req.Zoom > maxZoom {
		return badRequestf("zoom must be in (0, %g]", float64(maxZoom))
	}
	if math.IsNaN(req.DeadlineMillis) || math.IsInf(req.DeadlineMillis, 0) {
		return badRequestf("deadline_ms must be finite")
	}
	if req.DeadlineMillis < 0 {
		return badRequestf("deadline_ms must be non-negative, got %v", req.DeadlineMillis)
	}
	if req.Shards < 0 {
		return badRequestf("shards must be non-negative, got %d", req.Shards)
	}
	if req.Shards == 0 {
		req.Shards = 1
	}
	if req.Shards > 1 {
		if s.cfg.Cluster == nil {
			return badRequestf("shards=%d needs cluster mode (this server has no worker fleet)", req.Shards)
		}
		if w := s.cfg.Cluster.Workers(); req.Shards > w {
			return badRequestf("shards %d exceeds the fleet's %d workers", req.Shards, w)
		}
	}
	return nil
}

// Render serves one frame: normalize, model-gated admission (memoized),
// frame cache, and — on a miss — a deadline-scheduled render on the
// worker pool. The cache-hit path performs zero heap allocations.
//
//insitu:noalloc
func (s *Server) Render(req FrameRequest) (FrameResult, error) {
	res, _, err := s.serveFrame(req, nil)
	return res, err
}

// admit runs the memoized model-gated admission for a normalized
// request: one LRU probe in steady state, one full model costing per
// (request shape, model generation) otherwise. The returned decision is
// not yet checked for rejection.
//
//insitu:noalloc
func (s *Server) admitRequest(req *FrameRequest) (decision, error) {
	// Admission: memoized per (arch, backend, n, resolution, deadline,
	// model generation) so the steady-state gate is one LRU probe.
	ak := admitKey{
		arch: req.Arch, backend: req.Backend,
		n: req.N, w: req.Width, h: req.Height,
		shards:        req.Shards,
		deadlineNanos: deadlineNanos(req.DeadlineMillis),
		gen:           s.engine.Registry().Generation(),
	}
	d, ok := s.admit.Get(ak)
	if !ok {
		// Admission miss: one full model costing, then memoized.
		//insitu:noalloc-ok admission miss is once per (request shape, model generation)
		spec, _ := core.LookupRenderer(req.Backend)
		var err error
		//insitu:noalloc-ok admission miss is once per (request shape, model generation)
		d, err = s.decide(req, spec.Surface)
		if err != nil {
			return decision{}, err
		}
		//insitu:noalloc-ok admission miss is once per (request shape, model generation)
		s.admit.Add(ak, d)
	}
	return d, nil
}

// validate normalizes the request and checks that its backend/sim pair
// is servable — the request-shape half of front.
func (s *Server) validate(req *FrameRequest) error {
	if err := s.normalize(req); err != nil {
		return err
	}
	backend, err := scenario.Lookup(req.Backend)
	if err != nil {
		return fmt.Errorf("%w: %s", ErrBadRequest, err)
	}
	if backend.NeedsStructured() && !sim.Structured(req.Sim) {
		return badRequestf("%s needs a structured block; sim %q publishes an unstructured one", req.Backend, req.Sim)
	}
	return nil
}

// front is the request front half shared by serveFrame and OpenSession:
// validate, clamp the shard count to the surviving fleet, run the
// memoized admission, and refuse what no quality fits. fleetClamped
// reports the clamp. Accepted requests run it allocation-free.
//
//insitu:noalloc
func (s *Server) front(req *FrameRequest) (d decision, fleetClamped bool, err error) {
	//insitu:noalloc-ok validate is read-only for accepted requests; only rejections build errors
	if err := s.validate(req); err != nil {
		atomic.AddUint64(&s.n.BadRequests, 1)
		return decision{}, false, err
	}
	// Fleet-health clamp: a request sharded wider than the surviving
	// workers re-plans at the feasible width before admission, so the
	// degrade ladder (and the admission memo, keyed on the clamped
	// count) works against what the fleet can actually place. The static
	// Workers() cap in normalize stays a 400; losing ranks degrades.
	if req.Shards > 1 && s.cfg.Cluster != nil {
		if alive := s.cfg.Cluster.AliveWorkers(); req.Shards > alive {
			req.Shards = max(alive, 1)
			fleetClamped = true
			atomic.AddUint64(&s.n.FleetClamped, 1)
		}
	}
	if d, err = s.admitRequest(req); err != nil {
		atomic.AddUint64(&s.n.Errors, 1)
		return decision{}, fleetClamped, err
	}
	if !d.ok {
		atomic.AddUint64(&s.n.Rejected, 1)
		//insitu:noalloc-ok rejection path, never taken by a cache hit
		return d, fleetClamped, d.rejection(req)
	}
	return d, fleetClamped, nil
}

// serveFrame is the shared frame path behind Render and Session.Frame:
// the front half, then the frame cache, and on a miss a render through
// the flight leader. sess, when non-nil, receives prefetch-hit
// accounting. The cache-hit path performs zero heap allocations.
//
//insitu:noalloc
func (s *Server) serveFrame(req FrameRequest, sess *Session) (res FrameResult, d decision, err error) {
	start := time.Now()
	d, fleetClamped, err := s.front(&req)
	if err != nil {
		return FrameResult{}, d, err
	}
	atomic.AddUint64(&s.n.Admitted, 1)
	if d.degraded {
		atomic.AddUint64(&s.n.Degraded, 1)
	}

	admitDur := time.Since(start)
	fk := frameKeyFor(&req, d.q)
	if cf, ok := s.frames.Get(fk); ok {
		s.hitFrame(&res, &cf, &d, sess)
		res.FleetDegraded = fleetClamped
		s.commitHitTrace(&req, &d, start, admitDur)
		return res, d, nil
	}
	atomic.AddUint64(&s.n.CacheMisses, 1)
	//insitu:noalloc-ok the miss path renders a frame; only the hit path above is allocation-free
	res, err = s.renderMiss(req, d, fk, sess, start, admitDur)
	res.FleetDegraded = res.FleetDegraded || fleetClamped
	return res, d, err
}

// hitFrame accounts a frame served from the cache and fills res from the
// cached measurements at the admitted quality (in place: the result is
// large, and the hit path is where its copies show).
//
//insitu:noalloc
func (s *Server) hitFrame(res *FrameResult, cf *cachedFrame, d *decision, sess *Session) {
	atomic.AddUint64(&s.n.CacheHits, 1)
	if cf.speculative {
		s.prefetchHit(sess)
	}
	*res = FrameResult{
		PNG:   cf.png,
		Width: d.q.W, Height: d.q.H, N: d.q.N, RTWorkload: d.q.RTWorkload,
		PrefetchHit:      cf.speculative,
		PredictedSeconds: d.predicted, RenderSeconds: cf.renderSeconds,
		Shards:                    d.q.Shards,
		CompositeSeconds:          cf.compositeSeconds,
		PredictedCompositeSeconds: d.predictedComposite,
		RankRenderSeconds:         cf.rankRenderSeconds,
		RankCompositeSeconds:      cf.rankCompositeSeconds,
		CacheHit:                  true, Degraded: d.degraded, DegradeSteps: d.steps,
	}
}

// prefetchHit counts a frame served from a speculative render.
//
//insitu:noalloc
func (s *Server) prefetchHit(sess *Session) {
	atomic.AddUint64(&s.n.PrefetchHits, 1)
	if sess != nil {
		sess.prefetchHits.Add(1)
	}
}

// commitHitTrace commits the trace of a frame served without rendering
// (a cache hit or a coalesced follower): admission only, flagged as a
// hit. The trace lives on this stack frame and commits by copy — sharing
// the miss path's heap trace would make every hit allocate.
//
//insitu:noalloc
func (s *Server) commitHitTrace(req *FrameRequest, d *decision, start time.Time, admitDur time.Duration) {
	var tr obs.FrameTrace
	tr.Seq = s.tracer.NextSeq()
	traceIdentity(&tr, req, d.q)
	tr.CacheHit, tr.Degraded = true, d.degraded
	tr.Begin(start)
	tr.Span(obs.StageAdmit, start, admitDur)
	s.commitTrace(&tr, time.Now())
}

// frameKeyFor builds the cache identity of a normalized request at the
// admitted quality. Camera angles are quantized to millidegrees
// (normalize bounds them, so the quantization cannot overflow).
//
//insitu:noalloc
func frameKeyFor(req *FrameRequest, q quality) frameKey {
	return frameKey{
		arch: req.Arch, backend: req.Backend, sim: req.Sim,
		cam: cameraKeyFor(Pose{Azimuth: req.Azimuth, Zoom: req.Zoom}),
		q:   q,
	}
}

// renderMiss serves a foreground cache miss: lead a flight that renders
// through the deadline scheduler, or, when the same frame is already in
// flight, wait for its leader instead of queueing a duplicate — a
// speculative leader is a prefetch that landed mid-render.
func (s *Server) renderMiss(req FrameRequest, d decision, fk frameKey, sess *Session, start time.Time, admitDur time.Duration) (FrameResult, error) {
	f, led := s.lead(nil, &req, d, fk, start, admitDur)
	if led {
		return f.res, f.err
	}
	<-f.done
	if f.err != nil {
		return FrameResult{}, f.err
	}
	res := f.res
	res.CacheHit = true // served from the leader's render
	atomic.AddUint64(&s.n.Coalesced, 1)
	if f.speculative {
		res.PrefetchHit = true
		s.prefetchHit(sess)
	}
	// The leader committed the render trace; the follower traces as a hit
	// (its wall time is the wait on the flight).
	s.commitHitTrace(&req, &d, start, admitDur)
	return res, nil
}

// lead is the one flight leader behind foreground misses and speculative
// prefetch: register a flight for fk, render the frame, store it in the
// frame cache, commit its trace, and release the followers. When fk is
// already in flight it renders nothing and returns that flight with
// led=false. A foreground leader (ws nil) traces its admission and queues
// on the deadline scheduler; a speculative one already runs on worker ws
// and stores its frame marked speculative.
func (s *Server) lead(ws *workerState, req *FrameRequest, d decision, fk frameKey, start time.Time, admitDur time.Duration) (*flight, bool) {
	speculative := ws != nil
	s.flightMu.Lock()
	if f, busy := s.flights[fk]; busy {
		s.flightMu.Unlock()
		return f, false
	}
	f := &flight{done: make(chan struct{}), speculative: speculative}
	s.flights[fk] = f
	s.flightMu.Unlock()

	// The leader's trace is heap-shared with the scheduler closure — a
	// render allocates regardless, so escape here is free.
	tr := &obs.FrameTrace{Seq: s.tracer.NextSeq()}
	traceIdentity(tr, req, d.q)
	tr.Degraded = d.degraded
	tr.Begin(start)
	if speculative {
		f.res, f.err = s.renderFrame(ws, req, d, time.Time{}, tr)
	} else {
		tr.Span(obs.StageAdmit, start, admitDur)
		f.res, f.err = s.renderScheduled(req, d, tr)
	}
	if f.err == nil {
		storeStart := time.Now()
		s.frames.Add(fk, cachedFrame{
			png:                  f.res.PNG,
			renderSeconds:        f.res.RenderSeconds,
			compositeSeconds:     f.res.CompositeSeconds,
			rankRenderSeconds:    f.res.RankRenderSeconds,
			rankCompositeSeconds: f.res.RankCompositeSeconds,
			speculative:          speculative,
		})
		tr.Span(obs.StageCacheStore, storeStart, time.Since(storeStart))
		s.commitTrace(tr, time.Now())
	}
	s.flightMu.Lock()
	delete(s.flights, fk)
	s.flightMu.Unlock()
	close(f.done)
	return f, true
}

// renderScheduled queues the render with its absolute deadline and
// waits for a worker, charging the queue wait to the frame's trace.
func (s *Server) renderScheduled(req *FrameRequest, d decision, tr *obs.FrameTrace) (FrameResult, error) {
	var deadline time.Time
	if req.DeadlineMillis > 0 {
		deadline = time.Now().Add(time.Duration(req.DeadlineMillis * float64(time.Millisecond)))
	}
	var res FrameResult
	done := make(chan error, 1)
	submitT := time.Now()
	err := s.sched.submit(deadline, d.predicted, func(ws *workerState) {
		waited := time.Since(submitT)
		tr.Span(obs.StageQueueWait, submitT, waited)
		var err error
		res, err = s.renderFrame(ws, req, d, deadline, tr)
		res.QueueSeconds = waited.Seconds()
		done <- err
	})
	if err != nil {
		atomic.AddUint64(&s.n.QueueFull, 1)
		return FrameResult{}, err
	}
	if err := <-done; err != nil {
		atomic.AddUint64(&s.n.Errors, 1)
		return FrameResult{}, err
	}
	return res, nil
}

// renderFrame runs on a scheduler worker: draw the frame on its execution
// path — a leased warm runner for one shard, else the worker fleet, else
// (fleet failed or breaker open) the standalone renderer — and measure it
// through the one tail. The paths differ only in how they draw.
// deadline (zero = none) bounds a fleet frame's recovery retries.
func (s *Server) renderFrame(ws *workerState, req *FrameRequest, d decision, deadline time.Time, tr *obs.FrameTrace) (FrameResult, error) {
	if d.q.Shards <= 1 {
		lease, res, err := s.drawLocal(req, d.q, tr)
		if err != nil {
			return FrameResult{}, err
		}
		// The image lives in the runner's arena: hold the lease across the tail.
		defer lease.Release()
		return s.finishFrame(ws, req, d, res, false, tr)
	}
	job := cluster.Job{
		Backend: string(req.Backend), Sim: req.Sim, Arch: req.Arch,
		N: d.q.N, Width: d.q.W, Height: d.q.H,
		Shards: d.q.Shards, RTWorkload: d.q.RTWorkload,
		Azimuth: req.Azimuth, Zoom: req.Zoom,
	}
	if res := s.drawFleet(job, d, deadline, tr); res != nil {
		return s.finishFrame(ws, req, d, res, false, tr)
	}
	res, err := s.drawFallback(job, tr)
	if err != nil {
		return FrameResult{}, err
	}
	return s.finishFrame(ws, req, d, res, true, tr)
}

// drawLocal leases the (cached) runner, points its camera at this
// request's orbit position, and renders. The caller releases the lease.
func (s *Server) drawLocal(req *FrameRequest, q quality, tr *obs.FrameTrace) (*scenario.RunnerLease[runnerKey], *cluster.Result, error) {
	leaseStart := time.Now()
	rk := runnerKey{arch: req.Arch, backend: req.Backend, sim: req.Sim, q: q}
	lease, err := s.runners.Acquire(rk, func() (scenario.FrameRunner, func(), error) {
		return s.prepareRunner(req, q)
	})
	if err != nil {
		return nil, nil, err
	}
	tr.Span(obs.StageRunnerLease, leaseStart, time.Since(leaseStart))
	pr := lease.Runner().(*preparedRunner)
	pr.SetCamera(render.OrbitCamera(pr.bounds, req.Azimuth, 20, req.Zoom))
	in := core.Inputs{Pixels: float64(q.W * q.H), Tasks: 1}
	renderStart := time.Now()
	elapsed, img, err := pr.RenderFrame(&in)
	if err != nil {
		lease.Release()
		return nil, nil, fmt.Errorf("serve: rendering %s/%s: %w", req.Backend, req.Sim, err)
	}
	tr.Span(obs.StageRender, renderStart, elapsed)
	in.AvgAP = in.AP
	return lease, &cluster.Result{
		//insitu:leaselife-ok the caller holds the lease, and with it the arena, until the tail is done
		Image: img, In: in, BuildSeconds: pr.BuildSeconds(), RenderSeconds: elapsed.Seconds(),
	}, nil
}

// drawFleet renders the job on the worker fleet, or returns nil when the
// fleet cannot deliver it: the circuit breaker is open, or the dispatch
// failed. The render context carries the request deadline, so recovery
// retries are charged against it. A nil result falls back to the
// standalone path at the same admitted quality — byte-identical by
// construction, so the frame cache and clients see degraded placement,
// never degraded pixels.
func (s *Server) drawFleet(job cluster.Job, d decision, deadline time.Time, tr *obs.FrameTrace) *cluster.Result {
	if !s.brk.allow() {
		atomic.AddUint64(&s.n.BreakerShortCircuits, 1)
		return nil
	}
	limit := time.Now().Add(clusterTimeout)
	if !deadline.IsZero() && deadline.Before(limit) {
		limit = deadline
	}
	ctx, cancel := context.WithDeadline(context.Background(), limit)
	dispatchStart := time.Now()
	res, err := s.cfg.Cluster.Render(ctx, job)
	cancel()
	if err != nil {
		atomic.AddUint64(&s.n.ClusterFailures, 1)
		if s.brk.failure() {
			atomic.AddUint64(&s.n.BreakerOpens, 1)
			s.cfg.Logf("serve: circuit breaker opened after cluster failure: %v", err)
		}
		s.cfg.Logf("serve: cluster render %s/%s x%d failed, falling back to standalone: %v",
			job.Backend, job.Sim, job.Shards, err)
		return nil
	}
	s.brk.success()
	// The dispatch span is the fleet round trip; the slowest rank's
	// render and the sort-last exchange nest inside it, placed from the
	// remote measurements (the fleet's clocks are this process's clocks —
	// the workers are in-process ranks).
	tr.Span(obs.StageShardDispatch, dispatchStart, time.Since(dispatchStart))
	off, rankNanos := int64(tr.StartOffset(obs.StageShardDispatch)), int64(res.RenderSeconds*1e9)
	tr.SpanNanos(obs.StageRankRender, off, rankNanos)
	tr.SpanNanos(obs.StageComposite, off+rankNanos, int64(res.CompositeSeconds*1e9))
	atomic.AddUint64(&s.n.ClusterRetries, uint64(res.Retries))
	atomic.AddUint64(&s.n.ClusterFrames, 1)
	atomic.AddUint64(&s.n.ClusterShardsTotal, uint64(job.Shards))
	atomic.AddUint64(&s.n.ClusterCompositeNanos, uint64(res.CompositeSeconds*1e9))
	atomic.AddUint64(&s.n.ClusterPredictedCompositeNanos, uint64(d.predictedComposite*1e9))
	return res
}

// drawFallback serves a sharded frame the fleet could not: the
// standalone renderer runs the identical job — same decomposition, same
// collectives, same composite — in one process, so the frame is
// byte-identical to what the healthy cluster would have produced and the
// cache key does not churn. This is the graceful-degradation floor: a
// burning fleet costs latency, never availability or pixels.
func (s *Server) drawFallback(job cluster.Job, tr *obs.FrameTrace) (*cluster.Result, error) {
	renderStart := time.Now()
	res, err := cluster.RenderStandalone(job)
	if err != nil {
		return nil, fmt.Errorf("serve: standalone fallback %s/%s x%d: %w", job.Backend, job.Sim, job.Shards, err)
	}
	atomic.AddUint64(&s.n.ClusterFallbacks, 1)
	tr.Span(obs.StageRender, renderStart, time.Since(renderStart))
	off := int64(tr.StartOffset(obs.StageRender))
	tr.SpanNanos(obs.StageComposite, off+int64(res.RenderSeconds*1e9), int64(res.CompositeSeconds*1e9))
	return res, nil
}

// finishFrame is the measure half of the frame loop, one copy for every
// execution path: encode, count the render, test the deadline against
// render + composite, record the model residuals (the composite term
// only for sharded frames), and feed the measurement to calibration —
// including the measured compositing time the Tc model refits on.
func (s *Server) finishFrame(ws *workerState, req *FrameRequest, d decision, res *cluster.Result, fleetDegraded bool, tr *obs.FrameTrace) (FrameResult, error) {
	encStart := time.Now()
	ws.png.Reset()
	if err := ws.enc.Encode(&ws.png, res.Image); err != nil {
		return FrameResult{}, fmt.Errorf("serve: encoding frame: %w", err)
	}
	// The published PNG is an exact-size copy: the frame cache may hold
	// it for a long time, and must not pin a growth buffer's spare room.
	png := bytes.Clone(ws.png.Bytes())
	tr.Span(obs.StageEncode, encStart, time.Since(encStart))

	wall, comp := res.RenderSeconds, res.CompositeSeconds
	atomic.AddUint64(&s.n.FramesRendered, 1)
	atomic.AddUint64(&s.n.RenderNanos, uint64(wall*1e9))
	dl := req.DeadlineMillis / 1e3
	tr.DeadlineMiss = dl > 0 && wall+comp > dl
	if tr.DeadlineMiss {
		atomic.AddUint64(&s.n.DeadlineMisses, 1)
	}
	s.residuals.Observe(string(req.Backend), "render", d.predicted, wall)
	if d.q.Shards > 1 {
		s.residuals.Observe(string(req.Backend), "composite", d.predictedComposite, comp)
	}
	s.feedObservation(req, d.q, res.In, res.BuildSeconds, wall, comp)

	return FrameResult{
		PNG:   png,
		Width: d.q.W, Height: d.q.H, N: d.q.N, RTWorkload: d.q.RTWorkload,
		PredictedSeconds: d.predicted, RenderSeconds: wall,
		Shards:                    d.q.Shards,
		CompositeSeconds:          comp,
		PredictedCompositeSeconds: d.predictedComposite,
		RankRenderSeconds:         res.RankRenderSeconds,
		RankCompositeSeconds:      res.RankCompositeSeconds,
		Degraded:                  d.degraded, DegradeSteps: d.steps,
		DeadlineMiss:  tr.DeadlineMiss,
		Retries:       res.Retries,
		FleetDegraded: fleetDegraded,
	}, nil
}

// prepareRunner builds the scene — step the proxy one cycle, publish,
// parse, orbit the camera — and hands it to the backend. The returned
// close hook releases the scene's device worker pool when the runner
// cache evicts the runner.
func (s *Server) prepareRunner(req *FrameRequest, q quality) (scenario.FrameRunner, func(), error) {
	backend, err := scenario.Lookup(req.Backend)
	if err != nil {
		return nil, nil, err
	}
	dev, err := device.Profile(req.Arch)
	if err != nil {
		return nil, nil, err
	}
	sm, err := sim.New(req.Sim, q.N, 1, 0)
	if err != nil {
		dev.Close()
		return nil, nil, err
	}
	sm.Step()
	node := conduit.NewNode()
	sm.Publish(node)
	pm, err := scenario.ParseMesh(node)
	if err != nil {
		dev.Close()
		return nil, nil, err
	}
	vals, err := pm.FieldValues(sm.PrimaryField())
	if err != nil {
		dev.Close()
		return nil, nil, err
	}
	bounds := pm.LocalBounds()
	cam := render.OrbitCamera(bounds, req.Azimuth, 20, req.Zoom)
	sc := scenario.NewScene(dev, pm, sm.PrimaryField(), vals, cam, q.W, q.H)
	sc.RTWorkload = q.RTWorkload
	runner, err := backend.Prepare(sc)
	if err != nil {
		dev.Close()
		return nil, nil, fmt.Errorf("serve: preparing %s for sim %q: %w", req.Backend, req.Sim, err)
	}
	return &preparedRunner{FrameRunner: runner, bounds: bounds}, dev.Close, nil
}

// feedObservation queues the served frame's measurement for the
// engine's observer. Frames rendered off the fitted ray tracing
// workload are excluded: workload is not a model input, and feeding
// derated frames would bias the refit. Sharded frames carry their
// measured compositing time and Tasks = shard count, so the calibrator
// refits the Tc model from serving traffic tagged by rank count.
func (s *Server) feedObservation(req *FrameRequest, q quality, in core.Inputs, build, wall, compositeSec float64) {
	if s.obsCh == nil || wall <= 0 {
		return
	}
	if req.Backend == core.RayTrace && q.RTWorkload != 0 {
		atomic.AddUint64(&s.n.ObservationsSkipped, 1)
		return
	}
	sample := core.Sample{
		Arch: req.Arch, Renderer: req.Backend,
		In: in, BuildTime: build, RenderTime: wall,
		CompositeTime: compositeSec,
	}
	s.obsMu.Lock()
	defer s.obsMu.Unlock()
	if s.obsClosed {
		return
	}
	select {
	case s.obsCh <- sample:
		atomic.AddUint64(&s.n.ObservationsQueued, 1)
	default:
		atomic.AddUint64(&s.n.ObservationsDropped, 1)
	}
}

// observeLoop drains measured samples into the engine's observer in
// small batches, off the render path.
func (s *Server) observeLoop() {
	defer s.obsWG.Done()
	for sample := range s.obsCh {
		batch := append(make([]core.Sample, 0, 8), sample)
	drain:
		for len(batch) < cap(batch) {
			select {
			case more, ok := <-s.obsCh:
				if !ok {
					break drain
				}
				batch = append(batch, more)
			default:
				break drain
			}
		}
		resp, err := s.engine.Observe(batch)
		if err != nil {
			s.cfg.Logf("serve: observe: %d samples rejected: %v", len(batch), err)
			continue
		}
		if resp.Published {
			atomic.AddUint64(&s.n.Refits, 1)
			s.cfg.Logf("serve: calibration published generation %d (corpus %d)", resp.Generation, resp.CorpusSize)
		}
	}
}
