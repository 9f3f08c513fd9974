package serve

import (
	"insitu/internal/cluster"
	"insitu/internal/obs"
	"insitu/internal/scenario"
)

// Counters is every monotonic count of the serving path, declared once.
// Hot paths bump the server's live block with atomic.AddUint64 — one
// locked add, no lock, no allocation; Stats embeds an atomic copy, so
// each field is served under its JSON tag on /v1/metrics and, through
// obs.WriteProm, on /metrics. All fields are uint64 (see
// obs.LoadCounters).
type Counters struct {
	// Admission outcomes. Degraded counts admissions that changed
	// quality; Rejected infeasible-even-degraded refusals.
	Admitted    uint64 `json:"admitted"`
	Degraded    uint64 `json:"degraded"`
	Rejected    uint64 `json:"rejected"`
	BadRequests uint64 `json:"bad_requests"`
	Errors      uint64 `json:"errors"`

	// Frame cache effectiveness. Coalesced counts misses served from a
	// concurrent identical render instead of a duplicate job.
	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
	Coalesced   uint64 `json:"coalesced"`

	// Render throughput. DeadlineMisses counts served frames whose
	// measured time exceeded their deadline (the model's admission was
	// too optimistic — exactly what calibration feedback corrects).
	// RenderNanos is served as Stats.RenderSecondsTotal.
	FramesRendered uint64 `json:"frames_rendered"`
	RenderNanos    uint64 `json:"-"`
	DeadlineMisses uint64 `json:"deadline_misses"`
	QueueFull      uint64 `json:"queue_full"`

	// Calibration feedback.
	ObservationsQueued  uint64 `json:"observations_queued"`
	ObservationsDropped uint64 `json:"observations_dropped"`
	ObservationsSkipped uint64 `json:"observations_skipped"`
	Refits              uint64 `json:"refits"`

	// Cluster serving. ClusterShardsTotal sums served shard counts
	// (total partial renders); the composite nanosecond totals pair the
	// fitted Tc model's admission-time predictions with the measured
	// sort-last times (served in seconds by Stats), so Tc drift is
	// observable from /v1/metrics alone.
	ClusterFrames                  uint64 `json:"cluster_frames"`
	ClusterShardsTotal             uint64 `json:"cluster_shards_total"`
	ClusterCompositeNanos          uint64 `json:"-"`
	ClusterPredictedCompositeNanos uint64 `json:"-"`

	// Fleet fault tolerance. ClusterRetries sums per-frame recovery
	// retries; ClusterFailures counts frames the fleet gave up on (each
	// served by the standalone fallback, with ClusterFallbacks also
	// counting breaker short-circuits); FleetClamped counts requests
	// whose shard count was re-planned to the surviving workers.
	ClusterRetries       uint64 `json:"cluster_retries"`
	ClusterFailures      uint64 `json:"cluster_failures"`
	ClusterFallbacks     uint64 `json:"cluster_fallbacks"`
	BreakerOpens         uint64 `json:"breaker_opens"`
	BreakerShortCircuits uint64 `json:"breaker_short_circuits"`
	FleetClamped         uint64 `json:"fleet_clamped"`

	// Interactive sessions and speculative prefetch. PrefetchHits counts
	// frames served from a speculatively rendered cache entry (including
	// mid-render flight joins) — PrefetchHits/SessionFrames is the
	// predictor's hit rate. Scheduled/Rendered/Stale partition submitted
	// speculation by outcome (stale: the frame arrived or a flight
	// started before the job ran); Shed counts jobs dropped by queue
	// overflow or shutdown. The NoHeadroom counts are submissions
	// refused for lack of idle capacity, by reason: the session's
	// in-flight depth cap, its think-time budget, or the scheduler's
	// foreground-load gate.
	SessionsOpened uint64 `json:"sessions_opened"`
	SessionsClosed uint64 `json:"sessions_closed"`
	SessionFrames  uint64 `json:"session_frames"`

	PrefetchHits                uint64 `json:"prefetch_hits"`
	PrefetchScheduled           uint64 `json:"prefetch_scheduled"`
	PrefetchRendered            uint64 `json:"prefetch_rendered"`
	PrefetchStale               uint64 `json:"prefetch_stale"`
	PrefetchShed                uint64 `json:"prefetch_shed"`
	PrefetchNoHeadroomInflight  uint64 `json:"prefetch_no_headroom_inflight"`
	PrefetchNoHeadroomBudget    uint64 `json:"prefetch_no_headroom_budget"`
	PrefetchNoHeadroomScheduler uint64 `json:"prefetch_no_headroom_scheduler"`
	PrefetchErrors              uint64 `json:"prefetch_errors"`
}

// Stats is one metrics snapshot, JSON-shaped for /v1/metrics: the
// counters plus the gauges and totals derived from them.
type Stats struct {
	Counters

	// CachedFrames is the frame cache's entry count; QueueDepth the
	// queued foreground jobs; RunnersLive the warm runners held.
	CachedFrames int `json:"cached_frames"`
	QueueDepth   int `json:"queue_depth"`
	RunnersLive  int `json:"runners_live"`

	RenderSecondsTotal                    float64 `json:"render_seconds_total"`
	ClusterCompositeSecondsTotal          float64 `json:"cluster_composite_seconds_total"`
	ClusterPredictedCompositeSecondsTotal float64 `json:"cluster_predicted_composite_seconds_total"`

	// Cluster carries the fleet's transport and replication counters
	// when this server fronts one; BreakerState is then "closed",
	// "open", or "half-open".
	Cluster      *cluster.Stats `json:"cluster,omitempty"`
	BreakerState string         `json:"breaker_state,omitempty"`

	SessionsOpen int `json:"sessions_open"`
	// PrefetchNoHeadroom is the total of the three NoHeadroom reasons.
	PrefetchNoHeadroom uint64 `json:"prefetch_no_headroom"`
	// PrefetchQueueDepth is the queued (not yet running) speculative
	// render count; ForegroundLoadSeconds the model-predicted cost of
	// queued plus running foreground work — the headroom signal
	// background admission gates on.
	PrefetchQueueDepth    int     `json:"prefetch_queue_depth"`
	ForegroundLoadSeconds float64 `json:"foreground_load_seconds"`

	// RunnerCache is the lease/eviction view of the warm-runner cache
	// sessions pin themselves into.
	RunnerCache scenario.RunnerCacheStats `json:"runner_cache"`

	// FrameStages is the per-stage latency breakdown of every committed
	// frame trace: one histogram per lifecycle stage plus end-to-end wall
	// time, with interpolated p50/p95/p99.
	FrameStages obs.StageLatencyJSON `json:"frame_stages"`

	// ModelDrift is the per-backend, per-term distribution of prediction
	// residuals (predicted − measured)/measured — the live view of how far
	// the fitted models have wandered from what the serving path measures.
	ModelDrift []obs.DriftJSON `json:"model_drift,omitempty"`
}

// Stats snapshots the serving counters and gauges.
func (s *Server) Stats() Stats {
	n := obs.LoadCounters(&s.n)
	st := Stats{
		Counters:                              n,
		CachedFrames:                          s.frames.Len(),
		QueueDepth:                            s.sched.depth(),
		RunnersLive:                           s.runners.Len(),
		RenderSecondsTotal:                    float64(n.RenderNanos) / 1e9,
		ClusterCompositeSecondsTotal:          float64(n.ClusterCompositeNanos) / 1e9,
		ClusterPredictedCompositeSecondsTotal: float64(n.ClusterPredictedCompositeNanos) / 1e9,
		SessionsOpen:                          s.SessionsOpen(),
		PrefetchNoHeadroom:                    n.PrefetchNoHeadroomInflight + n.PrefetchNoHeadroomBudget + n.PrefetchNoHeadroomScheduler,
		PrefetchQueueDepth:                    s.sched.bgDepth(),
		ForegroundLoadSeconds:                 s.sched.foregroundLoad(),
		RunnerCache:                           s.runners.Stats(),
		FrameStages:                           s.stageLat.JSON(),
		ModelDrift:                            s.residuals.JSON(),
	}
	if s.cfg.Cluster != nil {
		fleet := s.cfg.Cluster.Stats()
		st.Cluster = &fleet
		st.BreakerState = s.brk.snapshot().String()
	}
	return st
}
