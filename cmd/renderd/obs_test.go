package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"strings"
	"testing"

	"insitu/internal/obs"
)

// obsServer renders a few frames on a two-worker cluster server (one
// miss, one hit, one sharded frame) so every observability surface,
// fleet section included, has data to show.
func obsServer(t *testing.T) *httptest.Server {
	t.Helper()
	ts, _ := startRenderdCluster(t, 1000, 2)
	for _, q := range []string{
		"backend=raytracer&sim=kripke&n=8&size=64",
		"backend=raytracer&sim=kripke&n=8&size=64",
		"backend=volume&sim=kripke&n=8&size=48&shards=2",
	} {
		resp, body := getFrame(t, ts, q)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("frame %s: status %d: %s", q, resp.StatusCode, body)
		}
	}
	return ts
}

// sortedKeys returns the keys of a decoded JSON object, sorted.
func sortedKeys(t *testing.T, v any) []string {
	t.Helper()
	m, ok := v.(map[string]any)
	if !ok {
		t.Fatalf("not an object: %T", v)
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// assertKeySet fails with the full difference when got and want (both
// sorted) disagree.
func assertKeySet(t *testing.T, what string, got, want []string) {
	t.Helper()
	if slices.Equal(got, want) {
		return
	}
	var missing, extra []string
	for _, k := range want {
		if !slices.Contains(got, k) {
			missing = append(missing, k)
		}
	}
	for _, k := range got {
		if !slices.Contains(want, k) {
			extra = append(extra, k)
		}
	}
	t.Errorf("%s: missing %q, unexpected %q\ngot: %q", what, missing, extra, got)
}

// serveKeys is the complete key set of /v1/metrics' serve section on a
// cluster server that has served a miss, a hit and a sharded frame —
// the contract dashboards, bench/ and the Prometheus names rest on.
var serveKeys = []string{
	"admitted", "bad_requests", "breaker_opens", "breaker_short_circuits",
	"breaker_state", "cache_hits", "cache_misses", "cached_frames", "cluster",
	"cluster_composite_seconds_total", "cluster_failures",
	"cluster_fallbacks", "cluster_frames",
	"cluster_predicted_composite_seconds_total", "cluster_retries",
	"cluster_shards_total", "coalesced", "deadline_misses", "degraded",
	"errors", "fleet_clamped", "foreground_load_seconds", "frame_stages",
	"frames_rendered", "model_drift", "observations_dropped",
	"observations_queued", "observations_skipped", "prefetch_errors",
	"prefetch_hits", "prefetch_no_headroom", "prefetch_no_headroom_budget",
	"prefetch_no_headroom_inflight", "prefetch_no_headroom_scheduler",
	"prefetch_queue_depth",
	"prefetch_rendered", "prefetch_scheduled", "prefetch_shed",
	"prefetch_stale", "queue_depth", "queue_full", "refits", "rejected",
	"render_seconds_total", "runner_cache", "runners_live", "session_frames",
	"sessions_closed", "sessions_open", "sessions_opened",
}

// serveClusterKeys is the complete key set of serve.cluster.
var serveClusterKeys = []string{
	"alive_workers", "bytes_sent", "evictions", "frames_dispatched", "links",
	"messages_sent", "rank_failures", "ranks", "retries", "snapshot_errors",
	"snapshots_acked", "snapshots_pushed", "stale_drops",
	"worker_generations", "workers",
}

// servePromNames is every renderd_serve_* metric name /metrics exposes
// for the same traffic.
var servePromNames = []string{
	"renderd_serve_admitted", "renderd_serve_bad_requests",
	"renderd_serve_breaker_opens", "renderd_serve_breaker_short_circuits",
	"renderd_serve_breaker_state", "renderd_serve_cache_hits",
	"renderd_serve_cache_misses", "renderd_serve_cached_frames",
	"renderd_serve_cluster_alive_workers", "renderd_serve_cluster_bytes_sent",
	"renderd_serve_cluster_composite_seconds_total",
	"renderd_serve_cluster_evictions", "renderd_serve_cluster_failures",
	"renderd_serve_cluster_fallbacks", "renderd_serve_cluster_frames",
	"renderd_serve_cluster_frames_dispatched",
	"renderd_serve_cluster_links_bytes", "renderd_serve_cluster_links_from",
	"renderd_serve_cluster_links_messages", "renderd_serve_cluster_links_to",
	"renderd_serve_cluster_messages_sent",
	"renderd_serve_cluster_predicted_composite_seconds_total",
	"renderd_serve_cluster_rank_failures",
	"renderd_serve_cluster_ranks_alive", "renderd_serve_cluster_ranks_blame",
	"renderd_serve_cluster_ranks_heartbeat_age_seconds",
	"renderd_serve_cluster_ranks_rank", "renderd_serve_cluster_retries",
	"renderd_serve_cluster_shards_total",
	"renderd_serve_cluster_snapshot_errors",
	"renderd_serve_cluster_snapshots_acked",
	"renderd_serve_cluster_snapshots_pushed",
	"renderd_serve_cluster_stale_drops",
	"renderd_serve_cluster_worker_generations",
	"renderd_serve_cluster_workers", "renderd_serve_coalesced",
	"renderd_serve_deadline_misses", "renderd_serve_degraded",
	"renderd_serve_errors", "renderd_serve_fleet_clamped",
	"renderd_serve_foreground_load_seconds",
	"renderd_serve_frame_stages_stages_histogramjson_bucket",
	"renderd_serve_frame_stages_stages_histogramjson_count",
	"renderd_serve_frame_stages_stages_histogramjson_sum",
	"renderd_serve_frame_stages_total_bucket",
	"renderd_serve_frame_stages_total_count",
	"renderd_serve_frame_stages_total_sum", "renderd_serve_frames_rendered",
	"renderd_serve_model_drift_bucket", "renderd_serve_model_drift_count",
	"renderd_serve_model_drift_mean_abs_error",
	"renderd_serve_model_drift_sum", "renderd_serve_observations_dropped",
	"renderd_serve_observations_queued", "renderd_serve_observations_skipped",
	"renderd_serve_prefetch_errors", "renderd_serve_prefetch_hits",
	"renderd_serve_prefetch_no_headroom",
	"renderd_serve_prefetch_no_headroom_budget",
	"renderd_serve_prefetch_no_headroom_inflight",
	"renderd_serve_prefetch_no_headroom_scheduler",
	"renderd_serve_prefetch_queue_depth", "renderd_serve_prefetch_rendered",
	"renderd_serve_prefetch_scheduled", "renderd_serve_prefetch_shed",
	"renderd_serve_prefetch_stale", "renderd_serve_queue_depth",
	"renderd_serve_queue_full", "renderd_serve_refits",
	"renderd_serve_rejected", "renderd_serve_render_seconds_total",
	"renderd_serve_runner_cache_evicted",
	"renderd_serve_runner_cache_evicted_pinned",
	"renderd_serve_runner_cache_hits", "renderd_serve_runner_cache_leases",
	"renderd_serve_runner_cache_live", "renderd_serve_runner_cache_pinned",
	"renderd_serve_runner_cache_prepare_errors",
	"renderd_serve_runner_cache_prepared", "renderd_serve_runners_live",
	"renderd_serve_session_frames", "renderd_serve_sessions_closed",
	"renderd_serve_sessions_open", "renderd_serve_sessions_opened",
}

// walkJSON descends a decoded JSON document by key path, failing the
// test with the path when a segment is missing.
func walkJSON(t *testing.T, doc any, path ...string) any {
	t.Helper()
	cur := doc
	for i, key := range path {
		m, ok := cur.(map[string]any)
		if !ok {
			t.Fatalf("%s: not an object", strings.Join(path[:i], "."))
		}
		cur, ok = m[key]
		if !ok {
			t.Fatalf("missing key %s", strings.Join(path[:i+1], "."))
		}
	}
	return cur
}

// TestMetricsJSONShape is the golden shape test for /v1/metrics: the
// keys dashboards and the chaos harness read must exist with the
// documented structure — a histogram with quantiles and buckets per
// lifecycle stage, and per-backend drift series.
func TestMetricsJSONShape(t *testing.T) {
	ts := obsServer(t)
	resp, err := ts.Client().Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}

	for _, key := range []string{"uptime_seconds", "generation", "serve", "ops", "predict_cache"} {
		walkJSON(t, doc, key)
	}
	assertKeySet(t, "serve", sortedKeys(t, walkJSON(t, doc, "serve")), serveKeys)
	assertKeySet(t, "serve.cluster", sortedKeys(t, walkJSON(t, doc, "serve", "cluster")), serveClusterKeys)

	// The total histogram carries count, quantiles, and buckets.
	total := walkJSON(t, doc, "serve", "frame_stages", "total")
	for _, key := range []string{"count", "sum_seconds", "p50_seconds", "p95_seconds", "p99_seconds", "buckets"} {
		walkJSON(t, total, key)
	}
	if n := walkJSON(t, total, "count").(float64); n < 2 {
		t.Errorf("frame_stages.total.count = %v, want >= 2", n)
	}
	buckets := walkJSON(t, total, "buckets").([]any)
	if len(buckets) == 0 {
		t.Fatal("frame_stages.total.buckets empty")
	}
	walkJSON(t, buckets[0], "le_seconds")
	walkJSON(t, buckets[0], "count")

	// Per-stage histograms name the lifecycle stages this traffic took.
	stages := walkJSON(t, doc, "serve", "frame_stages", "stages").([]any)
	seen := map[string]bool{}
	for _, s := range stages {
		seen[walkJSON(t, s, "stage").(string)] = true
		walkJSON(t, s, "count")
	}
	for _, want := range []string{"admit", "queue_wait", "runner_lease", "render", "encode", "cache_store"} {
		if !seen[want] {
			t.Errorf("frame_stages.stages missing %q (have %v)", want, seen)
		}
	}

	// Drift series: backend x term with count, means, and buckets.
	drift := walkJSON(t, doc, "serve", "model_drift").([]any)
	var rendered int
	for _, d := range drift {
		for _, key := range []string{"backend", "term", "count", "mean_error", "mean_abs_error", "buckets"} {
			walkJSON(t, d, key)
		}
		if walkJSON(t, d, "term").(string) == "render" && walkJSON(t, d, "count").(float64) > 0 {
			rendered++
		}
	}
	if rendered == 0 {
		t.Errorf("model_drift has no populated render series: %v", drift)
	}
}

// TestPromExposition validates /metrics against the Prometheus text
// format and spot-checks the series a scrape must carry.
func TestPromExposition(t *testing.T) {
	ts := obsServer(t)
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	if err := obs.ValidatePromText(text); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, text)
	}
	names := map[string]bool{}
	for _, line := range strings.Split(text, "\n") {
		if name, _, _ := strings.Cut(line, " "); strings.HasPrefix(name, "renderd_serve_") {
			name, _, _ = strings.Cut(name, "{")
			names[name] = true
		}
	}
	got := make([]string, 0, len(names))
	for name := range names {
		got = append(got, name)
	}
	sort.Strings(got)
	assertKeySet(t, "renderd_serve_* metric names", got, servePromNames)
	for _, want := range []string{
		"renderd_serve_frames_rendered ",
		"renderd_serve_frame_stages_total_count ",
		"renderd_serve_frame_stages_total_bucket{le=",
		`renderd_serve_model_drift_bucket{backend="raytracer",term="render",le=`,
		"renderd_generation ",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestTraceEndpoint: /v1/trace returns the recent lifecycle timelines,
// honors last=N, and format=chrome emits a trace_event array.
func TestTraceEndpoint(t *testing.T) {
	ts := obsServer(t)
	resp, err := ts.Client().Get(ts.URL + "/v1/trace?last=10")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body traceBody
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Count < 2 || len(body.Traces) != body.Count {
		t.Fatalf("trace count %d (%d entries), want >= 2", body.Count, len(body.Traces))
	}
	// One miss (full lifecycle) and one hit (admission only).
	var sawRender, sawHit bool
	for _, tr := range body.Traces {
		if tr.CacheHit {
			sawHit = true
		}
		for _, sp := range tr.Spans {
			if sp.Stage == "render" {
				sawRender = true
			}
		}
		if len(tr.Spans) == 0 || tr.WallSeconds < 0 {
			t.Errorf("degenerate trace: %+v", tr)
		}
	}
	if !sawRender || !sawHit {
		t.Errorf("traces missing render span (%v) or cache hit (%v)", sawRender, sawHit)
	}

	// last=1 narrows the window.
	var one traceBody
	if code := getJSON(t, ts, "/v1/trace?last=1", &one); code != http.StatusOK || one.Count != 1 {
		t.Errorf("last=1: code %d count %d", code, one.Count)
	}
	// A bad last is a 400.
	var eb errorBody
	if code := getJSON(t, ts, "/v1/trace?last=zero", &eb); code != http.StatusBadRequest {
		t.Errorf("bad last: code %d", code)
	}

	// The Chrome dump is a JSON array of complete events.
	resp2, err := ts.Client().Get(ts.URL + "/v1/trace?last=10&format=chrome")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var events []map[string]any
	if err := json.NewDecoder(resp2.Body).Decode(&events); err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("chrome dump has no events")
	}
	for _, ev := range events {
		if ev["ph"] != "X" {
			t.Fatalf("event phase %v, want X: %v", ev["ph"], ev)
		}
	}
}

// TestFrameResponseQueueHeaders: a rendered frame reports its scheduler
// queue wait; impossible deadlines never get far enough to queue, and a
// served frame that missed its deadline is flagged.
func TestFrameResponseQueueHeaders(t *testing.T) {
	ts, _ := startRenderd(t, 1000)
	resp, body := getFrame(t, ts, "backend=raytracer&sim=kripke&n=8&size=64")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("frame status %d: %s", resp.StatusCode, body)
	}
	qs := resp.Header.Get("X-Renderd-Queue-Seconds")
	if qs == "" {
		t.Fatal("X-Renderd-Queue-Seconds missing")
	}
	var sec float64
	if _, err := fmt.Sscanf(qs, "%g", &sec); err != nil || sec < 0 {
		t.Errorf("X-Renderd-Queue-Seconds = %q", qs)
	}
	if resp.Header.Get("X-Renderd-Deadline-Miss") != "" {
		t.Errorf("fresh render flagged as a deadline miss: %+v", resp.Header)
	}
	// A cache hit never queued: zero wait, no miss flag.
	resp2, _ := getFrame(t, ts, "backend=raytracer&sim=kripke&n=8&size=64")
	if resp2.Header.Get("X-Renderd-Cache") != "hit" {
		t.Fatal("second request missed the cache")
	}
	if got := resp2.Header.Get("X-Renderd-Queue-Seconds"); got != "0" {
		t.Errorf("cache hit queue seconds %q, want 0", got)
	}
}
