package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"time"
)

// replayOnce builds a fresh stack and replays reqs on it; tr == nil is
// the untraced replay.
func replayOnce(ctx context.Context, p paths, w *workload, warm, reqs []request, budget time.Duration, tr *tracer) ([]outcome, layerSamples, error) {
	st, err := newStack(p, w)
	if err != nil {
		return nil, nil, err
	}
	defer st.close()
	rp := &replayer{st: st, tr: tr, layers: layerSamples{}, runners: map[string]*harnessRunner{}}
	defer rp.close()
	if err := rp.warm(warm); err != nil {
		return nil, nil, err
	}
	outs, err := rp.replay(ctx, w, reqs, budget)
	return outs, rp.layers, err
}

func outcomeDurations(outs []outcome, keep func(o *outcome) bool) []float64 {
	var d []float64
	for i := range outs {
		if keep(&outs[i]) {
			d = append(d, float64(outs[i].dur))
		}
	}
	return d
}

// runTraced is one --trace 1 run: an untraced and a traced in-process
// replay of the same requests, the fixed layer loops, and a short HTTP
// twin whose server counters are scraped from GET /v1/metrics.
func runTraced(ctx context.Context, p paths, spec *benchmarkSpec, w *workload, seed uint64, window time.Duration) (result, error) {
	values := map[string]float64{}
	n := maxReplay
	if w.shape == openLoop {
		n = min(n, int(deadlineRate*window.Seconds()))
	}
	warm, reqs := replayStream(w, seed, n)

	// Untraced first, on a time budget; the traced replay then repeats
	// exactly the requests that fitted.
	plain, _, err := replayOnce(ctx, p, w, warm, reqs, window/4, nil)
	if err != nil {
		return result{}, err
	}
	replayed := len(plain)
	if w.shape == sessionLoop {
		replayed += sessionCount
	}
	tr := newTracer()
	traced, layers, err := replayOnce(ctx, p, w, warm, reqs[:replayed], 0, tr)
	if err != nil {
		return result{}, err
	}
	tracePath := filepath.Join(p.out, "trace-"+w.name+".json")
	if err := tr.write(tracePath); err != nil {
		return result{}, err
	}

	all := func(*outcome) bool { return true }
	values["trace.replayed_requests"] = float64(len(traced))
	if base := median(outcomeDurations(plain, all)); base > 0 {
		values["trace.overhead_ratio"] = median(outcomeDurations(traced, all)) / base
	}
	values["serve.render_hit_ns"] = median(outcomeDurations(traced, func(o *outcome) bool { return o.hit && !o.session }))
	values["serve.session_frame_hit_ns"] = median(outcomeDurations(traced, func(o *outcome) bool { return o.hit && o.session }))
	values["serve.render_miss_ms"] = median(outcomeDurations(traced, func(o *outcome) bool { return !o.hit && !o.rejected })) / 1e6
	values["serve.reject_us"] = median(outcomeDurations(traced, func(o *outcome) bool { return o.rejected })) / 1e3
	for name, samples := range layers {
		values[name] = median(samples)
	}
	if two, alone := values["cluster.render_shards2_ms"], values["cluster.standalone_shards2_ms"]; two > 0 {
		values["cluster.dispatch_overhead_ms"] = two - alone
	}

	loops, err := layerLoops(p)
	if err != nil {
		return result{}, err
	}
	for name, v := range loops {
		values[name] = v
	}

	// The HTTP twin: the same stream over HTTP for a short window.
	twin, err := runHTTP(ctx, p, w, seed, window*3/10, 1)
	if err != nil {
		return result{}, err
	}
	twinValues(twin, values)
	if inproc := median(outcomeDurations(traced, all)); inproc > 0 {
		all, _, _ := latencies(twin.samples)
		values["http.overhead_us"] = median(all)*1e3 - inproc/1e3
	}

	// Report exactly BENCHMARK.json's per_layer list: a layer this
	// workload never reaches reports 0, and a value the list does not
	// name is a mistake in this file, not something to drop silently.
	metrics := map[string]metric{}
	for _, m := range spec.PerLayer {
		metrics[m.Name] = metric{values[m.Name], m.Unit}
	}
	for name := range values {
		if _, ok := metrics[name]; !ok {
			return result{}, fmt.Errorf("per-layer metric %q is measured but not in BENCHMARK.json", name)
		}
	}
	fmt.Fprintf(os.Stderr, "\n%s  seed=%d  traced replay of %d requests (%d spans) -> %s\n",
		w.name, seed, len(traced), len(tr.spans), tracePath)
	printMetrics(metrics)
	for i, err := range twin.failures {
		if i == 10 {
			break
		}
		fmt.Fprintf(os.Stderr, "  FAIL %v\n", err)
	}
	return result{
		Correct:   len(twin.failures) == 0,
		Attempted: twin.attempted + len(plain) + len(traced),
		Failed:    len(twin.failures),
		Metrics:   metrics,
	}, nil
}

// reportedStages are the frame-lifecycle stages whose p50 is reported;
// renderd may name more (or new ones) without breaking the benchmark.
var reportedStages = []string{"admit", "queue_wait", "runner_lease", "render", "encode", "cache_store", "shard_dispatch", "rank_render", "composite"}

// twinValues fills in the counters scraped from the twin's server and
// the ungated client diagnostics.
func twinValues(twin *httpRun, values map[string]float64) {
	sv := &twin.stats.Serve
	ratio := func(num, den uint64) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	values["serve.cache_hit_ratio"] = ratio(sv.CacheHits, sv.CacheHits+sv.CacheMisses)
	values["serve.degraded_ratio"] = ratio(sv.Degraded, sv.Admitted)
	values["serve.rejected"] = float64(sv.Rejected)
	values["serve.deadline_misses"] = float64(sv.DeadlineMisses)
	values["serve.queue_full"] = float64(sv.QueueFull)
	values["serve.coalesced"] = float64(sv.Coalesced)
	values["serve.cluster_frames"] = float64(sv.ClusterFrames)
	values["serve.prefetch_hit_ratio"] = ratio(sv.PrefetchHits, sv.SessionFrames)
	if sv.PrefetchRendered > 0 {
		values["serve.prefetch_waste_ratio"] = 1 - ratio(min(sv.PrefetchHits, sv.PrefetchRendered), sv.PrefetchRendered)
	}
	values["serve.prefetch_no_headroom"] = float64(sv.PrefetchNoHeadroom)
	for _, st := range sv.FrameStages.Stages {
		if slices.Contains(reportedStages, st.Stage) {
			values["serve.stage_p50_ms."+st.Stage] = st.P50 * 1e3
		}
	}

	all, _, _ := latencies(twin.samples)
	tail := tailPercent(len(all))
	values["client.latency_tail_percent"] = tail
	values["client.latency_tail_ms"] = quantile(all, tail/100)
	var rejects, lags []float64
	for i := range twin.samples {
		s := &twin.samples[i]
		if s.status == http.StatusUnprocessableEntity {
			rejects = append(rejects, ms(s.lat))
		}
		if s.req.Due > 0 {
			lags = append(lags, ms(s.lag))
		}
	}
	values["client.reject_p50_ms"] = median(rejects)
	values["client.sched_lag_tail_ms"] = quantile(lags, tailPercent(len(lags))/100)
}
