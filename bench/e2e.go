package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"slices"
	"time"

	"insitu/internal/cluster"
)

// setupRounds is how many times a run starts and warms a server; the
// reported setup_s is their median and the last server is measured.
const setupRounds = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the one JSON object a run prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// clientCount is the load size: min(nproc, 4) connections unless the
// workload fixes its own.
func clientCount(w *workload) int {
	if w.clients > 0 {
		return w.clients
	}
	return min(runtime.NumCPU(), 4)
}

// httpRun is everything one measured window against one server yields.
type httpRun struct {
	setups  []float64 // seconds, one per setup round
	window  time.Duration
	samples []sample // window only
	// cpuPerFrame is server CPU ms per delivered frame, one value per
	// tenth of the window.
	cpuPerFrame []float64
	peakRSSMB   float64
	stats       serverStats
	failures    []error
	attempted   int
}

// serverStats is the part of GET /v1/metrics the benchmark reads.
type serverStats struct {
	Serve struct {
		Admitted           uint64 `json:"admitted"`
		Degraded           uint64 `json:"degraded"`
		Rejected           uint64 `json:"rejected"`
		CacheHits          uint64 `json:"cache_hits"`
		CacheMisses        uint64 `json:"cache_misses"`
		Coalesced          uint64 `json:"coalesced"`
		DeadlineMisses     uint64 `json:"deadline_misses"`
		QueueFull          uint64 `json:"queue_full"`
		ClusterFrames      uint64 `json:"cluster_frames"`
		SessionFrames      uint64 `json:"session_frames"`
		PrefetchHits       uint64 `json:"prefetch_hits"`
		PrefetchRendered   uint64 `json:"prefetch_rendered"`
		PrefetchNoHeadroom uint64 `json:"prefetch_no_headroom"`
		FrameStages        struct {
			Stages []struct {
				Stage string  `json:"stage"`
				P50   float64 `json:"p50_seconds"`
			} `json:"stages"`
		} `json:"frame_stages"`
	} `json:"serve"`
}

// runHTTP sets a server up setupRounds times, measures one window on
// the last, verifies every answer, and stops everything it started.
func runHTTP(ctx context.Context, p paths, w *workload, seed uint64, window time.Duration, rounds int) (*httpRun, error) {
	run := &httpRun{window: window}
	var srv *server
	var drv *driver
	defer func() {
		if drv != nil {
			drv.close()
		}
		if srv != nil {
			srv.stop()
		}
	}()
	fail := func(err error) (*httpRun, error) {
		if srv != nil {
			return nil, fmt.Errorf("%w\n%s", err, srv.logTail(20))
		}
		return nil, err
	}
	for round := 0; round < rounds; round++ {
		if srv != nil {
			drv.close()
			srv.stop()
			srv, drv = nil, nil
		}
		t0 := time.Now()
		var err error
		if srv, err = startServer(ctx, p, w.flags); err != nil {
			return fail(err)
		}
		drv = newDriver(w, seed, srv.base, clientCount(w))
		warm := newRecorder()
		if err := drv.warmUp(ctx, warm); err != nil {
			return fail(err)
		}
		run.setups = append(run.setups, time.Since(t0).Seconds())
		run.attempted += len(warm.samples)
		run.failures = append(run.failures, verifyAll(warm.samples)...)
	}

	rec := newRecorder()
	start := time.Now()
	// The sampler stops by itself at the end of the window, or when ctx
	// is cancelled.
	sampled := make(chan error)
	go func() {
		var err error
		run.cpuPerFrame, err = sampleCPU(ctx, srv, rec, start, window)
		sampled <- err
	}()
	drv.window(ctx, rec, start, window)
	if err := <-sampled; err != nil {
		return fail(err)
	}
	var err error
	if run.peakRSSMB, err = srv.peakRSSMB(); err != nil {
		return fail(err)
	}
	if err := getJSON(ctx, srv.base+"/v1/metrics", &run.stats); err != nil {
		return fail(err)
	}

	clustered := slices.Contains(w.flags, "-cluster")
	got, err := runProbes(ctx, srv.base, clustered)
	if err != nil {
		return fail(err)
	}
	if err := checkGolden(p.golden, got); err != nil {
		run.failures = append(run.failures, err)
	}
	if clustered {
		if err := checkStandalone(got[probeName(&shardProbe)]); err != nil {
			run.failures = append(run.failures, err)
		}
	}
	run.attempted += len(got)

	run.samples = rec.samples
	run.attempted += len(run.samples)
	run.failures = append(run.failures, verifyAll(run.samples)...)
	if w.minHitShare > 0 {
		hits := 0
		for i := range run.samples {
			hits += btoi(run.samples[i].cacheHit)
		}
		if share := float64(hits) / float64(max(len(run.samples), 1)); share < w.minHitShare {
			run.failures = append(run.failures, fmt.Errorf("%s: cache hit share %.4f, want >= %g", w.name, share, w.minHitShare))
		}
	}
	if len(run.failures) > 0 {
		fmt.Fprintln(os.Stderr, srv.logTail(20))
	}
	return run, nil
}

// sampleCPU reads the server's CPU time at every tenth of the window
// and returns CPU ms per frame delivered in each tenth. Tenths with no
// delivery are skipped.
func sampleCPU(ctx context.Context, srv *server, rec *recorder, start time.Time, window time.Duration) ([]float64, error) {
	const slices = 10
	var out []float64
	cpu0, err := srv.cpuSeconds()
	if err != nil {
		return nil, err
	}
	n0 := rec.delivered.Load()
	for i := 1; i <= slices; i++ {
		select {
		case <-time.After(time.Until(start.Add(window * time.Duration(i) / slices))):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		cpu1, err := srv.cpuSeconds()
		if err != nil {
			return nil, err
		}
		n1 := rec.delivered.Load()
		if n1 > n0 {
			out = append(out, (cpu1-cpu0)*1e3/float64(n1-n0))
		}
		cpu0, n0 = cpu1, n1
	}
	return out, nil
}

// checkStandalone renders the sharded probe with cluster.RenderStandalone
// in this process and requires the served pixels to equal it: the fleet
// may change where a frame renders, never what it shows.
func checkStandalone(servedHash string) error {
	r := &shardProbe
	res, err := cluster.RenderStandalone(cluster.Job{
		Backend: r.Backend, Sim: r.Sim, Arch: "cpu", N: r.N, Width: r.Size, Height: r.Size,
		Shards: r.Shards, Azimuth: float64(r.AzMilli) / 1e3, Zoom: float64(r.ZoomMil) / 1e3,
	})
	if err != nil {
		return fmt.Errorf("standalone reference: %w", err)
	}
	if ref := pixelHash(res.Image.ToRGBA()); ref != servedHash {
		return fmt.Errorf("shards=2 frame differs from cluster.RenderStandalone: served %s, reference %s", servedHash, ref)
	}
	return nil
}

// latencies collects the window's delivered-frame latencies (ms): all
// of them, the primary class, and each class.
func latencies(samples []sample) (all, primary []float64, byClass map[string][]float64) {
	byClass = map[string][]float64{}
	for i := range samples {
		s := &samples[i]
		if s.err != nil || s.status != http.StatusOK {
			continue
		}
		ms := float64(s.lat) / float64(time.Millisecond)
		all = append(all, ms)
		byClass[s.req.Class] = append(byClass[s.req.Class], ms)
		if s.req.Primary {
			primary = append(primary, ms)
		}
	}
	return all, primary, byClass
}

// endToEnd computes the end-to-end metrics from one HTTP run. Every
// workload reports every metric; where a workload has no deadlines, no
// degradation or one shard class, the metric's definition still holds
// and gives 1.
func endToEnd(run *httpRun) map[string]metric {
	var done []float64
	var met, feasible int
	var servedPx, askedPx float64
	for i := range run.samples {
		s := &run.samples[i]
		if !s.req.Feasible {
			continue
		}
		feasible++
		if s.err != nil || s.status != http.StatusOK {
			continue // refused, failed or late all miss the budget
		}
		done = append(done, s.done.Seconds())
		if float64(s.lat)/float64(time.Millisecond) <= s.req.BudgetMS {
			met++
		}
		servedPx += float64(s.servedW * s.servedH)
		askedPx += float64(s.req.Size * s.req.Size)
	}
	_, primary, byClass := latencies(run.samples)

	// shard_efficiency: p50 of the narrowest shard class over p50 of the
	// widest. Class names sort by shard count; one class gives 1.
	classes := sortedNames(byClass)
	eff := 1.0
	if len(classes) > 1 && classes[0] == "shards1" {
		eff = median(byClass[classes[0]]) / median(byClass[classes[len(classes)-1]])
	}

	return map[string]metric{
		"setup_s":            {median(append([]float64(nil), run.setups...)), "s"},
		"frames_per_s":       {rate(done), "1/s"},
		"latency_p50_ms":     {quantile(primary, 0.50), "ms"},
		"deadline_met_ratio": {float64(met) / float64(max(feasible, 1)), "ratio"},
		"served_pixel_ratio": {servedPx / max(askedPx, 1), "ratio"},
		"shard_efficiency":   {eff, "ratio"},
		"cpu_ms_per_frame":   {median(append([]float64(nil), run.cpuPerFrame...)), "ms"},
		"peak_rss_mb":        {run.peakRSSMB, "MB"},
	}
}

// describe prints the run for a human: metrics with units, sample
// counts beside every timing, per-class latencies, failures.
func describe(w *workload, seed uint64, run *httpRun, metrics map[string]metric) {
	all, primary, byClass := latencies(run.samples)
	fmt.Fprintf(os.Stderr, "\n%s  seed=%d  window=%s  clients=%d  requests=%d  setups=%.3v s\n",
		w.name, seed, run.window, clientCount(w), len(run.samples), run.setups)
	printMetrics(metrics)
	tail := tailPercent(len(all))
	fmt.Fprintf(os.Stderr, "  latency samples: %d in the median's class, %d delivered; the sample supports p%g = %.3f ms\n",
		len(primary), len(all), tail, quantile(all, tail/100))
	var hits, prefetched, degraded int
	for i := range run.samples {
		s := &run.samples[i]
		hits += btoi(s.cacheHit)
		prefetched += btoi(s.prefetchHit)
		degraded += btoi(s.degraded)
	}
	fmt.Fprintf(os.Stderr, "  of %d answers: %d cache hits, %d prefetch hits, %d degraded\n", len(run.samples), hits, prefetched, degraded)
	met, sent := map[string]int{}, map[string]int{}
	for i := range run.samples {
		s := &run.samples[i]
		sent[s.req.Class]++
		if s.err == nil && s.status == http.StatusOK && ms(s.lat) <= s.req.BudgetMS {
			met[s.req.Class]++
		}
	}
	for _, c := range sortedNames(byClass) {
		fmt.Fprintf(os.Stderr, "  class %-10s n=%-6d p50=%.3f ms  within budget %d of %d sent\n",
			c, len(byClass[c]), median(byClass[c]), met[c], sent[c])
	}
	for i, err := range run.failures {
		if i == 10 {
			fmt.Fprintf(os.Stderr, "  … %d more failures\n", len(run.failures)-10)
			break
		}
		fmt.Fprintf(os.Stderr, "  FAIL %v\n", err)
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

func printMetrics(metrics map[string]metric) {
	for _, n := range sortedNames(metrics) {
		fmt.Fprintf(os.Stderr, "  %-36s %14.6g %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
}
