// Observability walks the telemetry a running renderd exposes, all
// in-process: fit models, serve frames, then read the three surfaces
// the server grew for watching itself — per-frame lifecycle traces
// (where a slow frame actually spent its time), per-stage latency
// histograms (the tail, not the mean), and model-drift distributions
// (how wrong the fitted predictions are, per backend and term). The
// drift series is the early-warning channel: a stale model shows up as
// a skewed residual distribution long before deadline_misses climbs,
// because admission keeps enough slack to absorb moderate error. The
// example forces that staleness by fitting on tiny configurations and
// then serving far larger frames, and prints the same snapshot as the
// Prometheus text exposition renderd serves at /metrics.
package main

import (
	"fmt"
	"log"
	"os"
	"strings"

	"insitu/internal/advisor"
	"insitu/internal/core"
	"insitu/internal/obs"
	"insitu/internal/registry"
	"insitu/internal/serve"
	"insitu/internal/study"
)

func main() {
	// 1. Measure and fit on deliberately small configurations — the
	// models will extrapolate badly to the bigger frames served below,
	// which is exactly the staleness the drift telemetry exists to catch.
	var plan []study.Config
	for _, n := range []int{8, 10, 12} {
		for _, img := range []int{48, 64} {
			plan = append(plan, study.Config{
				Arch: "cpu", Renderer: core.RayTrace, Sim: "kripke",
				Tasks: 1, ImageSize: img, N: n, Frames: 2,
			})
		}
	}
	fmt.Printf("measuring %d small configurations...\n", len(plan))
	rows, err := study.Run(plan, nil)
	if err != nil {
		log.Fatal(err)
	}
	snap, err := study.FitSnapshot(rows, "observability-example")
	if err != nil {
		log.Fatal(err)
	}
	reg := registry.New(0)
	if err := reg.Load(snap); err != nil {
		log.Fatal(err)
	}
	srv := serve.New(advisor.New(reg), serve.Config{Arch: "cpu", Workers: 2})
	defer srv.Close()

	// 2. Serve traffic: small frames the models know, one repeat (a
	// cache hit), then frames well outside the measured range.
	for _, req := range []serve.FrameRequest{
		{Backend: core.RayTrace, Sim: "kripke", N: 10, Width: 64},
		{Backend: core.RayTrace, Sim: "kripke", N: 12, Width: 64},
		{Backend: core.RayTrace, Sim: "kripke", N: 10, Width: 64}, // repeat: cache hit
		{Backend: core.RayTrace, Sim: "kripke", N: 20, Width: 160},
		{Backend: core.RayTrace, Sim: "kripke", N: 24, Width: 192},
	} {
		if _, err := srv.Render(req); err != nil {
			log.Fatal(err)
		}
	}

	// 3. Lifecycle traces: every frame commits a timeline of spans, one
	// per stage its path took. A cache hit is a single admit span; a
	// rendered frame accounts for admission, queue wait, runner lease,
	// render, encode, and the cache store. The same data answers
	// GET /v1/trace (and format=chrome for chrome://tracing).
	fmt.Println("\n-- frame lifecycle traces (newest last) --")
	traces := srv.Traces(5)
	for _, tr := range traces {
		j := tr.JSON()
		tag := ""
		if j.CacheHit {
			tag = "  [cache hit]"
		}
		fmt.Printf("frame %d  %s n=%d %dpx  wall %8.3fms%s\n",
			j.Seq, j.Backend, j.N, j.Width, j.WallSeconds*1e3, tag)
		for _, sp := range j.Spans {
			fmt.Printf("    %-13s +%8.3fms  %8.3fms\n",
				sp.Stage, sp.StartSeconds*1e3, sp.DurationSeconds*1e3)
		}
	}

	// 4. Per-stage latency histograms: the aggregate view of the same
	// spans. Log-spaced buckets, exact counts, interpolated quantiles —
	// this is serve.frame_stages in GET /v1/metrics.
	st := srv.Stats()
	fmt.Println("\n-- per-stage latency (aggregated over all frames) --")
	fmt.Printf("%-13s %6s %10s %10s %10s\n", "stage", "count", "p50", "p95", "p99")
	row := func(name string, h obs.HistogramJSON) {
		fmt.Printf("%-13s %6d %9.3fms %9.3fms %9.3fms\n",
			name, h.Count, h.P50Seconds*1e3, h.P95Seconds*1e3, h.P99Seconds*1e3)
	}
	row("total", st.FrameStages.Total)
	for _, s := range st.FrameStages.Stages {
		row(s.Stage, s.HistogramJSON)
	}

	// 5. Model drift: every rendered frame records its relative residual
	// (predicted − measured) / measured, bucketed per backend × term.
	// Mean error near zero means the models still describe the traffic;
	// the big frames above were extrapolated, so expect a visible skew.
	// Watch this series (serve.model_drift in /v1/metrics) to recalibrate
	// before deadline_misses starts climbing.
	fmt.Println("\n-- model drift: (predicted - measured) / measured --")
	for _, d := range st.ModelDrift {
		if d.Count == 0 {
			continue
		}
		fmt.Printf("%s/%s: %d frames, mean error %+6.1f%%, mean |error| %5.1f%%\n",
			d.Backend, d.Term, d.Count, 100*d.MeanError, 100*d.MeanAbs)
		for _, b := range d.Buckets {
			if b.Count > 0 {
				fmt.Printf("    < %+5.2f: %s\n", b.Lt, strings.Repeat("#", int(b.Count)))
			}
		}
	}

	// 6. The Prometheus exposition renders the identical snapshot as
	// scrape-ready text — renderd serves this at /metrics, no sidecar.
	fmt.Println("\n-- /metrics exposition (drift series excerpt) --")
	var b strings.Builder
	if err := obs.WriteProm(&b, "renderd_serve", st); err != nil {
		log.Fatal(err)
	}
	shown := 0
	for _, line := range strings.Split(b.String(), "\n") {
		if strings.Contains(line, "model_drift") && shown < 8 {
			fmt.Println(line)
			shown++
		}
	}

	// 7. And the Chrome trace dump, for when a timeline needs eyeballs:
	// load this file in chrome://tracing or https://ui.perfetto.dev.
	out, err := os.CreateTemp("", "renderd-trace-*.json")
	if err != nil {
		log.Fatal(err)
	}
	defer out.Close()
	if err := obs.WriteChromeTrace(out, traces); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nchrome trace dump: %s (open in chrome://tracing)\n", out.Name())
}
