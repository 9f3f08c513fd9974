package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"time"

	"insitu/internal/advisor"
	"insitu/internal/obs"
	"insitu/internal/serve"
)

// runLoadgen benchmarks sustained QPS against an advisord. With no target
// URL it spins up an in-process server over the given registry, so a
// single command measures what this machine can serve. The report
// carries sustained QPS and the p50/p95/p99 latency; a non-2xx answer
// counts as a failed request.
func runLoadgen(target, regPath string, bootstrap bool, cacheSize int, duration time.Duration, concurrency int) (loadReport, error) {
	// Per-request timeout so a stalled target cannot wedge a worker past
	// the deadline.
	client := &http.Client{Timeout: 10 * time.Second}
	if target == "" {
		reg, err := serve.OpenRegistry(regPath, bootstrap, cacheSize, log.Printf)
		if err != nil {
			return loadReport{}, err
		}
		ts := httptest.NewServer(newServer(advisor.New(reg)).handler())
		defer ts.Close()
		target = ts.URL
		client = ts.Client()
		client.Timeout = 10 * time.Second
		log.Printf("loadgen: in-process server at %s", target)
	}

	// Ask the target what models it serves so the mix always hits live
	// (arch, renderer) pairs.
	pairs, err := targetModels(client, target)
	if err != nil {
		return loadReport{}, err
	}

	// The request mix: mostly single predictions (the interactive hot
	// path), some feasibility curves, an occasional batch.
	mustJSON := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			panic(err)
		}
		return b
	}
	var shots []shot
	for i := 0; i < 64; i++ {
		arch := pairs[i%len(pairs)].arch
		r := pairs[i%len(pairs)].renderer
		req := advisor.PredictRequest{
			Arch: arch, Renderer: r,
			N: 16 + 4*(i%8), Tasks: 1 << (i % 3), Width: 128 + 64*(i%6),
		}
		shots = append(shots, shot{path: "/v1/predict", body: mustJSON(req)})
		if i%8 == 0 {
			shots = append(shots, shot{path: "/v1/feasibility", body: mustJSON(advisor.FeasibilityRequest{
				Arch: arch, Renderer: r, N: 32, Tasks: 4,
				BudgetSeconds: 60, Sizes: []int{256, 512, 1024, 2048},
			})})
		}
		if i%16 == 0 {
			batch := []advisor.PredictRequest{req, req, req, req}
			shots = append(shots, shot{path: "/v1/predict", body: mustJSON(batch)})
		}
	}

	log.Printf("loadgen: %d clients for %s against %s", concurrency, duration, target)
	return sustain(client, target, shots, duration, concurrency), nil
}

// shot is one POST in the request mix.
type shot struct {
	path string
	body []byte
}

// loadReport is the outcome of a load run. The latency distribution
// covers successful requests and is read from the same log-spaced
// histogram the serving path uses (no sample retention), plus the exact
// max, the one statistic log-spaced buckets blur.
type loadReport struct {
	ok, failed              uint64
	duration                time.Duration
	concurrency             int
	avg, p50, p95, p99, max time.Duration
}

// sustain replays the shots round-robin from concurrency workers against
// target until duration has passed.
func sustain(client *http.Client, target string, shots []shot, duration time.Duration, concurrency int) loadReport {
	concurrency = max(concurrency, 1)
	var (
		hist obs.Histogram
		wg   sync.WaitGroup
		// Each worker tallies into its own slot; the slots are summed
		// once every worker has stopped.
		tallies = make([]loadReport, concurrency)
	)
	deadline := time.Now().Add(duration)
	for w := range tallies {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			t := &tallies[w]
			for i := w; time.Now().Before(deadline); i++ {
				sh := shots[i%len(shots)]
				start := time.Now()
				resp, err := client.Post(target+sh.path, "application/json", bytes.NewReader(sh.body))
				if err != nil {
					t.failed++
					continue
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode < 200 || resp.StatusCode >= 300 {
					t.failed++
					continue
				}
				d := time.Since(start)
				hist.ObserveDuration(d)
				t.max = max(t.max, d)
				t.ok++
			}
		}(w)
	}
	wg.Wait()

	rep := loadReport{duration: duration, concurrency: concurrency}
	for _, t := range tallies {
		rep.ok += t.ok
		rep.failed += t.failed
		rep.max = max(rep.max, t.max)
	}
	if snap := hist.Snapshot(); snap.Count > 0 {
		rep.avg = time.Duration(snap.Mean())
		rep.p50 = time.Duration(snap.Quantile(0.50))
		rep.p95 = time.Duration(snap.Quantile(0.95))
		rep.p99 = time.Duration(snap.Quantile(0.99))
	}
	return rep
}

// qps is the sustained successful request rate.
func (r loadReport) qps() float64 {
	if r.duration <= 0 {
		return 0
	}
	return float64(r.ok) / r.duration.Seconds()
}

// String renders the human report block.
func (r loadReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "  requests:    %d ok, %d failed\n", r.ok, r.failed)
	fmt.Fprintf(&b, "  sustained:   %.0f req/s over %s with %d clients\n",
		r.qps(), r.duration, r.concurrency)
	if r.ok > 0 {
		fmt.Fprintf(&b, "  latency:     avg %s  p50 %s  p95 %s  p99 %s  max %s\n",
			r.avg, r.p50, r.p95, r.p99, r.max)
	}
	return b.String()
}

// modelPair is one live (arch, renderer) combination on the target.
type modelPair struct {
	arch, renderer string
}

// targetModels lists the target's registered models via /v1/models.
func targetModels(client *http.Client, target string) ([]modelPair, error) {
	resp, err := client.Get(target + "/v1/models")
	if err != nil {
		return nil, fmt.Errorf("loadgen: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("loadgen: %s from %s/v1/models", resp.Status, target)
	}
	var body modelsBody
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil, fmt.Errorf("loadgen: decoding models: %w", err)
	}
	pairs := make([]modelPair, 0, len(body.Models))
	for _, m := range body.Models {
		pairs = append(pairs, modelPair{arch: m.Arch, renderer: m.Renderer})
	}
	if len(pairs) == 0 {
		return nil, fmt.Errorf("loadgen: target serves no models")
	}
	return pairs, nil
}
