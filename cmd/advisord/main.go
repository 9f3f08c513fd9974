// Command advisord serves in situ feasibility answers over HTTP. It loads
// a registry snapshot — fitted performance models published by the study
// pipeline (repro export, or study.ExportModels) — and answers the
// paper's viability questions for many concurrent clients:
//
//	GET  /healthz           liveness, model count, registry generation
//	GET  /v1/models         registered models with fit diagnostics
//	POST /v1/predict        cost one configuration (or a JSON array: batch)
//	POST /v1/feasibility    images-per-budget curve ("X1 images in X2 s?")
//	POST /v1/max_triangles  largest geometry fitting a frame budget
//	POST /v1/observations   ingest measured samples; background refit +
//	                        atomic hot-reload (continuous calibration)
//	GET  /v1/metrics        per-operation latency + prediction cache stats
//	GET  /metrics           the same snapshot as Prometheus text exposition
//	POST /v1/reload         hot-reload the registry file
//
// With -debug-addr a second listener serves net/http/pprof.
//
// Usage:
//
//	advisord -registry repro_out/models.json [-addr :8080]
//	advisord -bootstrap [-registry models.json]   # measure-fit-serve
//	advisord -loadgen [-target URL] [-duration 10s] [-concurrency 8]
//
// With -bootstrap and no existing registry file, advisord runs a short
// measurement study on this machine, fits the models, writes the snapshot,
// and serves it — a single-command path from nothing to a live advisor.
//
// Unless -calibrate=false, POST /v1/observations accepts measured samples
// (e.g. streamed from a parallel study run); a background worker refits
// the models over the accumulated corpus, merges groups that cannot be
// refitted yet from the serving snapshot, publishes the result atomically
// (generation bump, visible in /v1/models and /v1/metrics), and rewrites
// the -registry file so the new models survive a restart.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"insitu/internal/advisor"
	"insitu/internal/registry"
	"insitu/internal/serve"
	"insitu/internal/study"
)

// pprofHandler builds an explicit pprof mux — the serving mux never
// exposes the profiler; it lives only on the separate -debug-addr
// listener, which deployments keep off the public network.
func pprofHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		debugAddr   = flag.String("debug-addr", "", "optional debug listen address serving net/http/pprof (empty = disabled)")
		regPath     = flag.String("registry", "", "registry snapshot JSON (from 'repro export')")
		cacheSize   = flag.Int("cache", 4096, "prediction LRU cache entries (0 disables)")
		bootstrap   = flag.Bool("bootstrap", false, "if the registry file is missing, run a short study and fit one")
		calibrate   = flag.Bool("calibrate", true, "accept POST /v1/observations and continuously refit the served models")
		refitEvery  = flag.Int("refit-every", 1, "observed samples between refits (raise to debounce refit + snapshot-rewrite cost under sustained ingestion)")
		loadgen     = flag.Bool("loadgen", false, "run the load generator instead of serving")
		target      = flag.String("target", "", "loadgen: base URL of a running advisord (default: self-contained in-process server)")
		duration    = flag.Duration("duration", 10*time.Second, "loadgen: how long to sustain load")
		concurrency = flag.Int("concurrency", 8, "loadgen: concurrent clients")
	)
	flag.Parse()

	if *loadgen {
		rep, err := runLoadgen(*target, *regPath, *bootstrap, *cacheSize, *duration, *concurrency)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nloadgen results\n%s", rep)
		if rep.failed > 0 {
			log.Fatalf("loadgen: %d requests failed", rep.failed)
		}
		return
	}

	reg, err := openRegistry(*regPath, *bootstrap, *cacheSize)
	if err != nil {
		log.Fatal(err)
	}
	snap := reg.Snapshot()
	log.Printf("registry: %d models (source %q, archs %v)", len(snap.Models), snap.Source, reg.Archs())

	engine := advisor.New(reg)
	web := newServer(engine)
	if *calibrate {
		engine.SetObserver(newCalibrator(reg, *regPath, *refitEvery))
		web.startCalibration(64, log.Printf)
		defer web.stopCalibration()
		log.Printf("continuous calibration enabled (POST /v1/observations)")
	}

	if *debugAddr != "" {
		go func() {
			log.Printf("pprof debug server on %s", *debugAddr)
			log.Printf("pprof debug server exited: %v", http.ListenAndServe(*debugAddr, pprofHandler()))
		}()
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           logRequests(log.Printf, web.handler()),
		ReadHeaderTimeout: 5 * time.Second,
	}

	// Serve until interrupted, then drain in-flight requests.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() {
		log.Printf("advisord listening on %s", *addr)
		errc <- srv.ListenAndServe()
	}()
	select {
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
	case <-ctx.Done():
		log.Printf("shutting down...")
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutCtx); err != nil {
			log.Printf("shutdown: %v", err)
		}
	}
	log.Printf("bye")
}

// newCalibrator builds the continuous-calibration loop around the serving
// registry: observed samples refit against the retained corpus every
// refitEvery samples, thin groups carry over from the currently served
// snapshot, publishes hot-reload the registry in place and (best effort)
// persist to the registry file so the refined models survive a restart.
func newCalibrator(reg *registry.Registry, regPath string, refitEvery int) *study.Calibrator {
	return &study.Calibrator{
		Source:     "advisord-observations",
		RefitEvery: refitEvery,
		// A sliding window bounds per-refit cost and process memory over
		// an arbitrarily long ingestion stream; 4096 samples is several
		// times the full study plan.
		MaxCorpus: 4096,
		Base: func() (*registry.Snapshot, uint64) {
			v, err := reg.View()
			if err != nil {
				return nil, reg.Generation()
			}
			return v.Snapshot(), v.Generation()
		},
		Publish: func(s *registry.Snapshot, baseGen uint64) error {
			// Conditional on the generation the merge read: a concurrent
			// POST /v1/reload must not be silently overwritten (the
			// calibrator re-merges and retries on ErrStale).
			if err := reg.PublishIf(s, baseGen); err != nil {
				return err
			}
			if regPath != "" {
				if err := s.WriteFile(regPath); err != nil {
					// The models are already serving; a persist failure
					// must not unpublish them.
					log.Printf("calibrate: persisting %s: %v", regPath, err)
				}
			}
			return nil
		},
	}
}

// openRegistry loads the snapshot file through the shared serving-path
// helper, bootstrapping one from a short on-machine study when asked
// and the file is absent.
func openRegistry(path string, bootstrap bool, cacheSize int) (*registry.Registry, error) {
	return serve.OpenRegistry(path, bootstrap, cacheSize, log.Printf)
}
