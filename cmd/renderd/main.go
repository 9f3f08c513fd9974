// Command renderd is the model-gated render farm: it serves PNG frames
// of the proxy simulations over HTTP, using the fitted performance
// models as admission control. Every request is costed by the advisor
// engine before rendering — infeasible deadlines are rejected with the
// prediction, tight ones are met by degrading quality (resolution,
// geometry, ray tracing workload) until the prediction fits — then
// scheduled earliest-deadline-first on a bounded pool of persistent
// renderers and served through an LRU frame cache. Each rendered
// frame's measured wall time feeds back into continuous calibration,
// so serving traffic refits the models that gate it.
//
// With -cluster N the process additionally hosts an in-process worker
// fleet of N ranks: requests carrying shards=k are partitioned across k
// ranks (weak scaling, one N^3 block each), rendered in parallel, and
// composited sort-last into one frame, with the fitted compositing model
// (the paper's Tc) charged at admission and refitted from the measured
// compositing times.
//
// Interactive clients open persistent sessions: the session is admitted
// once, tracks the camera path, and speculatively renders model-predicted
// next poses into the frame cache during the client's think time —
// strictly below foreground deadline work — so a predictable camera (an
// orbit) sees cache-hit time-to-photon.
//
// The same engine answers the paper's viability questions directly:
// what a configuration costs, how many images fit a budget, how much
// geometry fits a frame. Measured samples posted from elsewhere (a
// study run) join served frames in the one calibration queue.
//
//	GET    /healthz              liveness (always 200 while the process serves)
//	GET    /readyz               readiness: models loaded + fleet quorum
//	GET    /v1/frame             render (query: backend, sim, n, size, deadline_ms,
//	                             azimuth, zoom, arch, shards) -> image/png
//	POST   /v1/frame             same as JSON body
//	POST   /v1/session           open a streaming session (body = frame JSON) -> id
//	GET    /v1/session/{id}      session info + prefetch counters
//	GET    /v1/session/{id}/frame   next pose (query: azimuth, zoom) -> image/png
//	GET    /v1/session/{id}/stream  server-paced orbit (query: step, fps, frames)
//	                             -> multipart/x-mixed-replace PNG parts
//	DELETE /v1/session/{id}      close the session
//	GET    /v1/models            served models + calibration generation
//	POST   /v1/predict           cost one configuration (or a JSON array: batch)
//	POST   /v1/feasibility       images-per-budget curve ("X1 images in X2 s?")
//	POST   /v1/max_triangles     largest geometry fitting a frame budget
//	POST   /v1/observations      queue measured samples for background refit
//	POST   /v1/reload            hot-reload the registry file
//	GET    /v1/metrics           admission/cache/scheduler/session/prefetch/
//	                             calibration/cluster counters, per-stage frame
//	                             latency histograms, model-drift distributions
//	GET    /v1/trace             recent frame lifecycle traces (query: last=N,
//	                             format=chrome for a chrome://tracing dump)
//	GET    /metrics              the same metrics snapshot as Prometheus text
//	                             exposition (scrape-ready, no sidecar)
//
// With -debug-addr a second listener serves net/http/pprof.
//
// Usage:
//
//	renderd -registry repro_out/models.json [-addr :8090]
//	renderd -registry models.json -cluster 4     # sharded serving
//	renderd -bootstrap [-registry models.json]   # measure-fit-serve
//
// Load is generated by the benchmark module: `go run -C bench .
// --workload <name>` drives a renderd subprocess with a seeded,
// answer-checked workload (see bench/README.md).
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
	"strings"
	"syscall"
	"time"

	"insitu/internal/advisor"
	"insitu/internal/cluster"
	"insitu/internal/device"
	"insitu/internal/serve"
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

// errUsage marks a flag value run refuses; main exits 2 on it, as flag does.
var errUsage = errors.New("usage")

func main() {
	if err := run(os.Args[1:]); errors.Is(err, errUsage) {
		fmt.Fprintln(os.Stderr, "renderd:", err)
		os.Exit(2)
	} else if err != nil {
		log.Fatal(err)
	}
}

// options are renderd's flags.
type options struct {
	addr, debugAddr, regPath string
	bootstrap, calibrate     bool
	refitEvery, clusterN     int
	cfg                      serve.Config
}

// parseFlags reads renderd's flags and refuses, as a usage error, every
// value serve.Config's defaults would silently replace (a worker count,
// queue, scene cache or frame cache of 0) and every value with no
// meaning: a negative -cluster, a -refit-every below 1, or an -arch that
// names no device profile. A negative -frame-cache keeps its meaning:
// no frame is cached.
func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("renderd", flag.ExitOnError)
	var o options
	fs.StringVar(&o.addr, "addr", ":8090", "listen address")
	fs.StringVar(&o.debugAddr, "debug-addr", "", "optional debug listen address serving net/http/pprof (empty = disabled)")
	fs.StringVar(&o.regPath, "registry", "", "registry snapshot JSON (from 'repro export')")
	fs.BoolVar(&o.bootstrap, "bootstrap", false, "if the registry file is missing, run a short study and fit one")
	fs.BoolVar(&o.calibrate, "calibrate", true, "feed served frames and POST /v1/observations into continuous model refits")
	fs.IntVar(&o.refitEvery, "refit-every", 8, "observed samples between refits (>= 1)")
	fs.StringVar(&o.cfg.Arch, "arch", "cpu", "default device profile / model architecture to render on: "+strings.Join(device.ProfileNames(), ", "))
	fs.IntVar(&o.cfg.Workers, "workers", 2, "concurrent render workers (>= 1)")
	fs.IntVar(&o.cfg.QueueCap, "queue", 64, "render queue capacity, EDF-ordered (>= 1)")
	fs.IntVar(&o.cfg.FrameCacheEntries, "frame-cache", 256, "encoded-frame LRU entries (< 0 caches no frame)")
	fs.IntVar(&o.cfg.RunnerCacheEntries, "runners", 8, "prepared scenes kept warm, one per (arch, backend, sim, n) (>= 1)")
	fs.IntVar(&o.clusterN, "cluster", 0, "worker ranks for sharded frames (0 = single-process serving only)")
	_ = fs.Parse(args) // ExitOnError: flag itself exits on a bad flag or -h
	if fs.NArg() > 0 {
		return o, fmt.Errorf("%w: unexpected arguments %q", errUsage, fs.Args())
	}
	for _, c := range []struct {
		name string
		v    int
	}{{"workers", o.cfg.Workers}, {"queue", o.cfg.QueueCap}, {"runners", o.cfg.RunnerCacheEntries}, {"refit-every", o.refitEvery}} {
		if c.v < 1 {
			return o, fmt.Errorf("%w: -%s %d: want >= 1", errUsage, c.name, c.v)
		}
	}
	if o.cfg.FrameCacheEntries == 0 {
		return o, fmt.Errorf("%w: -frame-cache 0: want >= 1, or < 0 to cache no frame", errUsage)
	}
	if o.clusterN < 0 {
		return o, fmt.Errorf("%w: -cluster %d: want >= 0", errUsage, o.clusterN)
	}
	if _, err := device.Profile(o.cfg.Arch); err != nil {
		return o, fmt.Errorf("%w: -arch: %v", errUsage, err)
	}
	o.cfg.Logf = log.Printf
	return o, nil
}

// run serves until SIGINT or SIGTERM, then drains. Flag values it
// refuses come back as errUsage before the registry is opened or a port
// is bound.
func run(args []string) error {
	o, err := parseFlags(args)
	if err != nil {
		return err
	}
	srv, fleet, err := buildServer(o.regPath, o.bootstrap, o.calibrate, o.refitEvery, o.clusterN, nil, o.cfg)
	if err != nil {
		return err
	}
	// Deferred in reverse: the server drains in-flight frames before the
	// fleet it dispatches them to goes away.
	if fleet != nil {
		defer fleet.Close()
	}
	defer srv.Close()

	if o.debugAddr != "" {
		go func() {
			log.Printf("pprof debug server on %s", o.debugAddr)
			log.Printf("pprof debug server exited: %v", http.ListenAndServe(o.debugAddr, pprofHandler()))
		}()
	}

	web := newWebServer(srv, fleet)
	httpSrv := &http.Server{
		Addr:              o.addr,
		Handler:           serve.LogRequests(log.Printf, web.handler()),
		ReadHeaderTimeout: 5 * time.Second,
	}

	// Graceful drain: when Shutdown starts, close every streaming session
	// first — active /v1/session/{id}/stream handlers see ErrSessionClosed
	// on their next frame and end their multipart streams, and speculative
	// prefetch jobs become no-ops — so Shutdown's wait for in-flight
	// requests actually terminates.
	httpSrv.RegisterOnShutdown(srv.DrainSessions)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() {
		log.Printf("renderd listening on %s (arch %s, %d workers)", o.addr, o.cfg.Arch, o.cfg.Workers)
		errc <- httpSrv.ListenAndServe()
	}()
	select {
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			return err
		}
	case <-ctx.Done():
		log.Printf("shutting down...")
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutCtx); err != nil {
			log.Printf("shutdown: %v", err)
		}
	}
	log.Printf("bye")
	return nil
}

// buildServer assembles the full serving stack: registry, advisor
// engine, calibrator (when enabled), optional worker fleet for sharded
// frames, and the render-serving subsystem. The returned cluster (nil
// when clusterN is 0) must be closed after the server. copts overrides
// the fleet's fault-tolerance tuning (nil = defaults) — the chaos
// tests use it to install a fault plan.
func buildServer(regPath string, bootstrap, calibrate bool, refitEvery, clusterN int, copts *cluster.Options, cfg serve.Config) (*serve.Server, *cluster.Cluster, error) {
	reg, err := serve.OpenRegistry(regPath, bootstrap, 0, log.Printf)
	if err != nil {
		return nil, nil, err
	}
	snap := reg.Snapshot()
	log.Printf("registry: %d models (source %q, archs %v)", len(snap.Models), snap.Source, reg.Archs())

	engine := advisor.New(reg)
	if calibrate {
		engine.SetObserver(serve.NewCalibrator(reg, regPath, "renderd-frames", refitEvery, log.Printf))
		log.Printf("continuous calibration enabled (served frames and POST /v1/observations refit the models)")
	}
	var fleet *cluster.Cluster
	if clusterN > 0 {
		var opts cluster.Options
		if copts != nil {
			opts = *copts
		}
		if fleet, err = cluster.NewWithOptions(clusterN, opts); err != nil {
			return nil, nil, err
		}
		cfg.Cluster = fleet
		log.Printf("cluster mode: %d worker ranks (requests may shard up to %d ways)", clusterN, clusterN)
	}
	return serve.New(engine, cfg), fleet, nil
}
