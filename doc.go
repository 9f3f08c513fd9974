// Package insitu reproduces "Performance Modeling of In Situ Rendering"
// (Larsen et al., SC 2016 / Larsen's 2016 dissertation) as a production
// Go library.
//
// The system answers the in situ feasibility question — is it possible to
// perform X1 rendering tasks while devoting no more than X2 time to them?
// — with statistical performance models based on algorithmic complexity.
// It contains:
//
//   - data-parallel renderers (ray tracing, rasterization, structured and
//     unstructured volume rendering) built from the primitives in
//     internal/dpp and executed on internal/device profiles. The
//     execution model is pooled and allocation-free in the steady state:
//     each device runs a persistent gang of parked workers (a launch is
//     a channel wake, not a goroutine spawn; Device.Close releases it),
//     each renderer owns a frame arena (ray SoA state, term buffers,
//     slab samples, framebuffer, and prebuilt kernel closures reused
//     across frames; returned images are valid until the next Render),
//     the morton pixel order is cached per image size, and compaction,
//     packet traversal, and compositing run through reusable per-worker
//     or per-rank scratch. Steady-state frames allocate nothing, serial
//     and parallel devices render byte-identical images, and
//     device.Stats accounts occupancy per wake — see the README's
//     performance section for sizing Workers/Grain and the warm-pool
//     measurement note;
//   - the in situ substrate: internal/conduit (hierarchical zero-copy data
//     description), internal/strawman (batch in situ pipeline),
//     internal/comm (simulated MPI), internal/composite (sort-last
//     radix-k / binary-swap / direct-send compositing), and three proxy
//     physics applications in internal/sim;
//   - the modeling methodology in internal/core and internal/stats:
//     complexity-derived linear models, OLS fitting, cross validation,
//     the configuration-to-inputs mapping, and the feasibility analyses;
//   - the scenario layer in internal/scenario — the single measurement
//     path shared by the study, the repro tables, and the in situ
//     pipeline, and the one sort-last frame protocol (scenario.Group)
//     the study, the in situ pipeline and the serving fleet all run:
//     a Scene describes a renderable block (parsed simulation
//     data or prebuilt geometry, camera, device, scalar range) and
//     self-registered Backends turn scenes into frame renderers that
//     fill the model inputs of §5.3. Each backend declares its linear
//     model form (core.RendererSpec), its compositing operator, and its
//     data-shape constraints; registering one makes it sampled by the
//     study plan, fittable, snapshot-servable, and advisord-predictable
//     with no further changes (the tetrahedral volume-unstructured
//     backend is integrated exactly this way);
//   - the measurement harness in internal/study — a worker-pool runner
//     (study.RunContext: configurable parallelism, context cancellation,
//     deterministic plan-index ordering, streaming progress callbacks,
//     plan sharding for multi-process runs) plus the continuous
//     calibrator (study.Calibrator: measured samples stream in, the
//     models refit incrementally over the growing corpus, and each refit
//     publishes a new registry generation) — and comparator renderers in
//     internal/baseline;
//   - the online advisor subsystem: internal/registry (versioned JSON
//     snapshots of fitted model sets, a concurrent in-memory registry
//     with hot reload and in-place Publish, and an LRU prediction cache)
//     and internal/advisor (the batch-capable prediction engine answering
//     predict, images-in-budget, and max-triangles queries with
//     per-request metrics, ingesting posted observations for continuous
//     calibration, and sanitizing non-finite predictions at the API
//     boundary so responses always serialize);
//   - the render-serving subsystem in internal/serve — the layer that
//     acts on the predictions: model-gated admission (reject with the
//     predicted time, or degrade resolution/geometry/workload until the
//     prediction fits the deadline), an earliest-deadline-first bounded
//     scheduler over persistent cached scenario runners
//     (scenario.RunnerCache leases prepared scenes and device pools
//     across requests), an LRU frame cache with a zero-allocation hit
//     path, and calibration feedback: every rendered frame's measured
//     wall time flows into the calibrator, so serving traffic refits
//     the models that gate it. internal/lru is the one generic LRU
//     shared by the registry, the admission memo, and the frame cache.
//
// Entry points: cmd/repro regenerates every table and figure of the
// paper's evaluation (with -parallel N measuring the study on N
// workers), its export experiment publishes the fitted models as a
// registry snapshot, and its calibrate experiment runs the live
// measure -> refit -> publish loop; cmd/advisord serves feasibility
// answers from such a snapshot over HTTP, accepts measured samples on
// POST /v1/observations for background refit and atomic hot reload (and
// has a load-generator mode for benchmarking); cmd/renderd serves
// deadline-gated PNG frames from the same models (GET/POST /v1/frame),
// degrading or refusing what does not fit and refitting from its own
// traffic; cmd/insitu runs a proxy simulation with in situ rendering;
// cmd/render renders a synthetic dataset through the scenario backend
// registry; the examples/ directory holds runnable walkthroughs,
// including examples/advisor for the measure -> export -> serve path,
// examples/calibrate for the continuous-calibration loop, and
// examples/renderd for the full predict -> act -> measure -> refit
// serving loop. bench_test.go in this directory carries one benchmark
// per reproduced table and figure.
package insitu
