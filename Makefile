# Tier-1 verify is `go build ./... && go test ./...`; `make ci` mirrors it.

GO ?= go

# bench-json output file; committed per PR (BENCH_4.json, BENCH_5.json,
# ...) so benchmark trajectories survive across sessions.
BENCH_JSON ?= BENCH_24.json

# Committed baselines guarding the zero-allocation steady state:
# bench-json fails if a benchmark that was 0 allocs/op in any of these
# is >0 now. Every committed BENCH_*.json but the one being written
# guards, so a new baseline joins without anyone editing a list.
BENCH_BASELINES ?= $(filter-out $(BENCH_JSON),$(sort $(wildcard BENCH_*.json)))

# insitulint is the repo's analyzer suite (internal/analysis); built
# into ./bin so the vettool path is hermetic to the checkout.
LINT_BIN := bin/insitulint

.PHONY: all build test test32 race vet fmt lint oracles bench bench-json bench-e2e bench-layers bench-check chaos obs cover ci clean

all: ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# test32 runs the serving, fleet and transport packages built for a
# 32-bit target. Their counter blocks are plain 64-bit fields bumped with
# sync/atomic, which panics there unless the field is 8-byte aligned —
# each live block leads its owner struct to guarantee it.
TEST32_PKGS := ./internal/serve ./internal/cluster ./internal/comm ./internal/obs ./internal/registry ./internal/advisor ./cmd/renderd ./cmd/advisord
test32:
	GOARCH=386 $(GO) test -count=1 $(TEST32_PKGS)

# race exercises the concurrent paths (parallel study runner, registry
# hot reload, advisord observation ingestion, and the serve race test —
# concurrent frame requests sharing one cache + calibrator) under the
# race detector; ci depends on it.
race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# lint compiles the repo's performance & fleet-safety invariants
# (//insitu:noalloc, collective discipline, lease/arena lifetimes,
# ctx-aware transport) into the build via `go vet -vettool`. The same
# binary runs standalone: `./bin/insitulint ./...`.
lint:
	$(GO) build -o $(LINT_BIN) ./tools/insitulint
	$(GO) vet -vettool=$(CURDIR)/$(LINT_BIN) ./...

# oracles runs the bitwise oracle tests of the rewritten kernels (slab
# test, BVH traversal, volume sampling loop, PNG writer) at the default
# GOAMD64 and at v3, whose instruction selection differs, so any
# level-dependent code generation shows up as changed bits. (Go 1.24
# emits no fused multiply-add on amd64 at either level; arm64 fuses,
# which is why the bench goldens are per GOARCH.) The v3 half needs an
# AVX2 + FMA host.
ORACLE_TESTS := 'Oracle|HitRayMatches|TFTable|PNGEncoder|Clamp8'
ORACLE_PKGS := ./internal/vecmath/ ./internal/bvh/ ./internal/render/volume/ ./internal/framebuffer/
oracles:
	$(GO) test -count=1 -run $(ORACLE_TESTS) $(ORACLE_PKGS)
	GOAMD64=v3 $(GO) test -count=1 -run $(ORACLE_TESTS) $(ORACLE_PKGS)

# fmt fails if any file needs reformatting (CI-friendly gofmt check).
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# bench runs the table/figure benchmarks at the repo root, the advisor
# throughput benchmark, the scenario dispatch benchmark, and the
# small-plan study benchmark (one tiny configuration per registered
# backend through the full measurement path).
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x .
	$(GO) test -run '^$$' -bench BenchmarkAdvisorPredict ./internal/advisor/
	$(GO) test -run '^$$' -bench BenchmarkScenarioDispatch -benchtime 1x ./internal/scenario/
	$(GO) test -run '^$$' -bench 'BenchmarkStudySmallPlan|BenchmarkPlanGeneration' -benchtime 1x ./internal/study/
	$(GO) test -run '^$$' -bench BenchmarkRenderd -benchtime 1x ./internal/serve/
	$(GO) test -run '^$$' -bench BenchmarkClusterThroughput -benchtime 1x ./internal/cluster/
	$(GO) test -run '^$$' -bench 'BenchmarkHistogramObserve|BenchmarkTraceSpan|BenchmarkDriftObserve' -benchtime 1x ./internal/obs/
	$(GO) test -run '^$$' -bench 'BenchmarkHitRay|BenchmarkIntersectClosest|BenchmarkIntersectAny' -benchtime 1x ./internal/vecmath/ ./internal/bvh/
	$(GO) test -run '^$$' -bench 'BenchmarkPNGEncode|BenchmarkStructuredVolume' -benchtime 1x ./internal/framebuffer/ ./internal/render/volume/

# bench-json records the render, dispatch, small-plan study, renderd
# serving-path, traversal, PNG encode and volume sampling benchmarks (ns/op + allocs/op via -benchmem) as
# $(BENCH_JSON), a benchstat-compatible baseline (the raw lines are
# embedded: `jq -r '.raw[]' $(BENCH_JSON)` reproduces benchstat input).
# Render benchmarks warm their frame arenas before the timer, so
# allocs/op is the steady-state figure. The GC cycle the warm-up leaves
# running can finish inside the timed loop, and its sync.Pool refills and
# runtime cleanups count as a handful of allocations; 20 iterations keep
# that one-off below 1 allocs/op. The renderd cache-hit benchmark
# is the serving layer's 0 allocs/op acceptance gate. benchjson compares
# against $(BENCH_BASELINES) and fails the target if any benchmark that
# was 0 allocs/op there allocates now.
bench-json:
	@$(GO) test -run '^$$' -bench 'BenchmarkTable1RayTraceShaded|BenchmarkTable2RayTraceFull|BenchmarkTable5Backends' -benchtime 20x -benchmem . > $(BENCH_JSON).render.tmp
	@$(GO) test -run '^$$' -bench BenchmarkScenarioDispatch -benchtime 10x -benchmem ./internal/scenario/ > $(BENCH_JSON).dispatch.tmp
	@$(GO) test -run '^$$' -bench 'BenchmarkStudySmallPlan|BenchmarkPlanGeneration' -benchtime 3x -benchmem ./internal/study/ > $(BENCH_JSON).study.tmp
	@$(GO) test -run '^$$' -bench BenchmarkRenderd -benchtime 2s -benchmem ./internal/serve/ > $(BENCH_JSON).serve.tmp
	@$(GO) test -run '^$$' -bench BenchmarkClusterThroughput -benchtime 2s -benchmem ./internal/cluster/ > $(BENCH_JSON).cluster.tmp
	@$(GO) test -run '^$$' -bench 'BenchmarkHistogramObserve|BenchmarkTraceSpan|BenchmarkDriftObserve' -benchtime 2s -benchmem ./internal/obs/ > $(BENCH_JSON).obs.tmp
	@$(GO) test -run '^$$' -bench 'BenchmarkHitRay|BenchmarkIntersectClosest|BenchmarkIntersectAny' -benchtime 2s -benchmem ./internal/vecmath/ ./internal/bvh/ > $(BENCH_JSON).traverse.tmp
	@$(GO) test -run '^$$' -bench 'BenchmarkPNGEncode|BenchmarkStructuredVolume' -benchtime 20x -benchmem ./internal/framebuffer/ ./internal/render/volume/ > $(BENCH_JSON).miss.tmp
	@cat $(BENCH_JSON).render.tmp $(BENCH_JSON).dispatch.tmp $(BENCH_JSON).study.tmp $(BENCH_JSON).serve.tmp $(BENCH_JSON).cluster.tmp $(BENCH_JSON).obs.tmp $(BENCH_JSON).traverse.tmp $(BENCH_JSON).miss.tmp | $(GO) run ./tools/benchjson $(foreach b,$(BENCH_BASELINES),-baseline $(b)) > $(BENCH_JSON)
	@rm -f $(BENCH_JSON).render.tmp $(BENCH_JSON).dispatch.tmp $(BENCH_JSON).study.tmp $(BENCH_JSON).serve.tmp $(BENCH_JSON).cluster.tmp $(BENCH_JSON).obs.tmp $(BENCH_JSON).traverse.tmp $(BENCH_JSON).miss.tmp
	@echo "wrote $(BENCH_JSON)"

# bench-e2e and bench-layers run the BENCHMARK.json benchmark (bench/ is
# its own module, see bench/README.md): every workload end to end
# against a renderd subprocess (HTTP request -> PNG), then the traced
# in-process replay behind the per-layer metrics. One JSON result per
# workload on stdout, the readable report on stderr.
bench-e2e:
	$(GO) run -C bench .

bench-layers:
	$(GO) run -C bench . --trace 1

# bench-check vets and unit-tests the benchmark module, which imports
# the serving stack's internal packages, so an API change there fails
# here rather than at the next benchmark run. It runs no workload.
bench-check:
	$(GO) vet -C bench ./...
	$(GO) test -C bench ./...

# chaos runs the fault-injection suite under the race detector: rank
# kills, stalled links, seeded packet loss, blame-driven eviction, and
# the serving layer's retry/clamp/breaker recovery on top — the
# recovery paths a green `make test` alone would leave cold.
chaos:
	$(GO) test -race -run 'TestChaos|TestServedFrameSurvivesRankKill|TestBreakerOpensShortCircuitsAndRecovers|TestReadyzFleetQuorum' ./internal/cluster/ ./internal/serve/ ./cmd/renderd/

# obs is the observability smoke: boot renderd and assert the scrape
# surfaces answer (/metrics Prometheus exposition validates, /v1/trace
# returns lifecycle timelines, /v1/metrics keeps its JSON shape), then
# run insitulint over the instrumented hot paths so a span or histogram
# added off the noalloc discipline fails here, not in a benchmark.
obs:
	$(GO) test -run 'TestPromExposition|TestTraceEndpoint|TestMetricsJSONShape|TestFrameResponseQueueHeaders' ./cmd/renderd/
	$(GO) test -run 'TestFrameTrace' ./internal/serve/
	$(GO) build -o $(LINT_BIN) ./tools/insitulint
	$(GO) vet -vettool=$(CURDIR)/$(LINT_BIN) ./internal/obs/ ./internal/serve/ ./internal/cluster/ ./internal/comm/ ./cmd/renderd/ ./cmd/advisord/

# cover runs the test suite with coverage and prints a per-function
# summary plus the total. The profile lands in cover.out for
# `go tool cover -html=cover.out`.
cover:
	$(GO) test -short -coverprofile=cover.out ./...
	@$(GO) tool cover -func=cover.out | tail -1

ci: build vet lint fmt test test32 race chaos obs bench-check

clean:
	$(GO) clean ./...
	rm -rf repro_out
