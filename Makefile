# Tier-1 verify is `go build ./... && go test ./...`; `make ci` mirrors it.

GO ?= go

# insitulint is the repo's analyzer suite (internal/analysis); built
# into ./bin so the vettool path is hermetic to the checkout.
LINT_BIN := bin/insitulint

.PHONY: all build cross test test32 race vet fmt lint oracles bench bench-e2e bench-layers bench-check chaos obs cover ci clean

all: ci

build:
	$(GO) build ./...

# cross keeps the build-tag split of the volume package's assembly honest:
# arm64 vets the portable path (go vet's asmdecl also checks the amd64
# .s file against its Go declarations in the native vet), and a 32-bit
# build compiles everything without the packet kernel.
cross:
	GOARCH=arm64 $(GO) vet ./internal/render/volume/
	GOARCH=386 $(GO) build ./...

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
# race detector; ci depends on it. The zero-allocation guard
# (`go test -run TestZeroAlloc ./...`, one TestZeroAlloc per package
# with a 0 allocs/op benchmark) rides it as well as `test` (and, for
# serve and obs, `test32`); under the race detector only its
# render-kernel cases skip, because a sync.Pool drops Puts at random
# there and dpp's pooled launches allocate.
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
# test, BVH traversal, volume sampling loop and its AVX2 packet kernel,
# PNG writer) at the default GOAMD64 and at v3, whose instruction
# selection differs, so any level-dependent code generation shows up as
# changed bits. (Go 1.24 emits no fused multiply-add on amd64 at either
# level; arm64 fuses, which is why the bench goldens are per GOARCH.)
# The packet kernel is assembly and runs at both levels on an AVX2 host;
# its tests skip elsewhere. The v3 half needs an AVX2 + FMA host.
ORACLE_TESTS := 'Oracle|HitRayMatches|TFTable|PNGEncoder|Clamp8|StructuredPacket'
ORACLE_PKGS := ./internal/vecmath/ ./internal/bvh/ ./internal/render/volume/ ./internal/framebuffer/
oracles:
	$(GO) test -count=1 -run $(ORACLE_TESTS) $(ORACLE_PKGS)
	GOAMD64=v3 $(GO) test -count=1 -run $(ORACLE_TESTS) $(ORACLE_PKGS)

# fmt fails if any file needs reformatting (CI-friendly gofmt check).
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# bench runs the table/figure benchmarks at the repo root and the
# package benchmarks (advisor, scenario dispatch, small-plan study,
# serving, cluster, obs, traversal, PNG encode, volume sampling),
# printing ns/op and allocs/op for people to read. Speed claims cite
# BENCHMARK.json (`make bench-e2e`); the 0 allocs/op paths are pinned
# by TestZeroAlloc in the plain test run.
bench:
	$(GO) test -run '^$$' -benchmem -bench . -benchtime 1x .
	$(GO) test -run '^$$' -benchmem -bench BenchmarkAdvisorPredict ./internal/advisor/
	$(GO) test -run '^$$' -benchmem -bench BenchmarkScenarioDispatch -benchtime 1x ./internal/scenario/
	$(GO) test -run '^$$' -benchmem -bench 'BenchmarkStudySmallPlan|BenchmarkPlanGeneration' -benchtime 1x ./internal/study/
	$(GO) test -run '^$$' -benchmem -bench BenchmarkRenderd -benchtime 1x ./internal/serve/
	$(GO) test -run '^$$' -benchmem -bench BenchmarkClusterThroughput -benchtime 1x ./internal/cluster/
	$(GO) test -run '^$$' -benchmem -bench 'BenchmarkHistogramObserve|BenchmarkTraceSpan|BenchmarkDriftObserve' -benchtime 1x ./internal/obs/
	$(GO) test -run '^$$' -benchmem -bench 'BenchmarkHitRay|BenchmarkIntersectClosest|BenchmarkIntersectAny' -benchtime 1x ./internal/vecmath/ ./internal/bvh/
	$(GO) test -run '^$$' -benchmem -bench 'BenchmarkPNGEncode|BenchmarkStructuredVolume' -benchtime 1x ./internal/framebuffer/ ./internal/render/volume/

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
# recovery paths a green `make test` alone would leave cold. The seeded
# fault timelines key on per-link message indices, so the suite also
# pins one sharded frame's message and byte counts (TestFrameTrafficPinned).
chaos:
	$(GO) test -race -run 'TestChaos|TestFrameTrafficPinned|TestServedFrameSurvivesRankKill|TestBreakerOpensShortCircuitsAndRecovers|TestReadyzFleetQuorum' ./internal/cluster/ ./internal/serve/ ./cmd/renderd/

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

ci: build cross vet lint fmt test test32 race chaos obs bench-check

clean:
	$(GO) clean ./...
	rm -rf repro_out
