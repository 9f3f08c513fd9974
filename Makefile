# Tier-1 verify is `go build ./... && go test ./...`; `make ci` mirrors it.

GO ?= go

.PHONY: all build cross test test32 race vet fmt oracles fuzz bench bench-e2e bench-layers bench-check chaos cover ci clean

all: ci

build:
	$(GO) build ./...

# cross keeps the build-tag split of the assembly honest (the AVX2 probe
# in device, the packet kernels in bvh, volume and raytrace): arm64 vets the
# portable path (go vet's asmdecl also checks the amd64 .s files against
# their Go declarations in the native vet), and a 32-bit build compiles
# everything without the packet kernels.
cross:
	GOARCH=arm64 $(GO) vet ./internal/device/ ./internal/bvh/ ./internal/render/volume/ ./internal/render/raytrace/
	GOARCH=386 $(GO) build ./...

test:
	$(GO) test ./...

# test32 runs the serving, fleet and transport packages built for a
# 32-bit target. Their counter blocks are plain 64-bit fields bumped with
# sync/atomic, which panics there unless the field is 8-byte aligned —
# each live block leads its owner struct to guarantee it.
TEST32_PKGS := ./internal/serve ./internal/cluster ./internal/comm ./internal/obs ./internal/registry ./internal/advisor ./cmd/renderd
test32:
	GOARCH=386 $(GO) test -count=1 $(TEST32_PKGS)

# race exercises the concurrent paths (parallel study runner, registry
# hot reload, and the serve race test — concurrent frame requests and
# posted observations sharing one cache and one calibration queue)
# under the race detector; ci depends on it. The zero-allocation guard
# (`go test -run TestZeroAlloc ./...`, one TestZeroAlloc per package
# with a 0 allocs/op benchmark) rides it as well as `test` (and, for
# serve and obs, `test32`); under the race detector only its
# render-kernel cases skip, because a sync.Pool drops Puts at random
# there and dpp's pooled launches allocate.
race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# oracles runs the bitwise oracle tests of the rewritten kernels (slab
# test, BVH traversal and its AVX2 primary-ray packet kernel, the ray
# tracer's AVX2 raygen and shade kernels and their x^30, volume
# sampling loop and its AVX2 packet kernel, PNG writer), plus the root
# package's check that every device profile renders the same ray-traced
# and volume frames and scenario's check that a reused render arena draws
# what a fresh runner draws, at the default GOAMD64 and at v3, whose instruction
# selection differs, so any level-dependent code generation shows up as
# changed bits. (Go 1.24 emits no fused multiply-add on amd64 at either
# level; arm64 fuses, which is why the bench goldens are per GOARCH.)
# The packet kernels are assembly and run at both levels on an AVX2 host;
# elsewhere their tests skip or run the scalar loop they fall back to.
# The scalar side of each comparison is the device's Scalar field, the
# kernel set of the cpu-scalar profile, not a test hook.
# The v3 half needs an x86-64-v3 host (AVX2, FMA, BMI2, ...): a v3 binary
# refuses to start elsewhere, so oracles first starts one with no tests
# and, when the runtime names the missing microarchitecture, skips the
# v3 half and says why; ci runs oracles and stays green on any host.
ORACLE_TESTS := 'Oracle|HitRayMatches|TFTable|PNGEncoder|Clamp8|StructuredPacket|PrimaryPackets|QuadKernels|Pow30|ShadeMatchesScalar|DeviceProfilesAllRender|LeanArenaMatchesReference|WorkerArenaMatchesFreshRunner'
ORACLE_PKGS := . ./internal/vecmath/ ./internal/bvh/ ./internal/render/raytrace/ ./internal/render/volume/ ./internal/framebuffer/ ./internal/scenario/
oracles:
	$(GO) test -count=1 -run $(ORACLE_TESTS) $(ORACLE_PKGS)
	@if out="$$(GOAMD64=v3 $(GO) test -count=1 -run '^$$' ./internal/device/ 2>&1)"; then \
		echo "GOAMD64=v3 $(GO) test -count=1 -run $(ORACLE_TESTS) $(ORACLE_PKGS)"; \
		GOAMD64=v3 $(GO) test -count=1 -run $(ORACLE_TESTS) $(ORACLE_PKGS); \
	else case "$$out" in \
		*microarchitecture*) echo "oracles: skipping the GOAMD64=v3 half, this host lacks x86-64-v3: $$out";; \
		*) echo "$$out"; exit 1;; \
	esac; fi

# fuzz runs every Fuzz* target in the repo, found with `go test -list`,
# for FUZZTIME each (`go test -fuzz` takes one target of one package
# per run). The targets' seed corpora already run in plain `go test`;
# this is the open-ended search, so ci leaves it out. A failing input is
# written under the package's testdata/fuzz/ for the fix to keep.
FUZZTIME ?= 10s
fuzz:
	@$(GO) test -list '^Fuzz' ./... | awk '/^Fuzz/ { t[n++] = $$1; next } /^ok/ { for (i = 0; i < n; i++) print $$2, t[i]; n = 0 }' | \
	while read pkg target; do \
		echo "== $$pkg $$target ($(FUZZTIME))"; \
		$(GO) test -run '^$$' -fuzz "^$$target\$$" -fuzztime $(FUZZTIME) $$pkg || exit 1; \
	done

# fmt fails if any file needs reformatting (CI-friendly gofmt check).
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# bench runs the table/figure benchmarks at the repo root and the
# package benchmarks (advisor, scenario dispatch, small-plan study,
# serving, cluster, obs, traversal, PNG encode, volume sampling),
# printing ns/op and allocs/op for people to read. The session orbit
# pair reports time-to-photon percentiles, so it runs 100 frames a side
# (at 1x both sides report their first frame, a miss). Speed claims cite
# BENCHMARK.json (`make bench-e2e`); the 0 allocs/op paths are pinned
# by TestZeroAlloc in the plain test run.
bench:
	$(GO) test -run '^$$' -benchmem -bench . -benchtime 1x .
	$(GO) test -run '^$$' -benchmem -bench BenchmarkAdvisorPredict ./internal/advisor/
	$(GO) test -run '^$$' -benchmem -bench BenchmarkScenarioDispatch -benchtime 1x ./internal/scenario/
	$(GO) test -run '^$$' -benchmem -bench 'BenchmarkStudySmallPlan|BenchmarkPlanGeneration' -benchtime 1x ./internal/study/
	$(GO) test -run '^$$' -benchmem -bench BenchmarkRenderd -skip BenchmarkRenderdSessionOrbit -benchtime 1x ./internal/serve/
	$(GO) test -run '^$$' -benchmem -bench BenchmarkRenderdSessionOrbit -benchtime 100x ./internal/serve/
	$(GO) test -run '^$$' -benchmem -bench BenchmarkClusterThroughput -benchtime 1x ./internal/cluster/
	$(GO) test -run '^$$' -benchmem -bench 'BenchmarkHistogramObserve|BenchmarkTraceSpan|BenchmarkDriftObserve' -benchtime 1x ./internal/obs/
	$(GO) test -run '^$$' -benchmem -bench 'BenchmarkHitRay|BenchmarkIntersectClosest|BenchmarkIntersectAny|BenchmarkPrimaryTraversal' -benchtime 1x ./internal/vecmath/ ./internal/bvh/
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
# ci leaves it out: race already runs these tests under the race detector.
chaos:
	$(GO) test -race -run 'TestChaos|TestFrameTrafficPinned|TestServedFrameSurvivesRankKill|TestBreakerOpensShortCircuitsAndRecovers|TestReadyzFleetQuorum' ./internal/cluster/ ./internal/serve/ ./cmd/renderd/

# cover runs the test suite with coverage and prints a per-function
# summary plus the total. The profile lands in cover.out for
# `go tool cover -html=cover.out`.
cover:
	$(GO) test -short -coverprofile=cover.out ./...
	@$(GO) tool cover -func=cover.out | tail -1

ci: build cross vet fmt test oracles test32 race bench-check

clean:
	$(GO) clean ./...
	rm -rf repro_out
