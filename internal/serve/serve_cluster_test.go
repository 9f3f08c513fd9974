package serve

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"insitu/internal/advisor"
	"insitu/internal/cluster"
	"insitu/internal/core"
	"insitu/internal/framebuffer"
	"insitu/internal/registry"
)

// clusterSnapshot extends the serving test snapshot with the compositing
// model (the paper's Tc) and the remaining backends, so sharded
// admissions have a fitted Tc to charge and every backend can serve.
func clusterSnapshot() *registry.Snapshot {
	fit := func(coef ...float64) registry.FitDoc {
		return registry.FitDoc{Coef: coef, R2: 0.99, N: 16, P: len(coef)}
	}
	build := fit(1e-8, 1e-5)
	return &registry.Snapshot{
		Version: registry.SnapshotVersion, Source: "serve-cluster-test", CreatedUnix: 1,
		Mapping: registry.MappingDoc{FillFraction: 0.55, SPRBase: 373},
		Models: []registry.ModelDoc{
			{Arch: "serial", Renderer: string(core.RayTrace), Fit: fit(1e-7, 5e-8, 1e-4), BuildFit: &build},
			{Arch: "serial", Renderer: string(core.Raster), Fit: fit(1e-9, 1e-8, 1e-4)},
			{Arch: "serial", Renderer: string(core.Volume), Fit: fit(1e-8, 1e-9, 1e-4)},
			{Arch: "serial", Renderer: string(core.VolumeUnstructured), Fit: fit(1e-9, 1e-9, 1e-4)},
		},
		Compositing: &registry.ModelDoc{
			Arch: "all", Renderer: string(core.Compositing), Fit: fit(1e-9, 1e-9, 1e-4),
		},
	}
}

// clusterServer builds a serving stack fronting an in-process worker
// fleet, with the registry on the admission side only — the -cluster
// renderd topology in miniature.
func clusterServer(t testing.TB, workers int, cfg Config) (*Server, *cluster.Cluster, *registry.Registry) {
	return clusterServerSnap(t, workers, cfg, clusterSnapshot())
}

func clusterServerSnap(t testing.TB, workers int, cfg Config, snap *registry.Snapshot) (*Server, *cluster.Cluster, *registry.Registry) {
	t.Helper()
	reg := registry.New(0)
	if err := reg.Load(snap); err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.NewWithOptions(workers, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Arch = "serial"
	cfg.Cluster = cl
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	s := New(advisor.New(reg), cfg)
	// Server first, fleet after: the server may have frames in flight.
	t.Cleanup(cl.Close)
	t.Cleanup(s.Close)
	return s, cl, reg
}

// TestServedClusterFrameMatchesStandalone is the serve-level acceptance
// claim: a frame sharded across >= 3 workers through the full admission
// -> dispatch -> composite -> encode path is byte-identical to the same
// shard group rendered standalone and encoded directly.
func TestServedClusterFrameMatchesStandalone(t *testing.T) {
	s, _, _ := clusterServer(t, 4, Config{})
	req := FrameRequest{
		Backend: core.RayTrace, Sim: "kripke", N: 8,
		Width: 48, Azimuth: 30, Shards: 3,
	}
	res, err := s.Render(req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Shards != 3 || res.Degraded {
		t.Fatalf("served %+v, want an undegraded 3-shard frame", res)
	}
	if len(res.RankRenderSeconds) != 3 {
		t.Errorf("per-rank render times: %v", res.RankRenderSeconds)
	}
	if res.RenderSeconds <= 0 || res.CompositeSeconds < 0 {
		t.Errorf("timings: %+v", res)
	}

	want, err := cluster.RenderStandalone(cluster.Job{
		Backend: string(core.RayTrace), Sim: "kripke", Arch: "serial",
		N: 8, Width: 48, Height: 48, Shards: 3, Azimuth: 30, Zoom: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var enc framebuffer.PNGEncoder
	var buf bytes.Buffer
	if err := enc.Encode(&buf, want.Image); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.PNG, buf.Bytes()) {
		t.Fatal("served cluster PNG differs from the standalone shard-group render")
	}
}

// TestShardedAdmissionChargesCompositing: the admission prediction for a
// sharded request includes the fitted Tc — zero for the same frame
// admitted unsharded, positive and folded into the total when sharded.
func TestShardedAdmissionChargesCompositing(t *testing.T) {
	s, _, _ := clusterServer(t, 4, Config{})
	sharded, compSharded, err := s.predictQuality("serial", core.RayTrace, quality{W: 64, H: 64, N: 8, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	_, compLocal, err := s.predictQuality("serial", core.RayTrace, quality{W: 64, H: 64, N: 8})
	if err != nil {
		t.Fatal(err)
	}
	if compLocal != 0 {
		t.Errorf("unsharded prediction charges Tc = %v, want 0", compLocal)
	}
	if compSharded <= 0 {
		t.Errorf("sharded prediction's Tc = %v, want positive", compSharded)
	}
	if sharded <= compSharded {
		t.Errorf("sharded total %v does not fold in Tc %v on top of the render term", sharded, compSharded)
	}

	res, err := s.Render(FrameRequest{Backend: core.RayTrace, Sim: "kripke", N: 8, Width: 48, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.PredictedCompositeSeconds <= 0 {
		t.Errorf("sharded frame served without a predicted compositing term: %+v", res)
	}
	if res.PredictedSeconds <= 0 {
		t.Errorf("missing total prediction: %+v", res)
	}
}

// TestShardCountIsPartOfFrameIdentity guards the admission-memo and
// frame-cache aliasing fix: the same scene at shards=3 and shards=1 are
// different frames (different datasets, different pixels) and must never
// answer each other from the caches.
func TestShardCountIsPartOfFrameIdentity(t *testing.T) {
	s, _, _ := clusterServer(t, 4, Config{})
	req := FrameRequest{Backend: core.Volume, Sim: "kripke", N: 8, Width: 48}

	sharded := req
	sharded.Shards = 3
	first, err := s.Render(sharded)
	if err != nil {
		t.Fatal(err)
	}
	local, err := s.Render(req)
	if err != nil {
		t.Fatal(err)
	}
	if local.CacheHit {
		t.Fatal("local request served from the sharded frame's cache entry")
	}
	if local.Shards != 1 || first.Shards != 3 {
		t.Fatalf("shard counts: local %d sharded %d", local.Shards, first.Shards)
	}
	if bytes.Equal(first.PNG, local.PNG) {
		t.Fatal("sharded and local frames are byte-identical — decomposition had no effect?")
	}
	// The sharded entry is still cached under its own key.
	again, err := s.Render(sharded)
	if err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit || again.Shards != 3 {
		t.Errorf("repeat sharded request: %+v", again)
	}
	if !bytes.Equal(again.PNG, first.PNG) {
		t.Fatal("cached sharded frame served different bytes")
	}
	if again.CompositeSeconds != first.CompositeSeconds || len(again.RankRenderSeconds) != 3 {
		t.Errorf("cache hit lost compositing measurements: %+v", again)
	}
}

// TestServedFrameReplicatesModels: a model publish between two served
// frames changes admission's prices, not the fleet. Models stay with the
// router, so the next sharded miss still dispatches and serves, and the
// router's links to the workers carry one job per shard and nothing else.
func TestServedFrameReplicatesModels(t *testing.T) {
	s, _, reg := clusterServer(t, 3, Config{})

	req := FrameRequest{Backend: core.RayTrace, Sim: "kripke", N: 8, Width: 48, Shards: 2}
	if _, err := s.Render(req); err != nil {
		t.Fatal(err)
	}
	if err := reg.Load(clusterSnapshot()); err != nil {
		t.Fatal(err)
	}
	req.Azimuth = 90 // miss the frame cache so a dispatch happens
	next, err := s.Render(req)
	if err != nil {
		t.Fatal(err)
	}
	if next.CacheHit || next.Shards != 2 {
		t.Errorf("sharded miss after a publish: %+v", next)
	}

	st := s.Stats()
	if st.ClusterFrames != 2 || st.ClusterShardsTotal != 4 {
		t.Errorf("cluster counters: frames %d, shards %d; want 2, 4", st.ClusterFrames, st.ClusterShardsTotal)
	}
	if st.Cluster == nil {
		t.Fatal("fleet stats missing")
	}
	var jobs int64
	for _, l := range st.Cluster.Links {
		if l.From == 0 {
			jobs += l.Messages
		}
	}
	if uint64(jobs) != st.ClusterShardsTotal {
		t.Errorf("router->worker links carried %d messages for %d served shards; want one job per shard", jobs, st.ClusterShardsTotal)
	}
}

// TestDegradeTradesShardsForResolution: when the fitted Tc dominates
// (here a 50ms constant), the ladder's model-driven trade sheds shards
// while *keeping* the requested resolution — halving pixels would leave
// the compositing bill untouched, so the model picks the other knob.
func TestDegradeTradesShardsForResolution(t *testing.T) {
	snap := clusterSnapshot()
	snap.Compositing.Fit = registry.FitDoc{Coef: []float64{1e-9, 1e-9, 0.5}, R2: 0.99, N: 16, P: 3}
	s, _, _ := clusterServerSnap(t, 4, Config{}, snap)

	local, _, err := s.predictQuality("serial", core.Volume, quality{W: 512, H: 512, N: 8})
	if err != nil {
		t.Fatal(err)
	}
	sharded, _, err := s.predictQuality("serial", core.Volume, quality{W: 512, H: 512, N: 8, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Every sharded quality carries the 0.5s Tc constant regardless of
	// resolution; the deadline must sit clear of all of them but above the
	// full-resolution local render.
	deadline := local * 1.5
	if sharded < 0.5 || deadline > 0.4 {
		t.Fatalf("test premise broken: sharded %v local %v", sharded, local)
	}

	res, err := s.Render(FrameRequest{
		Backend: core.Volume, Sim: "kripke", N: 8, Width: 512,
		Shards: 2, DeadlineMillis: deadline * 1e3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded || res.Shards != 1 {
		t.Fatalf("ladder served shards=%d degraded=%v, want the shard rung to reach 1", res.Shards, res.Degraded)
	}
	if res.Width != 512 || res.Height != 512 {
		t.Errorf("ladder halved resolution to %dx%d although shedding shards was the cheaper trade", res.Width, res.Height)
	}

	// Below even the fully-degraded floor the request is rejected, and
	// the rejection carries the floor prediction.
	_, err = s.Render(FrameRequest{
		Backend: core.Volume, Sim: "kripke", N: 8, Width: 512,
		Shards: 2, DeadlineMillis: 1e-6,
	})
	var rej *RejectionError
	if !errors.As(err, &rej) {
		t.Fatalf("infeasible sharded request not rejected: %v", err)
	}
	if rej.FloorPredictedSeconds <= 0 {
		t.Errorf("rejection lost the floor prediction: %+v", rej)
	}
}

// TestShardsWithoutClusterIsBadRequest: sharded requests against a
// fleet-less server (and overshard requests against a small fleet) are
// client errors, not panics.
func TestShardsWithoutClusterIsBadRequest(t *testing.T) {
	s := testServer(t, Config{})
	_, err := s.Render(FrameRequest{Backend: core.RayTrace, Sim: "kripke", N: 8, Width: 64, Shards: 2})
	if !errors.Is(err, ErrBadRequest) {
		t.Errorf("shards without a fleet: %v, want ErrBadRequest", err)
	}

	sc, _, _ := clusterServer(t, 2, Config{})
	_, err = sc.Render(FrameRequest{Backend: core.RayTrace, Sim: "kripke", N: 8, Width: 64, Shards: 3})
	if !errors.Is(err, ErrBadRequest) {
		t.Errorf("oversharded request: %v, want ErrBadRequest", err)
	}
	if _, err := sc.Render(FrameRequest{Backend: core.RayTrace, Sim: "kripke", N: 8, Width: 64, Shards: -1}); !errors.Is(err, ErrBadRequest) {
		t.Error("negative shards accepted")
	}
}

// TestConcurrentShardedServing hammers the full serving path — admission
// memo, flight coalescing, frame cache, cluster dispatch — from many
// goroutines mixing shard counts. Run under -race.
func TestConcurrentShardedServing(t *testing.T) {
	s, _, _ := clusterServer(t, 4, Config{Workers: 4})
	reqs := []FrameRequest{
		{Backend: core.RayTrace, Sim: "kripke", N: 8, Width: 40, Shards: 3},
		{Backend: core.Volume, Sim: "kripke", N: 8, Width: 40, Shards: 2},
		{Backend: core.Raster, Sim: "lulesh", N: 8, Width: 40, Shards: 4},
		{Backend: core.RayTrace, Sim: "kripke", N: 8, Width: 40}, // local
	}
	reference := make([][]byte, len(reqs))
	for i, req := range reqs {
		res, err := s.Render(req)
		if err != nil {
			t.Fatal(err)
		}
		reference[i] = res.PNG
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for round := 0; round < 3; round++ {
		for i, req := range reqs {
			wg.Add(1)
			go func(i int, req FrameRequest) {
				defer wg.Done()
				res, err := s.Render(req)
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(res.PNG, reference[i]) {
					errs <- errors.New("concurrent serve diverged from reference for " + string(req.Backend))
				}
			}(i, req)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if st := s.Stats(); st.ClusterFrames == 0 || st.ClusterShardsTotal < st.ClusterFrames {
		t.Errorf("cluster counters did not advance: %+v", st)
	}
}

// TestFrameTailAcrossPaths drives the one render tail through each
// execution path — local runner, worker fleet, breaker-forced standalone
// fallback — once with no deadline and once with a 1 µs deadline. The
// models are scaled down a millionfold, so the 1 µs deadline is admitted
// at the requested quality and missed by every real render.
func TestFrameTailAcrossPaths(t *testing.T) {
	snap := clusterSnapshot()
	scale := func(f *registry.FitDoc) {
		for i := range f.Coef {
			f.Coef[i] *= 1e-6
		}
	}
	for i := range snap.Models {
		scale(&snap.Models[i].Fit)
		if snap.Models[i].BuildFit != nil {
			scale(snap.Models[i].BuildFit)
		}
	}
	scale(&snap.Compositing.Fit)
	compositeDrift := func(s *Server) uint64 {
		for _, d := range s.Stats().ModelDrift {
			if d.Backend == string(core.Volume) && d.Term == "composite" {
				return d.Count
			}
		}
		return 0
	}

	for _, row := range []struct {
		name     string
		shards   int
		fallback bool
	}{
		{"local", 1, false},
		{"fleet", 2, false},
		{"fallback", 2, true},
	} {
		t.Run(row.name, func(t *testing.T) {
			cfg := Config{}
			if row.fallback {
				cfg.BreakerThreshold, cfg.BreakerCooldown = 1, time.Hour
			}
			s, _, _ := clusterServerSnap(t, 2, cfg, snap)
			if row.fallback && !s.brk.failure() {
				t.Fatal("one injected failure did not open a threshold-1 breaker")
			}
			for i, deadlineMillis := range []float64{0, 1e-3} {
				missesBefore, driftBefore := s.Stats().DeadlineMisses, compositeDrift(s)
				res, err := s.Render(FrameRequest{
					Backend: core.Volume, Sim: "kripke", N: 8, Width: 32,
					Azimuth: float64(40 * i), Shards: row.shards, DeadlineMillis: deadlineMillis,
				})
				if err != nil {
					t.Fatal(err)
				}
				if res.CacheHit || res.Degraded || res.Shards != row.shards {
					t.Fatalf("deadline %vms: served %+v, want a fresh %d-shard render at the requested quality", deadlineMillis, res, row.shards)
				}
				wantMiss := deadlineMillis > 0
				if res.DeadlineMiss != wantMiss {
					t.Errorf("deadline %vms: DeadlineMiss = %v, want %v", deadlineMillis, res.DeadlineMiss, wantMiss)
				}
				wantMisses := uint64(0)
				if wantMiss {
					wantMisses = 1
				}
				if got := s.Stats().DeadlineMisses - missesBefore; got != wantMisses {
					t.Errorf("deadline %vms: deadline_misses grew by %d, want %d", deadlineMillis, got, wantMisses)
				}
				if grew := compositeDrift(s) > driftBefore; grew != (row.shards > 1) {
					t.Errorf("deadline %vms: composite drift series grew = %v on a %d-shard frame", deadlineMillis, grew, row.shards)
				}
				// The request deadline also bounds a sharded frame's fleet
				// dispatch: at 1 µs it has expired before the fleet can
				// answer, so that frame is served by the fallback too.
				wantFleetDegraded := row.fallback || (row.shards > 1 && wantMiss)
				if res.FleetDegraded != wantFleetDegraded {
					t.Errorf("deadline %vms: FleetDegraded = %v, want %v", deadlineMillis, res.FleetDegraded, wantFleetDegraded)
				}
				if res.Retries != 0 {
					t.Errorf("deadline %vms: %d retries on a healthy fleet", deadlineMillis, res.Retries)
				}
			}
		})
	}
}
