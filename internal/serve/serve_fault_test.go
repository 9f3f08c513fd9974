package serve

import (
	"bytes"
	"testing"
	"time"

	"insitu/internal/advisor"
	"insitu/internal/cluster"
	"insitu/internal/comm"
	"insitu/internal/core"
	"insitu/internal/framebuffer"
	"insitu/internal/registry"
)

// faultClusterServer is clusterServer with explicit fleet fault-tolerance
// tuning and an injected fault plan.
func faultClusterServer(t testing.TB, workers int, copts cluster.Options, cfg Config) (*Server, *cluster.Cluster) {
	t.Helper()
	reg := registry.New(1024)
	if err := reg.Load(clusterSnapshot()); err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.NewWithOptions(workers, copts)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Arch = "serial"
	cfg.Cluster = cl
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	s := New(advisor.New(reg), cfg)
	t.Cleanup(cl.Close)
	t.Cleanup(s.Close)
	return s, cl
}

// fastFaultOpts converges detection and recovery in well under a second
// so serve-level fault scenarios resolve quickly.
func fastFaultOpts(plan *comm.FaultPlan) cluster.Options {
	return cluster.Options{
		HeartbeatInterval: 25 * time.Millisecond,
		HeartbeatTimeout:  time.Second,
		AttemptTimeout:    time.Second,
		DrainGrace:        250 * time.Millisecond,
		RetryBackoff:      5 * time.Millisecond,
		MaxAttempts:       2,
		Faults:            plan,
	}
}

// standalonePNG renders the reference image for a served sharded frame:
// the same job through the standalone path, PNG-encoded the same way.
func standalonePNG(t *testing.T, req FrameRequest, shards int) []byte {
	t.Helper()
	want, err := cluster.RenderStandalone(cluster.Job{
		Backend: string(req.Backend), Sim: req.Sim, Arch: "serial",
		N: req.N, Width: req.Width, Height: req.Width,
		Shards: shards, Azimuth: req.Azimuth, Zoom: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var enc framebuffer.PNGEncoder
	var buf bytes.Buffer
	if err := enc.Encode(&buf, want.Image); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestServedFrameSurvivesRankKill walks the full degradation ladder a
// rank death triggers at the serving layer. Frame 1 is healthy. The kill
// lands mid-frame-2: the fleet's retry finds too few survivors, so the
// frame is served by the standalone fallback — byte-identical, flagged
// FleetDegraded. Frame 3 is admitted after eviction: the shard count is
// clamped to the survivors and the fleet serves it again, byte-identical
// to the standalone reference at the surviving shard count.
func TestServedFrameSurvivesRankKill(t *testing.T) {
	plan := comm.NewFaultPlan(21)
	s, cl := faultClusterServer(t, 3, fastFaultOpts(plan), Config{})
	req := FrameRequest{Backend: core.Raster, Sim: "lulesh", N: 8, Width: 40, Azimuth: 30, Shards: 3}

	res1, err := s.Render(req)
	if err != nil {
		t.Fatal(err)
	}
	if res1.Shards != 3 || res1.FleetDegraded || res1.Retries != 0 {
		t.Fatalf("healthy frame served %+v, want an unretried 3-shard frame", res1)
	}
	if !bytes.Equal(res1.PNG, standalonePNG(t, req, 3)) {
		t.Fatal("healthy cluster frame differs from standalone reference")
	}

	// Kill worker 2 a few sends into the next frame (with 3 shards on 3
	// workers, every worker is a member). The attempt aborts, the retry
	// finds 2 survivors for 3 shards — a typed rank failure — and the
	// serving layer falls back to standalone at the admitted quality.
	plan.KillRankAfterSends(2, 3)
	req2 := req
	req2.Azimuth = 75
	res2, err := s.Render(req2)
	if err != nil {
		t.Fatalf("frame during rank kill: %v", err)
	}
	if !res2.FleetDegraded {
		t.Errorf("frame served across a rank kill not flagged FleetDegraded: %+v", res2)
	}
	if !bytes.Equal(res2.PNG, standalonePNG(t, req2, res2.Shards)) {
		t.Fatal("frame served across a rank kill differs from the standalone reference")
	}
	if st := s.Stats(); st.ClusterFailures < 1 || st.ClusterFallbacks < 1 {
		t.Errorf("fallback not accounted: failures=%d fallbacks=%d", st.ClusterFailures, st.ClusterFallbacks)
	}

	// After eviction, admission re-plans at the surviving shard count and
	// the fleet itself serves again.
	deadline := time.Now().Add(10 * time.Second)
	for cl.AliveWorkers() != 2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := cl.AliveWorkers(); got != 2 {
		t.Fatalf("alive workers %d after kill, want 2", got)
	}
	req3 := req
	req3.Azimuth = 135
	res3, err := s.Render(req3)
	if err != nil {
		t.Fatal(err)
	}
	if res3.Shards != 2 || !res3.FleetDegraded {
		t.Fatalf("post-eviction frame served %+v, want a 2-shard FleetDegraded frame", res3)
	}
	if !bytes.Equal(res3.PNG, standalonePNG(t, req3, 2)) {
		t.Fatal("post-eviction frame differs from the standalone reference at the surviving shard count")
	}
	if st := s.Stats(); st.FleetClamped < 1 {
		t.Errorf("shard clamp not accounted: %+v", st)
	}
}

// TestBreakerOpensShortCircuitsAndRecovers wedges the fleet without
// killing it (a stalled link, blame disabled), so every sharded render
// burns its retry budget and falls back. The breaker must open at the
// threshold, short-circuit the next frame straight to standalone (no
// fleet dispatch), and close again via a half-open probe once the fault
// is lifted and the cooldown elapses.
func TestBreakerOpensShortCircuitsAndRecovers(t *testing.T) {
	plan := comm.NewFaultPlan(31)
	// Both directions: whichever worker leads the 2-shard group, its
	// peer's traffic vanishes.
	plan.StallAfter(1, 2, 1)
	plan.StallAfter(2, 1, 1)
	copts := fastFaultOpts(plan)
	copts.AttemptTimeout = 400 * time.Millisecond
	copts.DrainGrace = 200 * time.Millisecond
	// A stalled rank still beacons; keep blame out of reach so failure
	// comes from the retry budget, not eviction — the breaker, not the
	// placement clamp, must carry this scenario.
	copts.BlameThreshold = 100
	s, cl := faultClusterServer(t, 2, copts, Config{
		BreakerThreshold: 2,
		BreakerCooldown:  1500 * time.Millisecond,
	})
	req := FrameRequest{Backend: core.Raster, Sim: "lulesh", N: 8, Width: 40, Shards: 2}

	// Two failures trip the breaker; both frames are still served, byte-
	// exact, by the fallback.
	for i, az := range []float64{10, 20} {
		r := req
		r.Azimuth = az
		res, err := s.Render(r)
		if err != nil {
			t.Fatalf("frame %d on wedged fleet: %v", i, err)
		}
		if !res.FleetDegraded {
			t.Fatalf("frame %d on wedged fleet not flagged FleetDegraded", i)
		}
		if !bytes.Equal(res.PNG, standalonePNG(t, r, 2)) {
			t.Fatalf("fallback frame %d differs from standalone reference", i)
		}
	}
	st := s.Stats()
	if st.BreakerOpens != 1 || st.BreakerState != "open" {
		t.Fatalf("breaker after %d failures: opens=%d state=%q, want open", st.ClusterFailures, st.BreakerOpens, st.BreakerState)
	}

	// Open circuit: the next frame never touches the fleet.
	dispatchedBefore := cl.Stats().FramesDispatched
	r := req
	r.Azimuth = 30
	res, err := s.Render(r)
	if err != nil {
		t.Fatal(err)
	}
	if !res.FleetDegraded {
		t.Error("short-circuited frame not flagged FleetDegraded")
	}
	if got := cl.Stats().FramesDispatched; got != dispatchedBefore {
		t.Errorf("open breaker still dispatched to the fleet (%d -> %d)", dispatchedBefore, got)
	}
	if st := s.Stats(); st.BreakerShortCircuits < 1 {
		t.Errorf("short circuit not accounted: %+v", st)
	}

	// Heal the links, let the cooldown elapse: the half-open probe closes
	// the circuit and the fleet serves sharded frames again.
	plan.Reset()
	time.Sleep(1600 * time.Millisecond)
	r.Azimuth = 40
	res, err = s.Render(r)
	if err != nil {
		t.Fatal(err)
	}
	if res.FleetDegraded || res.Shards != 2 {
		t.Fatalf("post-recovery frame served %+v, want a healthy 2-shard fleet frame", res)
	}
	if !bytes.Equal(res.PNG, standalonePNG(t, r, 2)) {
		t.Fatal("post-recovery frame differs from standalone reference")
	}
	if st := s.Stats(); st.BreakerState != "closed" {
		t.Errorf("breaker state %q after successful probe, want closed", st.BreakerState)
	}
}

// TestOpenSessionClampsToSurvivingFleet: a session opened while a rank is
// dead gets the same fleet-health clamp a one-shot Render does, so it
// reports and memoizes the shard count the survivors can place.
func TestOpenSessionClampsToSurvivingFleet(t *testing.T) {
	plan := comm.NewFaultPlan(41)
	s, cl := faultClusterServer(t, 3, fastFaultOpts(plan), Config{})
	plan.KillRank(2)
	deadline := time.Now().Add(10 * time.Second)
	for cl.AliveWorkers() != 2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := cl.AliveWorkers(); got != 2 {
		t.Fatalf("alive workers %d after kill, want 2", got)
	}

	sess, err := s.OpenSession(FrameRequest{Backend: core.Raster, Sim: "lulesh", N: 8, Width: 40, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if got := sess.Info().Shards; got != 2 {
		t.Errorf("session opened on 2 surviving workers admitted %d shards, want 2", got)
	}
	if st := s.Stats(); st.FleetClamped != 1 {
		t.Errorf("fleet_clamped %d after the session open, want 1", st.FleetClamped)
	}
}
