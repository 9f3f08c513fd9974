package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"insitu/internal/cluster"
	"insitu/internal/comm"
	"insitu/internal/serve"
)

// startFaultyRenderd is startRenderdCluster with an injected fault plan
// and fast failure detection, for exercising the degraded HTTP surface.
func startFaultyRenderd(t *testing.T, clusterN int, plan *comm.FaultPlan) (*httptest.Server, *cluster.Cluster) {
	t.Helper()
	copts := &cluster.Options{
		HeartbeatInterval: 25 * time.Millisecond,
		HeartbeatTimeout:  time.Second,
		AttemptTimeout:    time.Second,
		DrainGrace:        250 * time.Millisecond,
		RetryBackoff:      5 * time.Millisecond,
		Faults:            plan,
	}
	srv, fleet, err := buildServer(testSnapshotFile(t), false, 1024, false, 8, clusterN, copts, serve.Config{
		Arch: "serial", Workers: 2, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fleet.Close)
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(newWebServer(srv, fleet).handler())
	t.Cleanup(ts.Close)
	return ts, fleet
}

// TestReadyzFleetQuorum drives readiness through a rank death: ready
// while the fleet is whole, 503 once the survivors lose quorum — while
// /healthz stays 200 throughout, because the process itself is fine.
func TestReadyzFleetQuorum(t *testing.T) {
	plan := comm.NewFaultPlan(7)
	ts, fleet := startFaultyRenderd(t, 2, plan)

	var rz readyzBody
	if code := getJSON(t, ts, "/readyz", &rz); code != http.StatusOK {
		t.Fatalf("readyz on a healthy fleet: code %d body %+v", code, rz)
	}
	if rz.FleetWorkers != 2 || rz.FleetAlive != 2 {
		t.Errorf("readyz fleet view %+v, want 2/2 alive", rz)
	}

	plan.KillRank(2)
	deadline := time.Now().Add(10 * time.Second)
	for fleet.AliveWorkers() != 1 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := fleet.AliveWorkers(); got != 1 {
		t.Fatalf("alive workers %d after kill, want 1", got)
	}

	rz = readyzBody{}
	if code := getJSON(t, ts, "/readyz", &rz); code != http.StatusServiceUnavailable {
		t.Errorf("readyz below quorum: code %d body %+v, want 503", code, rz)
	}
	if rz.FleetAlive != 1 || len(rz.FleetDead) != 1 {
		t.Errorf("readyz fleet view below quorum %+v, want 1 alive 1 dead", rz)
	}
	var hz healthzBody
	if code := getJSON(t, ts, "/healthz", &hz); code != http.StatusOK || hz.Status != "ok" {
		t.Errorf("healthz with a degraded fleet: code %d body %+v, want liveness ok", code, hz)
	}

	// A sharded request against the lone survivor is clamped and served,
	// and the response says so.
	resp, body := getFrame(t, ts, "backend=volume&sim=kripke&n=8&size=48&shards=2")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("clamped frame: code %d body %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Renderd-Fleet-Degraded"); got != "true" {
		t.Errorf("X-Renderd-Fleet-Degraded = %q on a clamped frame, want true", got)
	}
	if got := resp.Header.Get("X-Renderd-Shards"); got != "1" {
		t.Errorf("X-Renderd-Shards = %q after clamping to the survivor, want 1", got)
	}
}

// TestFrameFaultHeadersHealthy pins the new response headers' healthy
// values, so dashboards can rely on their presence.
func TestFrameFaultHeadersHealthy(t *testing.T) {
	ts, _ := startRenderdCluster(t, 8, 2)
	resp, body := getFrame(t, ts, "backend=volume&sim=kripke&n=8&size=48&shards=2")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("frame: code %d body %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Renderd-Retries"); got != "0" {
		t.Errorf("X-Renderd-Retries = %q on a healthy frame, want 0", got)
	}
	if got := resp.Header.Get("X-Renderd-Fleet-Degraded"); got != "false" {
		t.Errorf("X-Renderd-Fleet-Degraded = %q on a healthy frame, want false", got)
	}
}

// TestChaosShardedFramesUnderFaults serves sharded frames through a
// seeded fault timeline: deterministic packet loss on every
// worker-worker link from the first request, and the highest rank
// killed after request killAfter. Recovery (retry, eviction, clamp to
// the survivor or the standalone fallback) must keep every answer a 200
// or a deadline 422: degraded service, not denied service.
func TestChaosShardedFramesUnderFaults(t *testing.T) {
	const clusterN, requests, killAfter = 2, 16, 6
	plan := comm.NewFaultPlan(3)
	for from := 1; from <= clusterN; from++ {
		for to := 1; to <= clusterN; to++ {
			if from != to {
				plan.DropEvery(from, to, 0.05)
			}
		}
	}
	ts, fleet := startFaultyRenderd(t, clusterN, plan)

	var ok, rejected int
	for i := 0; i < requests; i++ {
		if i == killAfter {
			plan.KillRank(clusterN)
		}
		// Distinct cameras keep every frame a cache miss, so each one
		// crosses the faulted fleet; every fourth carries an impossible
		// deadline, answered by a fast 422 before any dispatch.
		q := fmt.Sprintf("backend=volume&sim=kripke&n=8&size=48&shards=2&azimuth=%d", 15*i)
		if i%4 == 3 {
			q += "&deadline_ms=0.001"
		}
		resp, body := getFrame(t, ts, q)
		switch resp.StatusCode {
		case http.StatusOK:
			ok++
		case http.StatusUnprocessableEntity:
			rejected++
		default:
			t.Errorf("request %d (%s): status %d: %s", i, q, resp.StatusCode, body)
		}
	}
	if ok == 0 || rejected == 0 {
		t.Errorf("served %d and rejected %d of %d sharded requests, want both", ok, rejected, requests)
	}
	if got := fleet.AliveWorkers(); got != clusterN-1 {
		t.Errorf("alive workers %d after the kill, want %d", got, clusterN-1)
	}
	t.Logf("%d served, %d rejected; fault plan %+v", ok, rejected, plan.Stats())
}
