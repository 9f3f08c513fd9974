package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"image/png"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"insitu/internal/advisor"
	"insitu/internal/core"
	"insitu/internal/registry"
	"insitu/internal/serve"
)

// testSnapshotFile writes a hand-built model snapshot (plausible
// positive coefficients, serial arch) so the serving stack starts
// without a slow measurement study.
func testSnapshotFile(t *testing.T) string {
	t.Helper()
	fit := func(coef ...float64) registry.FitDoc {
		return registry.FitDoc{Coef: coef, R2: 0.99, N: 16, P: len(coef)}
	}
	build := fit(1e-8, 1e-5)
	snap := &registry.Snapshot{
		Version: registry.SnapshotVersion, Source: "renderd-test", CreatedUnix: 1,
		Mapping: registry.MappingDoc{FillFraction: 0.55, SPRBase: 373},
		Models: []registry.ModelDoc{
			{Arch: "serial", Renderer: string(core.RayTrace), Fit: fit(1e-7, 5e-8, 1e-4), BuildFit: &build},
			{Arch: "serial", Renderer: string(core.Volume), Fit: fit(1e-8, 1e-9, 1e-4)},
		},
		Compositing: &registry.ModelDoc{
			Arch: "all", Renderer: string(core.Compositing), Fit: fit(1e-9, 1e-9, 1e-4),
		},
	}
	path := filepath.Join(t.TempDir(), "models.json")
	if err := snap.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// startRenderd builds the full one-process stack — registry, engine,
// calibrator, serving subsystem, HTTP layer — exactly as main does.
func startRenderd(t *testing.T, refitEvery int) (*httptest.Server, *serve.Server) {
	return startRenderdCluster(t, refitEvery, 0)
}

// startRenderdCluster is startRenderd with -cluster N: the same stack
// plus an in-process worker fleet for sharded frames.
func startRenderdCluster(t *testing.T, refitEvery, clusterN int) (*httptest.Server, *serve.Server) {
	t.Helper()
	srv, fleet, err := buildServer(testSnapshotFile(t), false, true, refitEvery, clusterN, nil, serve.Config{
		Arch: "serial", Workers: 2, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if fleet != nil {
		t.Cleanup(fleet.Close)
	}
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(newWebServer(srv, fleet).handler())
	t.Cleanup(ts.Close)
	return ts, srv
}

func getFrame(t *testing.T, ts *httptest.Server, query string) (*http.Response, []byte) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/v1/frame?" + query)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

func getJSON(t *testing.T, ts *httptest.Server, path string, v any) int {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
	}
	return resp.StatusCode
}

// TestRenderdClosedLoop is the subsystem's acceptance test, all in one
// process: a tight-deadline request is admitted only after degradation,
// an impossible one is rejected with the prediction, served frames'
// measurements reach the calibrator, and /v1/models shows the
// generation bump — the full predict → act → measure → refit loop.
func TestRenderdClosedLoop(t *testing.T) {
	ts, srv := startRenderd(t, 1)
	engine := srv.Engine()

	// 1. A generous request serves a PNG at the requested quality.
	resp, body := getFrame(t, ts, "backend=raytracer&sim=kripke&n=8&size=72")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("frame status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "image/png" {
		t.Errorf("content type %q", ct)
	}
	if resp.Header.Get("X-Renderd-Cache") != "miss" || resp.Header.Get("X-Renderd-Degraded") != "false" {
		t.Errorf("headers: %+v", resp.Header)
	}
	img, err := png.Decode(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("body is not a PNG: %v", err)
	}
	if b := img.Bounds(); b.Dx() != 72 {
		t.Errorf("PNG width %d, want 72", b.Dx())
	}

	// 2. The identical request hits the cache with identical bytes.
	resp2, body2 := getFrame(t, ts, "backend=raytracer&sim=kripke&n=8&size=72")
	if resp2.Header.Get("X-Renderd-Cache") != "hit" {
		t.Error("second request missed the cache")
	}
	if !bytes.Equal(body, body2) {
		t.Error("cache hit served different bytes")
	}

	// 3. A deadline below the requested-quality prediction but above the
	// floor is admitted only after degradation.
	full, err := engine.Predict(advisor.PredictRequest{
		Arch: "serial", Renderer: string(core.RayTrace), N: 12, Tasks: 1, Width: 512, Renderings: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	deadlineMS := full.PerImageSeconds / 2 * 1e3
	resp3, body3 := getFrame(t, ts, fmt.Sprintf(
		"backend=raytracer&sim=kripke&n=12&size=512&deadline_ms=%g", deadlineMS))
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("degradable request status %d: %s", resp3.StatusCode, body3)
	}
	if resp3.Header.Get("X-Renderd-Degraded") != "true" {
		t.Errorf("tight deadline served undegraded: %+v", resp3.Header)
	}
	img3, err := png.Decode(bytes.NewReader(body3))
	if err != nil {
		t.Fatal(err)
	}
	if b := img3.Bounds(); b.Dx() >= 512 {
		t.Errorf("degraded frame still %dpx wide", b.Dx())
	}

	// 4. An impossible deadline is rejected with the predicted times.
	resp4, body4 := getFrame(t, ts, "backend=raytracer&sim=kripke&n=12&size=512&deadline_ms=0.000001")
	if resp4.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("impossible deadline status %d: %s", resp4.StatusCode, body4)
	}
	var eb errorBody
	if err := json.Unmarshal(body4, &eb); err != nil {
		t.Fatal(err)
	}
	if eb.Rejection == nil || eb.Rejection.PredictedSeconds <= 0 {
		t.Fatalf("rejection body lacks the prediction: %s", body4)
	}

	// 5. Served frames feed the calibrator; once the volume group has
	// enough samples the refit publishes and /v1/models bumps its
	// generation — without any POST /v1/observations.
	var models serve.ModelsBody
	getJSON(t, ts, "/v1/models", &models)
	gen0 := models.Generation
	for i := 0; i < 6; i++ {
		q := fmt.Sprintf("backend=volume&sim=kripke&n=%d&size=%d&azimuth=%d",
			8+2*(i%3), 48+16*(i%2), 10*i)
		if resp, body := getFrame(t, ts, q); resp.StatusCode != http.StatusOK {
			t.Fatalf("volume frame %d: status %d: %s", i, resp.StatusCode, body)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		getJSON(t, ts, "/v1/models", &models)
		if models.Generation > gen0 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if models.Generation <= gen0 {
		t.Fatalf("generation never bumped past %d (calibration loop broken)", gen0)
	}
	if models.Source != "renderd-frames" {
		t.Errorf("refitted snapshot source %q", models.Source)
	}

	// 6. /v1/metrics reflects the loop: frames rendered, observations
	// queued, at least one refit, and the same generation.
	var mb metricsBody
	getJSON(t, ts, "/v1/metrics", &mb)
	if mb.Serve.FramesRendered == 0 || mb.Serve.ObservationsQueued == 0 {
		t.Errorf("metrics missing serving traffic: %+v", mb.Serve)
	}
	if mb.Serve.Refits == 0 {
		t.Errorf("metrics missing refits: %+v", mb.Serve)
	}
	if mb.Generation != models.Generation {
		t.Errorf("metrics generation %d, models %d", mb.Generation, models.Generation)
	}
}

// TestRefitsNeverLagGeneration: while posted observations drive refits,
// a client that reads a generation from /v1/models and then reads
// /v1/metrics must find every publish behind that generation counted in
// refits.
func TestRefitsNeverLagGeneration(t *testing.T) {
	ts, srv := startRenderd(t, 1)
	var models serve.ModelsBody
	getJSON(t, ts, "/v1/models", &models)
	gen0 := models.Generation

	var batch []advisor.Observation
	for i := 0; i < 8; i++ {
		ap := float64(4000 + 1000*i)
		cs := float64(10 + 2*i)
		spr := float64(80 + 15*i)
		batch = append(batch, advisor.Observation{
			Arch: "serial", Renderer: "volume",
			Inputs:        core.Inputs{O: cs * cs * cs, AP: ap, SPR: spr, CS: cs, Pixels: 4 * ap, AvgAP: ap, Tasks: 1},
			RenderSeconds: 1e-7*ap*cs + 1e-8*ap*spr + 1e-4,
		})
	}
	const batches = 40
	done := make(chan error, 1)
	go func() {
		for sent := 0; sent < batches; {
			switch err := srv.QueueObservations(batch); {
			case err == nil:
				sent++
			case errors.Is(err, serve.ErrCalibrationFull):
				time.Sleep(time.Millisecond)
			default:
				done <- err
				return
			}
		}
		done <- nil
	}()

	check := func() uint64 {
		var models serve.ModelsBody
		getJSON(t, ts, "/v1/models", &models)
		var mb metricsBody
		getJSON(t, ts, "/v1/metrics", &mb)
		published := models.Generation - gen0
		if mb.Serve.Refits < published {
			t.Fatalf("/v1/metrics refits %d after /v1/models showed %d publishes", mb.Serve.Refits, published)
		}
		return published
	}
	var published uint64
	for sending := true; sending; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			sending = false
		default:
		}
		published = check()
	}
	if published == 0 {
		t.Fatal("no refit published while polling; the test lost its power")
	}
}

// TestRenderdClusterMode exercises the -cluster topology over HTTP: a
// sharded request serves a PNG with the compositing headers, the shard
// count is part of the frame's cache identity, /v1/metrics carries the
// fleet counters, and sharding without a fleet is a client error.
func TestRenderdClusterMode(t *testing.T) {
	ts, _ := startRenderdCluster(t, 1000, 3)

	resp, body := getFrame(t, ts, "backend=volume&sim=kripke&n=8&size=48&shards=3")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sharded frame status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Renderd-Shards"); got != "3" {
		t.Errorf("X-Renderd-Shards = %q, want 3", got)
	}
	if resp.Header.Get("X-Renderd-Composite-Seconds") == "" ||
		resp.Header.Get("X-Renderd-Predicted-Composite-Seconds") == "" {
		t.Errorf("compositing headers missing: %+v", resp.Header)
	}
	if ranks := strings.Split(resp.Header.Get("X-Renderd-Rank-Render-Seconds"), ","); len(ranks) != 3 {
		t.Errorf("X-Renderd-Rank-Render-Seconds = %q, want 3 entries", resp.Header.Get("X-Renderd-Rank-Render-Seconds"))
	}
	if _, err := png.Decode(bytes.NewReader(body)); err != nil {
		t.Fatalf("sharded body is not a PNG: %v", err)
	}

	// The unsharded variant of the same scene is a different frame: no
	// cache hit, shard-free headers, different pixels.
	respLocal, bodyLocal := getFrame(t, ts, "backend=volume&sim=kripke&n=8&size=48")
	if respLocal.StatusCode != http.StatusOK {
		t.Fatalf("local frame status %d: %s", respLocal.StatusCode, bodyLocal)
	}
	if respLocal.Header.Get("X-Renderd-Cache") != "miss" || respLocal.Header.Get("X-Renderd-Shards") != "1" {
		t.Errorf("local request aliased the sharded frame: %+v", respLocal.Header)
	}
	if respLocal.Header.Get("X-Renderd-Composite-Seconds") != "" {
		t.Errorf("local frame carries compositing headers: %+v", respLocal.Header)
	}
	if bytes.Equal(body, bodyLocal) {
		t.Error("sharded and local frames served identical bytes")
	}

	// Repeating the sharded request hits its own cache entry.
	respAgain, bodyAgain := getFrame(t, ts, "backend=volume&sim=kripke&n=8&size=48&shards=3")
	if respAgain.Header.Get("X-Renderd-Cache") != "hit" || !bytes.Equal(body, bodyAgain) {
		t.Error("repeat sharded request did not hit its cache entry")
	}

	var mb metricsBody
	getJSON(t, ts, "/v1/metrics", &mb)
	if mb.Serve.ClusterFrames != 1 || mb.Serve.ClusterShardsTotal != 3 {
		t.Errorf("cluster counters: %+v", mb.Serve)
	}
	if mb.Serve.Cluster == nil || mb.Serve.Cluster.Workers != 3 {
		t.Errorf("fleet stats: %+v", mb.Serve.Cluster)
	}

	// Oversharding the fleet is a 400.
	resp, _ = getFrame(t, ts, "backend=volume&sim=kripke&n=8&size=48&shards=9")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversharded request status %d, want 400", resp.StatusCode)
	}

	// A fleet-less server refuses sharded requests outright.
	tsLocal, _ := startRenderd(t, 1000)
	resp, _ = getFrame(t, tsLocal, "backend=volume&sim=kripke&n=8&size=48&shards=2")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("sharded request without a fleet: status %d, want 400", resp.StatusCode)
	}
}

// TestRenderdRequestValidation: unknown names answer 400 with the
// registered alternatives; model-less backends 404; malformed numbers
// 400.
func TestRenderdRequestValidation(t *testing.T) {
	ts, _ := startRenderd(t, 1000)

	resp, body := getFrame(t, ts, "backend=teapot&n=8&size=64")
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "raytracer") {
		t.Errorf("unknown backend: status %d body %s", resp.StatusCode, body)
	}
	resp, body = getFrame(t, ts, "backend=raytracer&sim=spice&n=8&size=64")
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "kripke") {
		t.Errorf("unknown sim: status %d body %s", resp.StatusCode, body)
	}
	// Registered backend, no model in this snapshot: 404, not 400.
	resp, _ = getFrame(t, ts, "backend=rasterizer&n=8&size=64")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("model-less backend status %d, want 404", resp.StatusCode)
	}
	resp, _ = getFrame(t, ts, "backend=raytracer&n=eight&size=64")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed n status %d", resp.StatusCode)
	}
	// A deadline too large for int64 nanoseconds is 400, not a
	// deadline in the past.
	resp, _ = getFrame(t, ts, "backend=raytracer&n=8&size=64&deadline_ms=1e13")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("deadline_ms=1e13 status %d, want 400", resp.StatusCode)
	}
	// POST body forms: malformed JSON is 400, an oversized body 413.
	huge := bytes.Repeat([]byte(" "), 2<<20)
	for _, c := range []struct {
		path string
		body []byte
		want int
	}{
		{"/v1/frame", []byte("{oops"), http.StatusBadRequest},
		{"/v1/frame", huge, http.StatusRequestEntityTooLarge},
		{"/v1/session", huge, http.StatusRequestEntityTooLarge},
	} {
		r, err := ts.Client().Post(ts.URL+c.path, "application/json", bytes.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != c.want {
			t.Errorf("POST %s with a %d-byte body: status %d, want %d", c.path, len(c.body), r.StatusCode, c.want)
		}
	}

	// POST and GET forms answer identically for the same request.
	reqBody, _ := json.Marshal(serve.FrameRequest{Backend: core.Volume, Sim: "kripke", N: 8, Width: 64})
	r, err := ts.Client().Post(ts.URL+"/v1/frame", "application/json", bytes.NewReader(reqBody))
	if err != nil {
		t.Fatal(err)
	}
	postBytes, _ := io.ReadAll(r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("POST frame status %d: %s", r.StatusCode, postBytes)
	}
	_, getBytes := getFrame(t, ts, "backend=volume&sim=kripke&n=8&size=64")
	if !bytes.Equal(postBytes, getBytes) {
		t.Error("POST and GET served different bytes for one frame")
	}

	var hz healthzBody
	if code := getJSON(t, ts, "/healthz", &hz); code != http.StatusOK || hz.Status != "ok" || hz.Models != 2 {
		t.Errorf("healthz: code %d body %+v", code, hz)
	}
}
