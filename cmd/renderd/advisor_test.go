package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"insitu/internal/advisor"
	"insitu/internal/core"
	"insitu/internal/obs"
	"insitu/internal/registry"
	"insitu/internal/serve"
	"insitu/internal/study"
)

// studyRegistry runs a small real measurement study, exports the fitted
// models through the study pipeline, and returns the snapshot path plus
// the directly fitted set for comparison. Shared across tests because the
// study is the slow part.
var studyOnce struct {
	sync.Once
	dir  string
	rows []study.Row
	err  error
}

func studyRegistry(t *testing.T) (string, *core.ModelSet, core.Mapping) {
	t.Helper()
	studyOnce.Do(func() {
		var plan []study.Config
		for _, n := range []int{8, 10, 12} {
			for _, img := range []int{40, 56} {
				plan = append(plan,
					study.Config{Arch: "serial", Renderer: core.RayTrace, Sim: "kripke", Tasks: 1, ImageSize: img, N: n, Frames: 2},
					study.Config{Arch: "serial", Renderer: core.Volume, Sim: "kripke", Tasks: 1, ImageSize: img, N: n, Frames: 2},
					// The tetrahedral backend rides the same study plan as
					// the paper's techniques.
					study.Config{Arch: "serial", Renderer: core.VolumeUnstructured, Sim: "kripke", Tasks: 1, ImageSize: img, N: n, Frames: 2},
				)
			}
		}
		studyOnce.dir, studyOnce.err = os.MkdirTemp("", "renderd-advisor-test-")
		if studyOnce.err != nil {
			return
		}
		studyOnce.rows, studyOnce.err = study.Run(plan, nil)
	})
	if studyOnce.err != nil {
		t.Fatal(studyOnce.err)
	}
	path := filepath.Join(studyOnce.dir, t.Name()+"-models.json")
	if _, err := study.ExportModels(studyOnce.rows, "study-test", path); err != nil {
		t.Fatal(err)
	}
	samples := study.Samples(studyOnce.rows)
	set, err := core.FitModels(samples)
	if err != nil {
		t.Fatal(err)
	}
	return path, set, core.CalibrateMapping(samples)
}

// advisorServer serves renderd's full route table over httptest, in
// front of a serving subsystem built on engine with cfg.
func advisorServer(t *testing.T, engine *advisor.Engine, cfg serve.Config) (*httptest.Server, *serve.Server) {
	t.Helper()
	srv := serve.New(engine, cfg)
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(newWebServer(srv, nil).handler())
	t.Cleanup(ts.Close)
	return ts, srv
}

// testServer serves the exported registry over httptest, calibration
// off.
func testServer(t *testing.T) (*httptest.Server, string, *core.ModelSet, core.Mapping) {
	t.Helper()
	path, set, mp := studyRegistry(t)
	reg := registry.New(0)
	if err := reg.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	ts, _ := advisorServer(t, advisor.New(reg), serve.Config{ObserveQueue: -1})
	return ts, path, set, mp
}

func postJSON(t *testing.T, ts *httptest.Server, path string, req, resp any) int {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	r, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if resp != nil {
		if err := json.NewDecoder(r.Body).Decode(resp); err != nil {
			t.Fatalf("%s: decoding %T: %v", path, resp, err)
		}
	}
	return r.StatusCode
}

// TestFeasibilityServedFromExportedRegistry is the subsystem's acceptance
// test: renderd answers /v1/feasibility from a registry JSON exported by
// the study pipeline, and the numbers match core.ModelSet.ImagesInBudget
// on the in-memory fit exactly.
func TestFeasibilityServedFromExportedRegistry(t *testing.T) {
	ts, _, set, mp := testServer(t)
	sizes := []int{64, 128, 256, 512}
	req := advisor.FeasibilityRequest{
		Arch: "serial", Renderer: "raytracer", N: 16, Tasks: 1,
		BudgetSeconds: 10, Sizes: sizes, Images: 100,
	}
	var resp advisor.FeasibilityResponse
	if code := postJSON(t, ts, "/v1/feasibility", req, &resp); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	want, err := set.ImagesInBudget("serial", core.RayTrace, mp, 16, 1, 10, sizes)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Points) != len(want) {
		t.Fatalf("points = %d", len(resp.Points))
	}
	for i, pt := range resp.Points {
		if pt.ImageSize != want[i].ImageSize {
			t.Errorf("point %d: size %d want %d", i, pt.ImageSize, want[i].ImageSize)
		}
		if pt.Images != want[i].Images {
			t.Errorf("size %d: images %v, in-memory fit says %v", pt.ImageSize, pt.Images, want[i].Images)
		}
		if pt.PerImageSeconds != want[i].PerImage {
			t.Errorf("size %d: per-image %v, in-memory fit says %v", pt.ImageSize, pt.PerImageSeconds, want[i].PerImage)
		}
		if pt.Feasible == nil {
			t.Errorf("size %d: feasible missing", pt.ImageSize)
		}
	}
}

func TestPredictEndpointSingleAndBatch(t *testing.T) {
	ts, _, set, mp := testServer(t)
	req := advisor.PredictRequest{Arch: "serial", Renderer: "volume", N: 12, Tasks: 1, Width: 128}
	var resp advisor.PredictResponse
	if code := postJSON(t, ts, "/v1/predict", req, &resp); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	in := mp.Map(core.Config{N: 12, Tasks: 1, Width: 128, Height: 128, Renderer: core.Volume})
	if want := set.Models[core.Key("serial", core.Volume)].Predict(in); resp.RenderSeconds != want {
		t.Errorf("render = %v want %v", resp.RenderSeconds, want)
	}

	// Batch: an array body answers positionally, isolating bad elements.
	batch := []advisor.PredictRequest{req, {Arch: "nope", Renderer: "volume", N: 12, Width: 128}}
	var items []advisor.BatchItem
	if code := postJSON(t, ts, "/v1/predict", batch, &items); code != http.StatusOK {
		t.Fatalf("batch status %d", code)
	}
	if len(items) != 2 || items[0].Response == nil || items[1].Error == "" {
		t.Fatalf("batch items: %+v", items)
	}
	if items[0].Response.RenderSeconds != resp.RenderSeconds {
		t.Error("batch and single disagree")
	}

	// Unknown models are 404, malformed bodies 400.
	if code := postJSON(t, ts, "/v1/predict", advisor.PredictRequest{Arch: "gpu", Renderer: "volume", N: 12, Width: 64}, nil); code != http.StatusNotFound {
		t.Errorf("unknown model status %d", code)
	}
	r, err := ts.Client().Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader([]byte("{oops")))
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body status %d", r.StatusCode)
	}

	// Oversized bodies are a size problem (413), not a syntax problem.
	huge := bytes.Repeat([]byte(" "), 5<<20)
	r, err = ts.Client().Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body status %d", r.StatusCode)
	}
}

func TestModelsHealthzMetricsEndpoints(t *testing.T) {
	ts, _, set, _ := testServer(t)

	var models serve.ModelsBody
	r, err := ts.Client().Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(r.Body).Decode(&models); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if len(models.Models) != len(set.Models) || models.Source != "study-test" {
		t.Errorf("models: %d source %q", len(models.Models), models.Source)
	}
	if len(models.Archs) != 1 || models.Archs[0] != "serial" {
		t.Errorf("archs = %v", models.Archs)
	}
	for _, m := range models.Models {
		if m.Fit.N == 0 || len(m.Fit.Coef) == 0 {
			t.Errorf("model %s/%s missing diagnostics", m.Arch, m.Renderer)
		}
	}

	var hz healthzBody
	r, err = ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(r.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if hz.Status != "ok" || hz.Models != len(set.Models) || hz.Generation != 1 {
		t.Errorf("healthz: %+v", hz)
	}

	// Metrics reflect traffic served so far.
	postJSON(t, ts, "/v1/predict", advisor.PredictRequest{Arch: "serial", Renderer: "volume", N: 12, Width: 64}, nil)
	var mb metricsBody
	r, err = ts.Client().Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(r.Body).Decode(&mb); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	found := false
	for _, op := range mb.Ops {
		if op.Op == advisor.OpPredict && op.Count >= 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("metrics missing predict traffic: %+v", mb.Ops)
	}

	// The Prometheus exposition renders the same snapshot and validates
	// against the text format.
	r, err = ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(r.Body)
	r.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidatePromText(string(raw)); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, raw)
	}
	for _, want := range []string{"renderd_generation ", "renderd_uptime_seconds "} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

func TestReloadEndpointHotSwapsModels(t *testing.T) {
	ts, path, _, _ := testServer(t)

	// Republish the registry (same content) and reload: generation bumps.
	snap, err := registry.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	snap.Source = "republished"
	if err := snap.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	var hz healthzBody
	if code := postJSON(t, ts, "/v1/reload", struct{}{}, &hz); code != http.StatusOK {
		t.Fatalf("reload status %d", code)
	}
	if hz.Generation != 2 {
		t.Errorf("generation after reload = %d", hz.Generation)
	}
	var models serve.ModelsBody
	r, err := ts.Client().Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(r.Body).Decode(&models); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if models.Source != "republished" {
		t.Errorf("source after reload = %q", models.Source)
	}

	// A corrupt file fails the reload but the old models keep serving.
	if err := os.WriteFile(path, []byte("{bad"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := postJSON(t, ts, "/v1/reload", struct{}{}, nil); code != http.StatusConflict {
		t.Errorf("corrupt reload status %d", code)
	}
	if code := postJSON(t, ts, "/v1/predict", advisor.PredictRequest{Arch: "serial", Renderer: "volume", N: 12, Width: 64}, nil); code != http.StatusOK {
		t.Errorf("serving broke after failed reload: %d", code)
	}
}

func TestMaxTrianglesEndpoint(t *testing.T) {
	ts, _, _, _ := testServer(t)
	var resp advisor.MaxTrianglesResponse
	code := postJSON(t, ts, "/v1/max_triangles", advisor.MaxTrianglesRequest{
		Arch: "serial", Renderer: "raytracer", Tasks: 1, ImageSize: 256,
		PerImageBudgetSeconds: 1, Renderings: 100,
	}, &resp)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if resp.N <= 0 || resp.Triangles != 12*float64(resp.N)*float64(resp.N) {
		t.Errorf("response: %+v", resp)
	}
}

func TestEmptyRegistryAnswers503(t *testing.T) {
	ts, _ := advisorServer(t, advisor.New(registry.New(0)), serve.Config{ObserveQueue: -1})
	r, err := ts.Client().Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz status %d", r.StatusCode)
	}
	r, err = ts.Client().Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("models status %d", r.StatusCode)
	}
}

// TestObservationsRoundTripRefitsServedModels is the continuous-
// calibration acceptance test: posting measured samples to
// POST /v1/observations must bump the served model generation and change
// subsequent /v1/predict answers — no restart, no explicit reload.
func TestObservationsRoundTripRefitsServedModels(t *testing.T) {
	path, _, _ := studyRegistry(t)
	reg := registry.New(0)
	if err := reg.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	engine := advisor.New(reg)
	engine.SetObserver(&study.Calibrator{
		Source:     "test-observations",
		RefitEvery: 1,
		Base: func() (*registry.Snapshot, uint64) {
			return reg.Snapshot(), reg.Generation()
		},
		Publish: func(s *registry.Snapshot, baseGen uint64) error {
			return reg.PublishIf(s, baseGen)
		},
	})
	ts, srv := advisorServer(t, engine, serve.Config{ObserveQueue: 16, Logf: t.Logf})

	predictReq := advisor.PredictRequest{Arch: "serial", Renderer: "volume", N: 12, Tasks: 1, Width: 128}
	var before advisor.PredictResponse
	if code := postJSON(t, ts, "/v1/predict", predictReq, &before); code != http.StatusOK {
		t.Fatalf("baseline predict status %d", code)
	}

	// Plant a dramatically slower volume model for the served arch: the
	// refit over these samples must change the served answer by orders of
	// magnitude.
	var obs []advisor.Observation
	for i := 0; i < 8; i++ {
		ap := float64(4000 + 1000*i)
		cs := float64(10 + 2*i)
		spr := float64(80 + 15*i)
		obs = append(obs, advisor.Observation{
			Arch: "serial", Renderer: "volume",
			Inputs:        core.Inputs{O: cs * cs * cs, AP: ap, SPR: spr, CS: cs, Pixels: 4 * ap, AvgAP: ap, Tasks: 1},
			RenderSeconds: 1e-4*ap*cs + 1e-5*ap*spr + 0.5,
		})
	}
	var accepted struct {
		Accepted   int    `json:"accepted"`
		Queued     bool   `json:"queued"`
		Generation uint64 `json:"generation"`
	}
	if code := postJSON(t, ts, "/v1/observations", obs, &accepted); code != http.StatusAccepted {
		t.Fatalf("observations status %d", code)
	}
	if accepted.Accepted != len(obs) || !accepted.Queued {
		t.Fatalf("accepted body: %+v", accepted)
	}

	// The refit runs in the background; Close drains the calibration
	// queue, so the generation has bumped once it returns. The advisor
	// routes answer from the engine and keep serving.
	srv.Close()
	var hz healthzBody
	if code := getJSON(t, ts, "/healthz", &hz); code != http.StatusOK {
		t.Fatalf("healthz status %d", code)
	}
	gen := hz.Generation
	if gen <= accepted.Generation {
		t.Fatalf("generation never bumped past %d", accepted.Generation)
	}

	// The served answer changed, by roughly the planted slowdown.
	var after advisor.PredictResponse
	if code := postJSON(t, ts, "/v1/predict", predictReq, &after); code != http.StatusOK {
		t.Fatalf("post-refit predict status %d", code)
	}
	if after.RenderSeconds <= 10*before.RenderSeconds {
		t.Errorf("render prediction %v -> %v: refit did not take effect", before.RenderSeconds, after.RenderSeconds)
	}

	// The generation is visible in /v1/metrics and /v1/models too, and
	// the other models survived the merge.
	var mb metricsBody
	r, err := ts.Client().Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(r.Body).Decode(&mb); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if mb.Generation != gen {
		t.Errorf("metrics generation %d, want %d", mb.Generation, gen)
	}
	var models serve.ModelsBody
	r, err = ts.Client().Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(r.Body).Decode(&models); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if models.Generation != gen || models.Source != "test-observations" {
		t.Errorf("models: generation %d source %q", models.Generation, models.Source)
	}
	if len(models.Models) < 2 {
		t.Errorf("merge dropped models: %d served", len(models.Models))
	}
	if code := postJSON(t, ts, "/v1/predict",
		advisor.PredictRequest{Arch: "serial", Renderer: "raytracer", N: 12, Tasks: 1, Width: 128}, nil); code != http.StatusOK {
		t.Errorf("carried-over raytracer model gone: %d", code)
	}
}

// TestObservationsValidationAndDisabled: malformed batches are rejected
// whole with a 400, and a server without calibration answers 503.
func TestObservationsValidationAndDisabled(t *testing.T) {
	path, _, _ := studyRegistry(t)
	reg := registry.New(0)
	if err := reg.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	engine := advisor.New(reg)
	engine.SetObserver(&study.Calibrator{
		Source:  "x",
		Publish: func(s *registry.Snapshot, baseGen uint64) error { return reg.PublishIf(s, baseGen) },
	})
	ts, _ := advisorServer(t, engine, serve.Config{ObserveQueue: 4, Logf: t.Logf})

	bad := []advisor.Observation{{Arch: "serial", Renderer: "volume", RenderSeconds: -1}}
	if code := postJSON(t, ts, "/v1/observations", bad, nil); code != http.StatusBadRequest {
		t.Errorf("invalid observation status %d", code)
	}
	// A single (non-array) observation object is accepted too.
	one := advisor.Observation{
		Arch: "serial", Renderer: "volume",
		Inputs:        core.Inputs{O: 1000, AP: 5000, SPR: 100, CS: 10, Pixels: 20000, AvgAP: 5000, Tasks: 1},
		RenderSeconds: 0.01,
	}
	if code := postJSON(t, ts, "/v1/observations", one, nil); code != http.StatusAccepted {
		t.Errorf("single observation status %d", code)
	}

	// Calibration disabled: the endpoint explains itself with a 503.
	plain, _ := advisorServer(t, advisor.New(reg), serve.Config{ObserveQueue: -1})
	r, err := plain.Client().Post(plain.URL+"/v1/observations", "application/json", bytes.NewReader([]byte("[]")))
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("disabled observations status %d", r.StatusCode)
	}
}

// TestUnstructuredVolumeServedEndToEnd is the scenario seam's acceptance
// test: the volume-unstructured backend — one row in core's spec table
// and one in scenario's backend map, never special-cased in study,
// repro, or advisor code — flows plan -> measurement -> fit -> registry
// snapshot -> /v1/predict, and the served numbers match the in-memory
// fit exactly.
func TestUnstructuredVolumeServedEndToEnd(t *testing.T) {
	ts, _, set, mp := testServer(t)
	m, ok := set.Models[core.Key("serial", core.VolumeUnstructured)]
	if !ok {
		t.Fatalf("no fitted model for %s; corpus groups: %d", core.VolumeUnstructured, len(set.Models))
	}
	req := advisor.PredictRequest{
		Arch: "serial", Renderer: string(core.VolumeUnstructured),
		N: 12, Tasks: 1, Width: 96,
	}
	var resp advisor.PredictResponse
	if code := postJSON(t, ts, "/v1/predict", req, &resp); code != http.StatusOK {
		t.Fatalf("predict status %d", code)
	}
	in := mp.Map(core.Config{N: 12, Tasks: 1, Width: 96, Height: 96, Renderer: core.VolumeUnstructured})
	if want := m.Predict(in); resp.RenderSeconds != want {
		t.Errorf("served render_seconds %v, in-memory fit predicts %v", resp.RenderSeconds, want)
	}
	if resp.PerImageSeconds <= 0 {
		t.Errorf("per_image_seconds = %v, want positive", resp.PerImageSeconds)
	}
	// The snapshot served by /v1/models names the backend too.
	var models serve.ModelsBody
	r, err := ts.Client().Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if err := json.NewDecoder(r.Body).Decode(&models); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range models.Models {
		if d.Renderer == string(core.VolumeUnstructured) {
			found = true
		}
	}
	if !found {
		t.Error("/v1/models does not list the volume-unstructured model")
	}
}

// TestPredictRejectsUnregisteredRenderer: a renderer with no registered
// model spec answers a clear 400 naming the registered alternatives; a
// registered spec with no fitted model in the snapshot answers 404.
func TestPredictRejectsUnregisteredRenderer(t *testing.T) {
	ts, _, _, _ := testServer(t)
	var eb errorBody
	code := postJSON(t, ts, "/v1/predict",
		advisor.PredictRequest{Arch: "serial", Renderer: "teapot", N: 12, Tasks: 1, Width: 64}, &eb)
	if code != http.StatusBadRequest {
		t.Errorf("unregistered renderer status %d, want 400", code)
	}
	if !strings.Contains(eb.Error, "teapot") || !strings.Contains(eb.Error, string(core.RayTrace)) {
		t.Errorf("error does not name the bad renderer and the registered ones: %q", eb.Error)
	}
	// rasterizer has a registered spec but no model in this snapshot.
	code = postJSON(t, ts, "/v1/predict",
		advisor.PredictRequest{Arch: "serial", Renderer: string(core.Raster), N: 12, Tasks: 1, Width: 64}, &eb)
	if code != http.StatusNotFound {
		t.Errorf("model-less renderer status %d, want 404", code)
	}
	// The compositing pseudo-renderer has a spec but is never served
	// per-architecture: 400, not a misleading "no model" 404.
	code = postJSON(t, ts, "/v1/predict",
		advisor.PredictRequest{Arch: "serial", Renderer: string(core.Compositing), N: 12, Tasks: 1, Width: 64}, &eb)
	if code != http.StatusBadRequest {
		t.Errorf("compositing predict status %d, want 400", code)
	}
	// Feasibility applies the same validation as predict.
	code = postJSON(t, ts, "/v1/feasibility", advisor.FeasibilityRequest{
		Arch: "serial", Renderer: "teapot", N: 12, BudgetSeconds: 10, Sizes: []int{64},
	}, &eb)
	if code != http.StatusBadRequest || !strings.Contains(eb.Error, "teapot") {
		t.Errorf("feasibility unknown renderer: status %d, error %q", code, eb.Error)
	}
	// Observations for unregistered renderers are rejected up front too.
	if _, err := advisor.SamplesFromObservations([]advisor.Observation{
		{Arch: "serial", Renderer: "teapot", RenderSeconds: 0.1},
	}); err == nil || !strings.Contains(err.Error(), "teapot") {
		t.Errorf("unregistered observation renderer not rejected clearly: %v", err)
	}
}
