package advisor

import (
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"

	"insitu/internal/core"
	"insitu/internal/registry"
)

// paperArchs are the device package's execution profiles, the study's
// architectures ("cpu-scalar" is the held-out Table 15 kernel set).
var paperArchs = []string{"serial", "cpu", "cpu-scalar"}

// syntheticSamples plants per-architecture coefficients so every paper
// architecture gets a well-conditioned fit.
func syntheticSamples(archs []string, n int, seed int64) []core.Sample {
	rng := rand.New(rand.NewSource(seed))
	var out []core.Sample
	for ai, arch := range archs {
		// Architectures differ by a speed factor, as in the paper.
		f := 1.0 / float64(ai+1)
		for i := 0; i < n; i++ {
			tasks := []int{1, 2, 4}[rng.Intn(3)]
			pix := float64(10000 + rng.Intn(90000))
			ap := 0.5 * pix / math.Cbrt(float64(tasks))
			objects := float64(2000 + rng.Intn(50000))
			noise := func() float64 { return 1 + 0.01*rng.NormFloat64() }

			rtIn := core.Inputs{O: objects, AP: ap, Pixels: pix, AvgAP: ap * 0.9, Tasks: tasks}
			rt := core.Sample{
				Arch: arch, Renderer: core.RayTrace, In: rtIn,
				BuildTime:  f * (3e-8*objects + 1e-4) * noise(),
				RenderTime: f * (2e-9*ap*math.Log2(objects) + 4e-8*ap + 2e-4) * noise(),
			}
			if tasks > 1 {
				rt.CompositeTime = (1.5e-8*rtIn.AvgAP + 5e-9*pix + 1e-4) * noise()
			}
			out = append(out, rt)

			vo := math.Min(ap, objects)
			raIn := core.Inputs{O: objects, AP: ap, VO: vo, PPT: 4 * ap / vo, Pixels: pix, AvgAP: ap * 0.9, Tasks: tasks}
			ra := core.Sample{
				Arch: arch, Renderer: core.Raster, In: raIn,
				RenderTime: f * (1e-8*objects + 2e-9*4*ap + 1e-4) * noise(),
			}
			if tasks > 1 {
				ra.CompositeTime = (1.5e-8*raIn.AvgAP + 5e-9*pix + 1e-4) * noise()
			}
			out = append(out, ra)

			cs := float64(32 + rng.Intn(96))
			spr := 100 / math.Cbrt(float64(tasks))
			vIn := core.Inputs{O: cs * cs * cs, AP: ap, SPR: spr, CS: cs, Pixels: pix, AvgAP: ap * 0.9, Tasks: tasks}
			v := core.Sample{
				Arch: arch, Renderer: core.Volume, In: vIn,
				RenderTime: f * (5e-10*ap*cs + 4e-9*ap*spr + 2e-4) * noise(),
			}
			if tasks > 1 {
				v.CompositeTime = (1.5e-8*vIn.AvgAP + 5e-9*pix + 1e-4) * noise()
			}
			out = append(out, v)
		}
	}
	return out
}

// testEngine builds an engine over a registry fitted to the given
// architectures, returning the underlying set and mapping for comparison.
func testEngine(tb testing.TB, archs []string) (*Engine, *core.ModelSet, core.Mapping) {
	tb.Helper()
	samples := syntheticSamples(archs, 40, 7)
	set, err := core.FitModels(samples)
	if err != nil {
		tb.Fatal(err)
	}
	mp := core.CalibrateMapping(samples)
	reg := registry.New(0)
	if err := reg.Load(registry.FromModelSet(set, mp, "test")); err != nil {
		tb.Fatal(err)
	}
	return New(reg), set, mp
}

func TestPredictMatchesModelSet(t *testing.T) {
	e, set, mp := testEngine(t, []string{"cpu"})
	req := PredictRequest{Arch: "cpu", Renderer: "raytracer", N: 64, Tasks: 8, Width: 1024, Renderings: 100}
	resp, err := e.Predict(req)
	if err != nil {
		t.Fatal(err)
	}
	in := mp.Map(core.Config{N: 64, Tasks: 8, Width: 1024, Height: 1024, Renderer: core.RayTrace})
	m := set.Models[core.Key("cpu", core.RayTrace)]
	if resp.RenderSeconds != m.Predict(in) {
		t.Errorf("render = %v want %v", resp.RenderSeconds, m.Predict(in))
	}
	if resp.BuildSeconds != m.PredictBuild(in) {
		t.Errorf("build = %v want %v", resp.BuildSeconds, m.PredictBuild(in))
	}
	if resp.CompositeSeconds != set.Compositing.Predict(in) {
		t.Errorf("composite = %v want %v", resp.CompositeSeconds, set.Compositing.Predict(in))
	}
	want := resp.RenderSeconds + resp.CompositeSeconds + resp.BuildSeconds/100
	if math.Abs(resp.PerImageSeconds-want) > 1e-18 {
		t.Errorf("per image = %v want %v", resp.PerImageSeconds, want)
	}
	if resp.ImagesPerSecond <= 0 {
		t.Errorf("throughput = %v", resp.ImagesPerSecond)
	}

	// Height defaults to Width; renderings default to 1 (full build cost).
	resp1, err := e.Predict(PredictRequest{Arch: "cpu", Renderer: "raytracer", N: 64, Tasks: 8, Width: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if resp1.PerImageSeconds <= resp.PerImageSeconds {
		t.Error("unamortized build should cost more per image")
	}
}

// TestPredictTetrahedralVolume: the advisor costs a volume-unstructured
// configuration through its own spec, mapping O to six tets per cell.
func TestPredictTetrahedralVolume(t *testing.T) {
	samples := syntheticSamples([]string{"cpu"}, 40, 7)
	set, err := core.FitModels(samples)
	if err != nil {
		t.Fatal(err)
	}
	snap := registry.FromModelSet(set, core.CalibrateMapping(samples), "test")
	snap.Models = append(snap.Models, registry.ModelDoc{
		Arch: "cpu", Renderer: string(core.VolumeUnstructured),
		Fit: registry.FitDoc{Coef: []float64{2e-8, 3e-9, 1e-4}},
	})
	reg := registry.New(0)
	if err := reg.Load(snap); err != nil {
		t.Fatal(err)
	}
	resp, err := New(reg).Predict(PredictRequest{Arch: "cpu", Renderer: string(core.VolumeUnstructured), N: 10, Tasks: 1, Width: 100})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Inputs.O != 6000 {
		t.Errorf("mapped O = %v, want 6*N^3 = 6000", resp.Inputs.O)
	}
	if resp.Inputs.SPR <= 0 || resp.Inputs.VO != 0 {
		t.Errorf("volume inputs not mapped: SPR=%v VO=%v", resp.Inputs.SPR, resp.Inputs.VO)
	}
	if resp.RenderSeconds <= 0 {
		t.Errorf("render = %v", resp.RenderSeconds)
	}
}

func TestPredictValidation(t *testing.T) {
	e, _, _ := testEngine(t, []string{"cpu"})
	cases := []PredictRequest{
		{Renderer: "raytracer", N: 10, Width: 100},             // missing arch
		{Arch: "cpu", N: 10, Width: 100},                       // missing renderer
		{Arch: "cpu", Renderer: "raytracer", Width: 100},       // missing n
		{Arch: "cpu", Renderer: "raytracer", N: 10},            // missing width
		{Arch: "gpu", Renderer: "raytracer", N: 10, Width: 64}, // unknown model
		{Arch: "cpu", Renderer: "mystery", N: 10, Width: 64},   // unknown renderer
	}
	for i, req := range cases {
		if _, err := e.Predict(req); err == nil {
			t.Errorf("case %d accepted: %+v", i, req)
		}
	}
}

func TestPredictBatchAlignsAndIsolatesErrors(t *testing.T) {
	e, _, _ := testEngine(t, []string{"cpu"})
	reqs := []PredictRequest{
		{Arch: "cpu", Renderer: "volume", N: 32, Tasks: 2, Width: 512},
		{Arch: "nope", Renderer: "volume", N: 32, Width: 512},
		{Arch: "cpu", Renderer: "rasterizer", N: 48, Tasks: 4, Width: 256},
	}
	items := e.PredictBatch(reqs)
	if len(items) != 3 {
		t.Fatalf("items = %d", len(items))
	}
	if items[0].Response == nil || items[0].Error != "" {
		t.Errorf("item 0: %+v", items[0])
	}
	if items[1].Response != nil || !strings.Contains(items[1].Error, "no model") {
		t.Errorf("item 1: %+v", items[1])
	}
	if items[2].Response == nil || items[2].Response.Renderer != "rasterizer" {
		t.Errorf("item 2: %+v", items[2])
	}
}

// TestFeasibilityMatchesImagesInBudget pins the engine's arithmetic to the
// core implementation the repro pipeline uses for Figure 14.
func TestFeasibilityMatchesImagesInBudget(t *testing.T) {
	e, set, mp := testEngine(t, []string{"cpu"})
	sizes := []int{256, 512, 1024, 2048}
	for _, r := range []core.Renderer{core.RayTrace, core.Raster, core.Volume} {
		resp, err := e.Feasibility(FeasibilityRequest{
			Arch: "cpu", Renderer: string(r), N: 128, Tasks: 4,
			BudgetSeconds: 60, Sizes: sizes,
		})
		if err != nil {
			t.Fatal(err)
		}
		want, err := set.ImagesInBudget("cpu", r, mp, 128, 4, 60, sizes)
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Points) != len(want) {
			t.Fatalf("%s: points = %d", r, len(resp.Points))
		}
		for i, pt := range resp.Points {
			if pt.Images != want[i].Images || pt.PerImageSeconds != want[i].PerImage {
				t.Errorf("%s size %d: got (%v, %v) want (%v, %v)", r, pt.ImageSize,
					pt.Images, pt.PerImageSeconds, want[i].Images, want[i].PerImage)
			}
		}
	}
}

func TestFeasibilityRequestedImages(t *testing.T) {
	e, _, _ := testEngine(t, []string{"cpu"})
	resp, err := e.Feasibility(FeasibilityRequest{
		Arch: "cpu", Renderer: "volume", N: 64, Tasks: 2,
		BudgetSeconds: 60, Sizes: []int{128, 4096}, Images: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range resp.Points {
		if pt.Feasible == nil {
			t.Fatalf("size %d: feasible not populated", pt.ImageSize)
		}
		if got, want := *pt.Feasible, pt.Images >= 50; got != want {
			t.Errorf("size %d: feasible = %v with %v images", pt.ImageSize, got, pt.Images)
		}
	}
	// Small images must fit 50 in a minute on the synthetic models; the
	// check is meaningful only if the two sizes disagree or both answer.
	if !*resp.Points[0].Feasible {
		t.Errorf("128px: only %v images in 60s", resp.Points[0].Images)
	}

	// Zero and negative budgets yield zero images.
	for _, budget := range []float64{0, -5} {
		resp, err := e.Feasibility(FeasibilityRequest{
			Arch: "cpu", Renderer: "volume", N: 64, Tasks: 1,
			BudgetSeconds: budget, Sizes: []int{256},
		})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Points[0].Images != 0 {
			t.Errorf("budget %v: images = %v", budget, resp.Points[0].Images)
		}
	}
}

func TestFeasibilityValidation(t *testing.T) {
	e, _, _ := testEngine(t, []string{"cpu"})
	bad := []FeasibilityRequest{
		{Renderer: "volume", N: 10, BudgetSeconds: 1, Sizes: []int{64}},
		{Arch: "cpu", Renderer: "volume", BudgetSeconds: 1, Sizes: []int{64}},
		{Arch: "cpu", Renderer: "volume", N: 10, BudgetSeconds: 1, Sizes: []int{0}},
	}
	for i, req := range bad {
		if _, err := e.Feasibility(req); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	// Empty sizes is a valid question with an empty answer.
	resp, err := e.Feasibility(FeasibilityRequest{Arch: "cpu", Renderer: "volume", N: 10, BudgetSeconds: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Points) != 0 {
		t.Errorf("points = %d", len(resp.Points))
	}
}

func TestMaxTriangles(t *testing.T) {
	e, _, _ := testEngine(t, []string{"cpu"})
	small, err := e.MaxTriangles(MaxTrianglesRequest{
		Arch: "cpu", Renderer: "raytracer", Tasks: 4, ImageSize: 512,
		PerImageBudgetSeconds: 0.05, Renderings: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	big, err := e.MaxTriangles(MaxTrianglesRequest{
		Arch: "cpu", Renderer: "raytracer", Tasks: 4, ImageSize: 512,
		PerImageBudgetSeconds: 5, Renderings: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if big.N < small.N {
		t.Errorf("bigger budget allows less geometry: %d vs %d", big.N, small.N)
	}
	if big.N > 0 {
		if big.Triangles != 12*float64(big.N)*float64(big.N) {
			t.Errorf("triangles = %v for N = %d", big.Triangles, big.N)
		}
		if big.TotalTriangles != 4*big.Triangles {
			t.Errorf("total = %v", big.TotalTriangles)
		}
		if big.PerImageSeconds > 5 {
			t.Errorf("reported cost %v exceeds budget", big.PerImageSeconds)
		}
	}

	// A hopeless budget answers zero rather than erroring.
	zero, err := e.MaxTriangles(MaxTrianglesRequest{
		Arch: "cpu", Renderer: "raytracer", Tasks: 1, ImageSize: 4096,
		PerImageBudgetSeconds: 1e-12,
	})
	if err != nil {
		t.Fatal(err)
	}
	if zero.N != 0 || zero.Triangles != 0 {
		t.Errorf("zero budget: %+v", zero)
	}

	if _, err := e.MaxTriangles(MaxTrianglesRequest{
		Arch: "cpu", Renderer: "volume", ImageSize: 512, PerImageBudgetSeconds: 1,
	}); err == nil {
		t.Error("volume accepted by max_triangles")
	}
}

func TestMetricsCountersAndErrors(t *testing.T) {
	e, _, _ := testEngine(t, paperArchs)
	for i := 0; i < 3; i++ {
		if _, err := e.Predict(PredictRequest{Arch: "cpu-scalar", Renderer: "volume", N: 32, Width: 256}); err != nil {
			t.Fatal(err)
		}
	}
	e.Predict(PredictRequest{}) // error
	if _, err := e.Feasibility(FeasibilityRequest{Arch: "serial", Renderer: "raytracer", N: 16, BudgetSeconds: 10, Sizes: []int{128}}); err != nil {
		t.Fatal(err)
	}
	byOp := map[Op]OpStats{}
	for _, s := range e.Metrics() {
		byOp[s.Op] = s
	}
	if s := byOp[OpPredict]; s.Count != 4 || s.Errors != 1 {
		t.Errorf("predict stats: %+v", s)
	}
	if s := byOp[OpFeasibility]; s.Count != 1 || s.Errors != 0 {
		t.Errorf("feasibility stats: %+v", s)
	}
	if s := byOp[OpMaxTriangles]; s.Count != 0 {
		t.Errorf("max_triangles stats: %+v", s)
	}
}

// degenerateEngine serves a registry whose raytracer fit predicts NaN
// (a NaN coefficient — the worst case a pathological corpus can produce).
func degenerateEngine(t *testing.T) *Engine {
	t.Helper()
	samples := syntheticSamples([]string{"cpu"}, 40, 7)
	set, err := core.FitModels(samples)
	if err != nil {
		t.Fatal(err)
	}
	set.Models[core.Key("cpu", core.RayTrace)].Fit.Coef[0] = math.NaN()
	reg := registry.New(0)
	if err := reg.Load(registry.FromModelSet(set, core.CalibrateMapping(samples), "degenerate")); err != nil {
		t.Fatal(err)
	}
	return New(reg)
}

// TestNonFinitePredictionsAreSanitized: degenerate fits must never leak
// NaN or Inf into a response — encoding/json rejects them, which used to
// turn the whole renderd answer into an opaque 500. Sanitized responses
// carry flagged zeros and marshal cleanly.
func TestNonFinitePredictionsAreSanitized(t *testing.T) {
	e := degenerateEngine(t)

	resp, err := e.Predict(PredictRequest{Arch: "cpu", Renderer: "raytracer", N: 64, Tasks: 2, Width: 512})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.NonFinite {
		t.Error("NaN prediction not flagged")
	}
	for name, v := range map[string]float64{
		"render": resp.RenderSeconds, "build": resp.BuildSeconds,
		"composite": resp.CompositeSeconds, "per_image": resp.PerImageSeconds,
		"images_per_second": resp.ImagesPerSecond,
	} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s = %v leaked through sanitization", name, v)
		}
	}
	if _, err := json.Marshal(resp); err != nil {
		t.Errorf("sanitized predict response does not marshal: %v", err)
	}

	fresp, err := e.Feasibility(FeasibilityRequest{
		Arch: "cpu", Renderer: "raytracer", N: 64, Tasks: 2,
		BudgetSeconds: 60, Sizes: []int{256, 512},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range fresp.Points {
		if !pt.NonFinite {
			t.Errorf("size %d: NaN curve point not flagged", pt.ImageSize)
		}
		if math.IsNaN(pt.Images) || math.IsInf(pt.Images, 0) ||
			math.IsNaN(pt.PerImageSeconds) || math.IsInf(pt.PerImageSeconds, 0) {
			t.Errorf("size %d: non-finite point %+v", pt.ImageSize, pt)
		}
	}
	if _, err := json.Marshal(fresp); err != nil {
		t.Errorf("sanitized feasibility response does not marshal: %v", err)
	}

	mresp, err := e.MaxTriangles(MaxTrianglesRequest{
		Arch: "cpu", Renderer: "raytracer", Tasks: 1, ImageSize: 256, PerImageBudgetSeconds: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := json.Marshal(mresp); err != nil {
		t.Errorf("max_triangles response does not marshal: %v", err)
	}

	// A healthy engine never sets the flag.
	healthy, _, _ := testEngine(t, []string{"cpu"})
	hresp, err := healthy.Predict(PredictRequest{Arch: "cpu", Renderer: "raytracer", N: 64, Tasks: 2, Width: 512})
	if err != nil {
		t.Fatal(err)
	}
	if hresp.NonFinite {
		t.Error("healthy prediction flagged as non-finite")
	}
}

// fakeObserver records the samples it is handed.
type fakeObserver struct {
	batches [][]core.Sample
	corpus  int
	publish bool
	reason  string
	err     error
}

func (f *fakeObserver) Observe(samples []core.Sample) (int, bool, string, error) {
	f.batches = append(f.batches, samples)
	f.corpus += len(samples)
	return f.corpus, f.publish, f.reason, f.err
}

func TestObservationValidation(t *testing.T) {
	good := Observation{
		Arch: "cpu", Renderer: "volume",
		Inputs:        core.Inputs{O: 1000, AP: 5000, SPR: 100, CS: 10, Pixels: 10000, AvgAP: 5000, Tasks: 2},
		RenderSeconds: 0.01, CompositeSeconds: 0.001,
	}
	if _, err := SamplesFromObservations([]Observation{good}); err != nil {
		t.Fatalf("valid observation rejected: %v", err)
	}
	bad := []struct {
		name   string
		mutate func(*Observation)
	}{
		{"missing arch", func(o *Observation) { o.Arch = "" }},
		{"unknown renderer", func(o *Observation) { o.Renderer = "splatter" }},
		{"compositing pseudo-renderer", func(o *Observation) { o.Renderer = "compositing" }},
		{"zero render time", func(o *Observation) { o.RenderSeconds = 0 }},
		{"negative render time", func(o *Observation) { o.RenderSeconds = -1 }},
		{"NaN render time", func(o *Observation) { o.RenderSeconds = math.NaN() }},
		{"Inf input", func(o *Observation) { o.Inputs.AP = math.Inf(1) }},
		{"negative composite", func(o *Observation) { o.CompositeSeconds = -0.1 }},
	}
	for _, tc := range bad {
		o := good
		tc.mutate(&o)
		if _, err := SamplesFromObservations([]Observation{o}); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
		// One bad element fails the whole batch.
		if _, err := SamplesFromObservations([]Observation{good, o}); err == nil {
			t.Errorf("%s: bad element hid inside a batch", tc.name)
		}
	}
	if _, err := SamplesFromObservations(nil); err == nil {
		t.Error("empty batch accepted")
	}
	// Tasks default to 1.
	o := good
	o.Inputs.Tasks = 0
	samples, err := SamplesFromObservations([]Observation{o})
	if err != nil {
		t.Fatal(err)
	}
	if samples[0].In.Tasks != 1 {
		t.Errorf("tasks = %d, want defaulted 1", samples[0].In.Tasks)
	}
}

func TestEngineObserve(t *testing.T) {
	e, _, _ := testEngine(t, []string{"cpu"})

	// Without an observer the operation is disabled.
	if _, err := e.Observe([]core.Sample{{Arch: "cpu", Renderer: core.Volume, RenderTime: 0.01}}); err == nil {
		t.Error("observe without an observer accepted")
	}

	obs := &fakeObserver{publish: true}
	e.SetObserver(obs)
	samples, err := SamplesFromObservations([]Observation{{
		Arch: "cpu", Renderer: "volume",
		Inputs:        core.Inputs{O: 1000, AP: 5000, SPR: 100, CS: 10, Pixels: 10000, AvgAP: 5000, Tasks: 1},
		RenderSeconds: 0.01,
	}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := e.Observe(samples)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Accepted != 1 || resp.CorpusSize != 1 || !resp.Published || resp.Generation != 1 {
		t.Errorf("response: %+v", resp)
	}
	if len(obs.batches) != 1 || len(obs.batches[0]) != 1 {
		t.Errorf("observer saw %v", obs.batches)
	}

	// The observe op shows up in metrics.
	found := false
	for _, s := range e.Metrics() {
		if s.Op == OpObserve && s.Count == 2 && s.Errors == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("observe metrics missing: %+v", e.Metrics())
	}
}
