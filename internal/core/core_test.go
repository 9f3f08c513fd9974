package core

import (
	"math"
	"math/rand"
	"testing"
)

// syntheticSamples generates study-like samples from a known generating
// process so fitting can be validated exactly.
func syntheticSamples(arch string, n int, seed int64) []Sample {
	rng := rand.New(rand.NewSource(seed))
	var out []Sample
	for i := 0; i < n; i++ {
		tasks := []int{1, 2, 4}[rng.Intn(3)]
		pix := float64(10000 + rng.Intn(90000))
		ap := 0.5 * pix / math.Cbrt(float64(tasks))
		objects := float64(2000 + rng.Intn(50000))
		noise := func() float64 { return 1 + 0.01*rng.NormFloat64() }

		// Ray tracing: planted coefficients.
		rtIn := Inputs{O: objects, AP: ap, Pixels: pix, AvgAP: ap * 0.9, Tasks: tasks}
		rt := Sample{
			Arch: arch, Renderer: RayTrace, In: rtIn,
			BuildTime:  (3e-8*objects + 1e-4) * noise(),
			RenderTime: (2e-9*ap*math.Log2(objects) + 4e-8*ap + 2e-4) * noise(),
		}
		if tasks > 1 {
			rt.CompositeTime = (1.5e-8*rtIn.AvgAP + 5e-9*pix + 1e-4) * noise()
		}
		out = append(out, rt)

		// Rasterization.
		vo := math.Min(ap, objects)
		ppt := 4 * ap / vo
		raIn := Inputs{O: objects, AP: ap, VO: vo, PPT: ppt, Pixels: pix, AvgAP: ap * 0.9, Tasks: tasks}
		ra := Sample{
			Arch: arch, Renderer: Raster, In: raIn,
			RenderTime: (1e-8*objects + 2e-9*vo*ppt + 1e-4) * noise(),
		}
		if tasks > 1 {
			ra.CompositeTime = (1.5e-8*raIn.AvgAP + 5e-9*pix + 1e-4) * noise()
		}
		out = append(out, ra)

		// Volume.
		cs := float64(32 + rng.Intn(96))
		spr := 100 / math.Cbrt(float64(tasks))
		vIn := Inputs{O: cs * cs * cs, AP: ap, SPR: spr, CS: cs, Pixels: pix, AvgAP: ap * 0.9, Tasks: tasks}
		v := Sample{
			Arch: arch, Renderer: Volume, In: vIn,
			RenderTime: (5e-10*ap*cs + 4e-9*ap*spr + 2e-4) * noise(),
		}
		if tasks > 1 {
			v.CompositeTime = (1.5e-8*vIn.AvgAP + 5e-9*pix + 1e-4) * noise()
		}
		out = append(out, v)
	}
	return out
}

func TestFitModelsRecoversGeneratingProcess(t *testing.T) {
	samples := syntheticSamples("cpu", 80, 11)
	set, err := FitModels(samples)
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Models) != 3 {
		t.Fatalf("models = %d", len(set.Models))
	}
	for k, m := range set.Models {
		if m.Fit.R2 < 0.98 {
			t.Errorf("%s: R2 = %v", k, m.Fit.R2)
		}
	}
	rt := set.Models[Key("cpu", RayTrace)]
	// Trace coefficients near the planted values.
	if math.Abs(rt.Fit.Coef[0]-2e-9) > 1e-9 {
		t.Errorf("rt c2 = %v", rt.Fit.Coef[0])
	}
	if rt.BuildFit == nil {
		t.Fatal("ray tracing should carry a build model")
	}
	if math.Abs(rt.BuildFit.Coef[0]-3e-8) > 1e-8 {
		t.Errorf("rt build c0 = %v", rt.BuildFit.Coef[0])
	}
	// Coefficients table layout: 5 for RT, 3 for others.
	if len(rt.Coefficients()) != 5 {
		t.Errorf("rt coefficients = %d", len(rt.Coefficients()))
	}
	if len(set.Models[Key("cpu", Raster)].Coefficients()) != 3 {
		t.Error("raster coefficients != 3")
	}
	if set.Compositing == nil {
		t.Fatal("compositing model missing")
	}
	if set.Compositing.Fit.R2 < 0.95 {
		t.Errorf("compositing R2 = %v", set.Compositing.Fit.R2)
	}
}

func TestPredictMatchesGeneratingProcess(t *testing.T) {
	samples := syntheticSamples("cpu", 60, 13)
	set, err := FitModels(samples)
	if err != nil {
		t.Fatal(err)
	}
	in := Inputs{O: 20000, AP: 30000, Pixels: 70000, AvgAP: 27000, Tasks: 2,
		VO: 20000, PPT: 6, SPR: 80, CS: 64}
	rt := set.Models[Key("cpu", RayTrace)]
	want := 2e-9*in.AP*math.Log2(in.O) + 4e-8*in.AP + 2e-4
	got := rt.Predict(in)
	if math.Abs(got-want)/want > 0.05 {
		t.Errorf("rt predict = %v want ~%v", got, want)
	}
	buildWant := 3e-8*in.O + 1e-4
	if b := rt.PredictBuild(in); math.Abs(b-buildWant)/buildWant > 0.1 {
		t.Errorf("build predict = %v want ~%v", b, buildWant)
	}
}

func TestCrossValidationAccuracyOnSyntheticCorpus(t *testing.T) {
	samples := syntheticSamples("cpu", 80, 17)
	for _, r := range []Renderer{RayTrace, Raster, Volume} {
		cv, err := CrossValidate(samples, "cpu", r, 3)
		if err != nil {
			t.Fatal(err)
		}
		if cv.WithinPct(25) < 0.95 {
			t.Errorf("%s: within 25%% only %v", r, cv.WithinPct(25))
		}
	}
	cv, err := CrossValidateCompositing(samples, 3)
	if err != nil {
		t.Fatal(err)
	}
	if cv.WithinPct(50) < 0.9 {
		t.Errorf("compositing within 50%% only %v", cv.WithinPct(50))
	}
}

func TestCrossValidateMissingGroup(t *testing.T) {
	if _, err := CrossValidate(nil, "cpu", RayTrace, 3); err == nil {
		t.Error("expected no-samples error")
	}
}

func TestFitModelsTooFewSamples(t *testing.T) {
	samples := syntheticSamples("cpu", 1, 3)
	if _, err := FitModels(samples); err == nil {
		t.Error("expected too-few-samples error")
	}
}

func TestMappingFormulas(t *testing.T) {
	mp := DefaultMapping()
	cfg := Config{N: 200, Tasks: 8, Width: 1024, Height: 1024, Renderer: RayTrace}
	in := mp.Map(cfg)
	if in.O != 12*200*200 {
		t.Errorf("O = %v", in.O)
	}
	wantAP := 0.55 * 1024 * 1024 / 2 // tasks^(1/3) = 2
	if math.Abs(in.AP-wantAP) > 1 {
		t.Errorf("AP = %v want %v", in.AP, wantAP)
	}
	if in.VO != math.Min(in.AP, in.O) {
		t.Errorf("VO = %v", in.VO)
	}
	if math.Abs(in.VO*in.PPT-4*in.AP) > 1e-6 {
		t.Errorf("VO*PPT = %v want %v", in.VO*in.PPT, 4*in.AP)
	}
	vol := mp.Map(Config{N: 200, Tasks: 8, Width: 1024, Height: 1024, Renderer: Volume})
	if vol.O != 200*200*200 {
		t.Errorf("volume O = %v", vol.O)
	}
	if math.Abs(vol.SPR-373.0/2) > 1e-9 {
		t.Errorf("SPR = %v", vol.SPR)
	}
	if vol.CS != 200 {
		t.Errorf("CS = %v", vol.CS)
	}
}

func TestCalibrateMappingRecoversConstants(t *testing.T) {
	// Samples constructed with fill 0.5 and SPR base 100.
	samples := syntheticSamples("cpu", 50, 23)
	mp := CalibrateMapping(samples)
	if math.Abs(mp.FillFraction-0.5) > 0.02 {
		t.Errorf("fill = %v want ~0.5", mp.FillFraction)
	}
	if math.Abs(mp.SPRBase-100) > 2 {
		t.Errorf("spr base = %v want ~100", mp.SPRBase)
	}
}

func TestImagesInBudgetShrinksWithImageSize(t *testing.T) {
	samples := syntheticSamples("cpu", 60, 29)
	set, err := FitModels(samples)
	if err != nil {
		t.Fatal(err)
	}
	mp := CalibrateMapping(samples)
	sizes := []int{256, 512, 1024, 2048}
	for _, r := range []Renderer{RayTrace, Raster, Volume} {
		pts, err := set.ImagesInBudget("cpu", r, mp, 128, 4, 60, sizes)
		if err != nil {
			t.Fatal(err)
		}
		if len(pts) != len(sizes) {
			t.Fatalf("points = %d", len(pts))
		}
		for i := 1; i < len(pts); i++ {
			if pts[i].Images > pts[i-1].Images {
				t.Errorf("%s: more images at larger size: %v then %v", r, pts[i-1], pts[i])
			}
		}
		if pts[0].Images <= 0 {
			t.Errorf("%s: no images fit the budget", r)
		}
	}
}

func TestCompareRTvsRasterCrossover(t *testing.T) {
	samples := syntheticSamples("cpu", 60, 31)
	set, err := FitModels(samples)
	if err != nil {
		t.Fatal(err)
	}
	mp := CalibrateMapping(samples)
	cells, err := set.CompareRTvsRaster("cpu", mp, 4, 100,
		[]int{256, 1024, 2048}, []int{64, 256, 512})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 9 {
		t.Fatalf("cells = %d", len(cells))
	}
	for _, cell := range cells {
		if math.IsNaN(cell.Ratio) || cell.Ratio <= 0 {
			t.Errorf("bad ratio %v at %+v", cell.Ratio, cell)
		}
	}
}

func TestMaxDataSizeInBudget(t *testing.T) {
	samples := syntheticSamples("cpu", 60, 37)
	set, err := FitModels(samples)
	if err != nil {
		t.Fatal(err)
	}
	mp := CalibrateMapping(samples)
	small, err := set.MaxDataSizeInBudget("cpu", mp, 4, 1024, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	big, err := set.MaxDataSizeInBudget("cpu", mp, 4, 1024, 10)
	if err != nil {
		t.Fatal(err)
	}
	if big < small {
		t.Errorf("bigger budget allows smaller data: %d vs %d", big, small)
	}
}

func TestRenderTermsUnknown(t *testing.T) {
	if _, err := RenderTerms("mystery", Inputs{}); err == nil {
		t.Error("expected unknown-renderer error")
	}
}
