package study

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"insitu/internal/core"
	"insitu/internal/scenario"
	"insitu/internal/sim"
)

func tinyPlan() []Config {
	return []Config{
		{Arch: "cpu", Renderer: core.RayTrace, Sim: "kripke", Tasks: 1, ImageSize: 64, N: 10, Frames: 2},
		{Arch: "cpu", Renderer: core.RayTrace, Sim: "lulesh", Tasks: 2, ImageSize: 64, N: 10, Frames: 2},
		{Arch: "cpu", Renderer: core.Raster, Sim: "cloverleaf", Tasks: 2, ImageSize: 64, N: 10, Frames: 2},
		{Arch: "cpu", Renderer: core.Volume, Sim: "cloverleaf", Tasks: 2, ImageSize: 48, N: 10, Frames: 2},
		{Arch: "cpu", Renderer: core.Volume, Sim: "kripke", Tasks: 1, ImageSize: 48, N: 10, Frames: 2},
	}
}

func TestRunTinyPlanProducesSamples(t *testing.T) {
	var log bytes.Buffer
	rows, err := Run(tinyPlan(), &log)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i, r := range rows {
		s := r.Sample
		if s.RenderTime <= 0 {
			t.Errorf("row %d: render time %v", i, s.RenderTime)
		}
		if s.In.O <= 0 || s.In.AP <= 0 {
			t.Errorf("row %d: inputs O=%v AP=%v", i, s.In.O, s.In.AP)
		}
		if s.In.Pixels != float64(r.Config.ImageSize*r.Config.ImageSize) {
			t.Errorf("row %d: pixels %v", i, s.In.Pixels)
		}
		if r.Config.Tasks > 1 && s.CompositeTime <= 0 {
			t.Errorf("row %d: multi-task run has no compositing time", i)
		}
		if r.Config.Tasks == 1 && s.CompositeTime != 0 {
			t.Errorf("row %d: single-task run has compositing time", i)
		}
		if s.Renderer == core.RayTrace && s.BuildTime <= 0 {
			t.Errorf("row %d: no BVH build time", i)
		}
		if s.Renderer == core.Raster && (s.In.VO <= 0 || s.In.PPT <= 0) {
			t.Errorf("row %d: raster inputs VO=%v PPT=%v", i, s.In.VO, s.In.PPT)
		}
		if s.Renderer == core.Volume && (s.In.SPR <= 0 || s.In.CS <= 0) {
			t.Errorf("row %d: volume inputs SPR=%v CS=%v", i, s.In.SPR, s.In.CS)
		}
	}
	if !strings.Contains(log.String(), "raytracer") {
		t.Error("progress log empty")
	}
}

func TestVolumeOnUnstructuredRejected(t *testing.T) {
	_, err := RunConfig(Config{
		Arch: "cpu", Renderer: core.Volume, Sim: "lulesh",
		Tasks: 1, ImageSize: 32, N: 8, Frames: 2,
	})
	if err == nil {
		t.Error("expected error for volume rendering the Lagrangian proxy")
	}
}

// TestLHSScaleSpansInclusiveRange is the regression test for the
// truncation-biased sample mapping: lo+int(u*(hi-lo)) could never reach
// hi, so the documented upper bounds nHi/imgHi were unreachable. The
// corrected mapping must span [lo, hi] inclusively, hit both endpoints,
// stay monotone in u, and give every value equal mass.
func TestLHSScaleSpansInclusiveRange(t *testing.T) {
	const lo, hi = 12, 36
	counts := map[int]int{}
	const steps = 100000
	prev := lo
	for i := 0; i < steps; i++ {
		u := float64(i) / steps // uniform grid over [0, 1)
		v := lhsScale(u, lo, hi)
		if v < lo || v > hi {
			t.Fatalf("u=%v: %d outside [%d, %d]", u, v, lo, hi)
		}
		if v < prev {
			t.Fatalf("u=%v: mapping not monotone (%d after %d)", u, v, prev)
		}
		prev = v
		counts[v]++
	}
	if counts[lo] == 0 {
		t.Errorf("lower bound %d never sampled", lo)
	}
	if counts[hi] == 0 {
		t.Errorf("upper bound %d never sampled (the original bug)", hi)
	}
	want := steps / (hi - lo + 1)
	for v := lo; v <= hi; v++ {
		if c := counts[v]; c < want*9/10 || c > want*11/10 {
			t.Errorf("value %d drawn %d times, want ~%d (uniformity)", v, c, want)
		}
	}
	// Degenerate range collapses to lo.
	if got := lhsScale(0.99, 7, 7); got != 7 {
		t.Errorf("lhsScale on empty range = %d", got)
	}
	// Exact-1.0 input (not produced by LatinHypercube, but guard it).
	if got := lhsScale(1.0, lo, hi); got != hi {
		t.Errorf("lhsScale(1.0) = %d, want %d", got, hi)
	}
}

// TestPlanReachesUpperBounds: with enough Latin-hypercube pairs the plan's
// sampled sizes must cover the top cell of the design space, not stop one
// stratum short of it.
func TestPlanReachesUpperBounds(t *testing.T) {
	const nLo, nHi = 12, 36
	const imgLo, imgHi = 80, 384
	maxN, maxImg := 0, 0
	minN, minImg := 1<<30, 1<<30
	for _, cfg := range Plan(false) {
		if cfg.N > maxN {
			maxN = cfg.N
		}
		if cfg.ImageSize > maxImg {
			maxImg = cfg.ImageSize
		}
		if cfg.N < minN {
			minN = cfg.N
		}
		if cfg.ImageSize < minImg {
			minImg = cfg.ImageSize
		}
		if cfg.N < nLo || cfg.N > nHi || cfg.ImageSize < imgLo || cfg.ImageSize > imgHi {
			t.Fatalf("config outside the documented bounds: %+v", cfg)
		}
	}
	// With 5 strata, the top stratum covers the top fifth of each range;
	// its sample must land there (the old mapping could only reach the
	// value one full stratum below hi at best).
	if topN := nHi - (nHi-nLo+1)/5; maxN < topN {
		t.Errorf("max sampled N = %d, top stratum starts at %d", maxN, topN)
	}
	if topImg := imgHi - (imgHi-imgLo+1)/5; maxImg < topImg {
		t.Errorf("max sampled image = %d, top stratum starts at %d", maxImg, topImg)
	}
}

func TestPlanShapes(t *testing.T) {
	full := Plan(false)
	short := Plan(true)
	if len(short) >= len(full) {
		t.Errorf("short plan (%d) should be smaller than full (%d)", len(short), len(full))
	}
	// Structured volume + lulesh must not appear.
	for _, cfg := range full {
		if cfg.Renderer == core.Volume && cfg.Sim == "lulesh" {
			t.Error("plan contains invalid volume+lulesh combination")
		}
		if cfg.N < 8 || cfg.ImageSize < 32 {
			t.Errorf("degenerate config %+v", cfg)
		}
	}
	// Both architectures present.
	archs := map[string]bool{}
	for _, cfg := range full {
		archs[cfg.Arch] = true
	}
	if !archs["serial"] || !archs["cpu"] {
		t.Errorf("plan architectures = %v", archs)
	}
}

// TestPlanSamplesScenarioAxis: the plan is generated from the scenario
// backend table, so every backend — including the
// unstructured volume backend, which the old hardcoded combo list could
// never reach — is sampled against every proxy it can consume.
func TestPlanSamplesScenarioAxis(t *testing.T) {
	got := map[string]bool{}
	for _, cfg := range Plan(false) {
		got[string(cfg.Renderer)+"/"+cfg.Sim] = true
	}
	for _, r := range scenario.Names() {
		b, err := scenario.Lookup(r)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range sim.Names() {
			key := string(r) + "/" + s
			want := !(b.NeedsStructured() && !sim.Structured(s))
			if got[key] != want {
				t.Errorf("combination %s: in plan = %v, want %v", key, got[key], want)
			}
		}
	}
	// The proof point: the tetrahedral volume backend reaches even the
	// Lagrangian proxy, which previously had no volume coverage at all.
	if !got[string(core.VolumeUnstructured)+"/lulesh"] {
		t.Error("volume-unstructured not sampled against lulesh")
	}
}

// TestUnknownRendererInConfigRejected: a config naming an unregistered
// renderer fails with an error listing what is registered, before any
// simulation work happens.
func TestUnknownRendererInConfigRejected(t *testing.T) {
	_, err := RunConfig(Config{
		Arch: "cpu", Renderer: "teapot", Sim: "kripke",
		Tasks: 1, ImageSize: 32, N: 8, Frames: 2,
	})
	if err == nil {
		t.Fatal("unknown renderer accepted")
	}
	if !strings.Contains(err.Error(), "teapot") || !strings.Contains(err.Error(), "registered") {
		t.Errorf("error does not identify the unknown renderer: %v", err)
	}
}

// TestReadCSVRoundTrip: WriteCSV -> ReadCSV must reproduce every
// configuration and sample field the CSV records, so an archived corpus
// can be re-fitted or replayed into a Calibrator offline.
func TestReadCSVRoundTrip(t *testing.T) {
	plan := Plan(true)[:12]
	var rows []Row
	for i, cfg := range plan {
		row, err := fakeExec(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Exercise every numeric column with per-row variation so the
		// round-tripped corpus stays regressable.
		row.Sample.In.VO = 7.5 + float64(i)
		row.Sample.In.PPT = 3.25 + 0.5*float64(i%5)
		row.Sample.In.SPR = 123.5 - float64(i)
		row.Sample.In.CS = float64(17 + i)
		row.Sample.BuildTime = 0.0125 * float64(1+i)
		rows = append(rows, row)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(rows) {
		t.Fatalf("read %d rows, wrote %d", len(got), len(rows))
	}
	for i := range rows {
		want := rows[i]
		// Frames and Cycles are run-time knobs the CSV does not record.
		want.Config.Frames = 0
		want.Config.Cycles = 0
		if got[i] != want {
			t.Errorf("row %d:\n got %+v\nwant %+v", i, got[i], want)
		}
	}
	// The round-tripped corpus must be fit-ready.
	if _, _, err := core.FitAvailable(Samples(got)); err != nil {
		t.Errorf("round-tripped corpus not fittable: %v", err)
	}

	// Error paths: wrong header and malformed numbers fail with context.
	if _, err := ReadCSV(strings.NewReader("bogus,header\n")); err == nil {
		t.Error("wrong header accepted")
	}
	malformed := "arch,renderer,sim,tasks,n,image,objects,active_pixels,visible_objects,ppt,spr,cs,avg_ap,build_s,render_s,composite_s\ncpu,raytracer,kripke,notanint,10,64,1,1,0,0,0,0,1,0,0.1,0\n"
	if _, err := ReadCSV(strings.NewReader(malformed)); err == nil {
		t.Error("malformed integer accepted")
	} else if !strings.Contains(err.Error(), "tasks") {
		t.Errorf("error does not name the bad column: %v", err)
	}
}

func TestWriteCSV(t *testing.T) {
	rows, err := Run(tinyPlan()[:2], nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv lines = %d", len(lines))
	}
	if !strings.HasPrefix(lines[0], "arch,renderer") {
		t.Errorf("header = %q", lines[0])
	}
}

func TestSamplesFeedModelFitting(t *testing.T) {
	// A slightly larger plan so every model group has enough rows; this is
	// the end-to-end integration of harness -> models.
	plan := []Config{}
	for _, n := range []int{8, 10, 12, 14, 16} {
		for _, img := range []int{40, 64, 88} {
			plan = append(plan,
				Config{Arch: "cpu", Renderer: core.RayTrace, Sim: "kripke", Tasks: 1, ImageSize: img, N: n, Frames: 2},
				Config{Arch: "cpu", Renderer: core.Raster, Sim: "kripke", Tasks: 1, ImageSize: img, N: n, Frames: 2},
				Config{Arch: "cpu", Renderer: core.Volume, Sim: "kripke", Tasks: 1, ImageSize: img, N: n, Frames: 2},
			)
		}
	}
	rows, err := Run(plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	set, err := core.FitModels(Samples(rows))
	if err != nil {
		t.Fatal(err)
	}
	for k, m := range set.Models {
		// The rasterizer's CPU fit is legitimately the weakest (the paper's
		// Table 12 reports R² = 0.67 for CPU rasterization vs > 0.94 for
		// everything else); at this test's tiny sizes scheduler noise
		// dominates it, so only the other models are held to a floor.
		if m.Renderer != core.Raster && m.Fit.R2 < 0.3 {
			t.Errorf("%s: R2 = %v (model explains almost nothing)", k, m.Fit.R2)
		}
		if math.IsNaN(m.Fit.R2) {
			t.Errorf("%s: R2 is NaN", k)
		}
		pred := m.Predict(rows[0].Sample.In)
		if pred < 0 && pred < -0.01 {
			t.Errorf("%s: strongly negative prediction %v", k, pred)
		}
	}
}
