package study

import (
	"math"
	"path/filepath"
	"testing"

	"insitu/internal/core"
	"insitu/internal/registry"
)

// exportPlan measures enough real configurations for every model group to
// fit (FitModels needs four rows per group).
func exportPlan() []Config {
	var plan []Config
	for _, n := range []int{8, 10, 12} {
		for _, img := range []int{40, 56} {
			plan = append(plan,
				Config{Arch: "serial", Renderer: core.RayTrace, Sim: "kripke", Tasks: 1, ImageSize: img, N: n, Frames: 2},
				Config{Arch: "serial", Renderer: core.Volume, Sim: "kripke", Tasks: 1, ImageSize: img, N: n, Frames: 2},
			)
		}
	}
	return plan
}

// TestExportModelsRoundTrip proves the study -> registry bridge: a
// snapshot exported from measured rows loads back into a model set whose
// predictions match the directly fitted one exactly.
func TestExportModelsRoundTrip(t *testing.T) {
	rows, err := Run(exportPlan(), nil)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "models.json")
	snap, err := ExportModels(rows, "study-test", path)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Source != "study-test" || len(snap.Models) != 2 {
		t.Fatalf("snapshot: source=%q models=%d", snap.Source, len(snap.Models))
	}
	// Each model carries its fit quality: six rows per renderer, an R2
	// no better than perfect and a finite, non-negative residual.
	for _, m := range snap.Models {
		if f := m.Fit; f.N != 6 || !(f.R2 <= 1) || !(f.ResidualSD >= 0) || math.IsInf(f.ResidualSD, 0) {
			t.Errorf("%s/%s fit: n=%d R2=%v residual=%v", m.Arch, m.Renderer, f.N, f.R2, f.ResidualSD)
		}
	}

	// Refit directly and compare predictions on the measured inputs.
	samples := Samples(rows)
	set, err := core.FitModels(samples)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := registry.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	set2, err := loaded.ModelSet()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range samples {
		k := core.Key(s.Arch, s.Renderer)
		if got, want := set2.Models[k].Predict(s.In), set.Models[k].Predict(s.In); got != want {
			t.Fatalf("%s: loaded predict %v, fitted %v", k, got, want)
		}
	}
	if got, want := loaded.CalibratedMapping(), core.CalibrateMapping(samples); got != want {
		t.Fatalf("mapping: loaded %+v, calibrated %+v", got, want)
	}

	// Fitting an empty corpus is an error, not an empty snapshot.
	if _, err := FitSnapshot(nil, "empty"); err == nil {
		t.Error("empty corpus exported")
	}
}
