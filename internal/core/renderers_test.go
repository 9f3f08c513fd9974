package core

import (
	"strings"
	"testing"
)

func TestRendererRegistryErrorPaths(t *testing.T) {
	// The paper's four model forms and the tetrahedral volume model are
	// in the table.
	for _, r := range []Renderer{RayTrace, Raster, Volume, VolumeUnstructured, Compositing} {
		if spec, ok := LookupRenderer(r); !ok || spec.Name != r {
			t.Errorf("renderer %q not in the spec table (got %q, %v)", r, spec.Name, ok)
		}
	}
	if _, ok := LookupRenderer("teapot"); ok {
		t.Error("unknown renderer found")
	}
	// Unknown renderers fail term dispatch with the alternatives named.
	if _, err := RenderTerms("teapot", Inputs{}); err == nil ||
		!strings.Contains(err.Error(), "teapot") || !strings.Contains(err.Error(), string(RayTrace)) {
		t.Errorf("unknown renderer terms error: %v", err)
	}
}

// TestRenderersSorted: Renderers lists the spec table in order, so the
// table must stay sorted by name with no duplicates.
func TestRenderersSorted(t *testing.T) {
	all := Renderers()
	if len(all) != 5 {
		t.Errorf("renderers = %v, want 5", all)
	}
	for i := 1; i < len(all); i++ {
		if all[i-1] >= all[i] {
			t.Errorf("renderers not strictly sorted: %v", all)
		}
	}
}

func TestModeledRenderersExcludesCompositing(t *testing.T) {
	for _, r := range ModeledRenderers() {
		if r == Compositing {
			t.Error("compositing listed as a modeled renderer")
		}
	}
	found := false
	for _, r := range Renderers() {
		if r == Compositing {
			found = true
		}
	}
	if !found {
		t.Error("compositing missing from the full registry listing")
	}
}

// TestMapUsesSpecObjects: a spec's Objects override feeds Map's O input,
// and non-surface specs take the volume mapping branch.
func TestMapUsesSpecObjects(t *testing.T) {
	mp := DefaultMapping()
	in := mp.Map(Config{N: 10, Tasks: 1, Width: 100, Height: 100, Renderer: VolumeUnstructured})
	if in.O != 6000 {
		t.Errorf("O = %v, want 6000 from the spec's Objects", in.O)
	}
	if in.SPR <= 0 {
		t.Errorf("non-surface spec should map SPR, got %v", in.SPR)
	}
	if in.VO != 0 || in.PPT != 0 {
		t.Errorf("non-surface spec mapped surface inputs: VO=%v PPT=%v", in.VO, in.PPT)
	}
	// Surface mapping unchanged for the builtins.
	sIn := mp.Map(Config{N: 10, Tasks: 1, Width: 100, Height: 100, Renderer: RayTrace})
	if sIn.O != 1200 {
		t.Errorf("surface O = %v, want 1200", sIn.O)
	}
	if sIn.VO <= 0 || sIn.PPT <= 0 {
		t.Errorf("surface inputs missing: VO=%v PPT=%v", sIn.VO, sIn.PPT)
	}
}

// TestCalibrateFillFromSurfaceSpecsOnly: FillFraction is fitted from
// surface techniques alone; tetrahedral volume coverage must not leak
// into it.
func TestCalibrateFillFromSurfaceSpecsOnly(t *testing.T) {
	in := func(ap float64) Inputs { return Inputs{Pixels: 100, AP: ap, Tasks: 1} }
	mp := CalibrateMapping([]Sample{
		{Arch: "cpu", Renderer: RayTrace, In: in(50)},
		{Arch: "cpu", Renderer: VolumeUnstructured, In: in(10)},
	})
	if mp.FillFraction != 0.5 {
		t.Errorf("FillFraction = %v, want 0.5 from the raytracer sample alone", mp.FillFraction)
	}
}
