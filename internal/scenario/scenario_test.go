package scenario

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"insitu/internal/conduit"
	"insitu/internal/core"
	"insitu/internal/device"
	"insitu/internal/render"
	"insitu/internal/sim"
)

// simScene builds a one-task scene from a stepped proxy, the same way
// the study harness does.
func simScene(t testing.TB, proxy string, n, size int) *Scene {
	t.Helper()
	sm, err := sim.New(proxy, n, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	sm.Step()
	node := conduit.NewNode()
	sm.Publish(node)
	pm, err := ParseMesh(node)
	if err != nil {
		t.Fatal(err)
	}
	vals, err := pm.FieldValues(sm.PrimaryField())
	if err != nil {
		t.Fatal(err)
	}
	cam := render.OrbitCamera(pm.LocalBounds(), 30, 20, 1.0)
	return NewScene(device.CPU(), pm, sm.PrimaryField(), vals, cam, size, size)
}

// TestEveryBackendRendersItsCompatibleProxies drives each registered
// backend over every proxy it declares itself compatible with: Prepare
// succeeds, a frame comes back non-empty, and the model inputs its term
// vector consumes are filled.
func TestEveryBackendRendersItsCompatibleProxies(t *testing.T) {
	for _, name := range Names() {
		b, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, proxy := range sim.Names() {
			if b.NeedsStructured() && !sim.Structured(proxy) {
				continue
			}
			t.Run(string(name)+"/"+proxy, func(t *testing.T) {
				sc := simScene(t, proxy, 8, 48)
				runner, err := b.Prepare(sc)
				if err != nil {
					t.Fatal(err)
				}
				var in core.Inputs
				elapsed, img, err := runner.RenderFrame(&in)
				if err != nil {
					t.Fatal(err)
				}
				if elapsed <= 0 {
					t.Error("no elapsed time measured")
				}
				if img == nil || img.ActivePixels() == 0 {
					t.Error("empty image")
				}
				if in.O <= 0 || in.AP <= 0 {
					t.Errorf("inputs not filled: O=%v AP=%v", in.O, in.AP)
				}
				// The backend's model terms must be computable and
				// non-degenerate over what it filled.
				terms, err := core.RenderTerms(name, in)
				if err != nil {
					t.Fatal(err)
				}
				if len(terms) < 2 {
					t.Fatalf("term vector too short: %v", terms)
				}
				for i, v := range terms {
					if math.IsNaN(v) || math.IsInf(v, 0) {
						t.Errorf("term %d is %v", i, v)
					}
				}
			})
		}
	}
}

// TestStructuredOnlyBackendRejectsUnstructuredScene mirrors the paper's
// "not all combinations made sense": the structured volume backend must
// refuse the Lagrangian proxy's explicit hex mesh, while the
// unstructured volume backend consumes it.
func TestStructuredOnlyBackendRejectsUnstructuredScene(t *testing.T) {
	sc := simScene(t, "lulesh", 8, 48)
	vb, err := Lookup(core.Volume)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vb.Prepare(sc); err == nil {
		t.Error("structured volume backend accepted an unstructured block")
	}
	ub, err := Lookup(core.VolumeUnstructured)
	if err != nil {
		t.Fatal(err)
	}
	runner, err := ub.Prepare(sc)
	if err != nil {
		t.Fatalf("unstructured volume backend rejected lulesh: %v", err)
	}
	var in core.Inputs
	if _, img, err := runner.RenderFrame(&in); err != nil || img.ActivePixels() == 0 {
		t.Fatalf("unstructured volume frame: err=%v", err)
	}
	if in.SPR <= 0 {
		t.Errorf("SPR not filled: %v", in.SPR)
	}
}

// TestLookupUnknownRendererNamesAlternatives: the error a typo'd study
// config or HTTP request ultimately surfaces must name what exists.
func TestLookupUnknownRendererNamesAlternatives(t *testing.T) {
	_, err := Lookup("teapot")
	if err == nil {
		t.Fatal("lookup of unknown renderer succeeded")
	}
	if !strings.Contains(err.Error(), "teapot") || !strings.Contains(err.Error(), string(core.RayTrace)) {
		t.Errorf("error does not name the unknown renderer and the registered ones: %v", err)
	}
}

// TestBackendsMatchCoreSpecs: every backend has a core model spec and
// every modeled spec has a backend; compositing is the one spec that is
// not a backend.
func TestBackendsMatchCoreSpecs(t *testing.T) {
	got, want := Names(), core.ModeledRenderers()
	if !slices.Equal(got, want) {
		t.Errorf("backends %v, core modeled renderers %v", got, want)
	}
}

// TestFieldRangeSkipsNonFinite is the regression test for the scalar
// range poisoning bug: one Inf or NaN sample must not blow up the global
// range every AP-derived model term depends on.
func TestFieldRangeSkipsNonFinite(t *testing.T) {
	lo, hi := FieldRange([]float64{1, 2, math.Inf(1), 3, math.NaN(), math.Inf(-1), 0.5})
	if lo != 0.5 || hi != 3 {
		t.Errorf("range = [%v, %v], want [0.5, 3]", lo, hi)
	}
	// All-non-finite and empty fields fall back to the unit range.
	if lo, hi := FieldRange([]float64{math.NaN(), math.Inf(1)}); lo != 0 || hi != 1 {
		t.Errorf("all-non-finite range = [%v, %v], want [0, 1]", lo, hi)
	}
	if lo, hi := FieldRange(nil); lo != 0 || hi != 1 {
		t.Errorf("empty range = [%v, %v], want [0, 1]", lo, hi)
	}
}

// TestSceneLazyGeometryIsCached: repeated accessor calls hand back the
// same extracted geometry (backends prepared from one scene share it).
func TestSceneLazyGeometryIsCached(t *testing.T) {
	sc := simScene(t, "kripke", 8, 32)
	s1, err := sc.SurfaceMesh()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := sc.SurfaceMesh()
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Error("surface extracted twice")
	}
	t1, err := sc.TetMesh()
	if err != nil {
		t.Fatal(err)
	}
	t2, err := sc.TetMesh()
	if err != nil {
		t.Fatal(err)
	}
	if t1 != t2 {
		t.Error("tetrahedralized twice")
	}
	if !sc.Structured() {
		t.Error("kripke scene should be structured")
	}
}

// TestSharedSceneDrawsTheSameFrames: two goroutines render one prepared
// scene at once, each on its own arena and device, and draw the same
// frames bit for bit with the same inputs, for every backend. Under
// -race it also checks that rendering writes nothing in the scene.
func TestSharedSceneDrawsTheSameFrames(t *testing.T) {
	for _, name := range Names() {
		b, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, proxy := range sim.Names() {
			if b.NeedsStructured() && !sim.Structured(proxy) {
				continue
			}
			t.Run(string(name)+"/"+proxy, func(t *testing.T) {
				sc := simScene(t, proxy, 8, 48)
				ps, err := b.PrepareScene(sc)
				if err != nil {
					t.Fatal(err)
				}
				frames := []Frame{
					{Width: 48, Height: 48, Camera: sc.Camera},
					{Width: 40, Height: 32, Camera: render.OrbitCamera(ps.Bounds, 75, 10, 1.2), RTWorkload: 3},
				}
				var drawn [2][]frame
				var wg sync.WaitGroup
				for g := range drawn {
					wg.Add(1)
					go func() {
						defer wg.Done()
						dev := device.CPU()
						defer dev.Close()
						arena := b.NewArena(dev)
						for _, f := range frames {
							drawn[g] = append(drawn[g], drawFrame(t, arena, ps, f))
						}
					}()
				}
				wg.Wait()
				for i := range frames {
					if msg := drawn[0][i].diff(drawn[1][i]); msg != "" {
						t.Errorf("frame %d: %s", i, msg)
					}
				}
			})
		}
	}
}

// frame is one rendered frame, copied out of its arena.
type frame struct {
	in           core.Inputs
	color, depth []float32
}

// drawFrame renders f of ps on arena and copies the result out.
func drawFrame(t *testing.T, arena Arena, ps *PreparedScene, f Frame) frame {
	var in core.Inputs
	_, img, err := arena.Render(ps, f, &in)
	if err != nil {
		t.Error(err)
		return frame{}
	}
	return frame{in, slices.Clone(img.Color), slices.Clone(img.Depth)}
}

// diff describes how got differs from want, bit for bit; "" when it
// does not.
func (got frame) diff(want frame) string {
	bits := func(v []float32) []uint32 {
		u := make([]uint32, len(v))
		for i, x := range v {
			u[i] = math.Float32bits(x)
		}
		return u
	}
	if got.in != want.in {
		return fmt.Sprintf("inputs %+v, want %+v", got.in, want.in)
	}
	if !slices.Equal(bits(got.color), bits(want.color)) || !slices.Equal(bits(got.depth), bits(want.depth)) {
		return "pixels or depths differ"
	}
	return ""
}
