// End-to-end integration tests: the golden path from measurement through
// model fitting to feasibility answers, plus cross-cutting checks that the
// paper's methodology assumptions hold on this implementation.
package insitu

import (
	"math"
	"testing"

	"insitu/internal/core"
	"insitu/internal/device"
	"insitu/internal/framebuffer"
	"insitu/internal/mesh"
	"insitu/internal/mesh/synthdata"
	"insitu/internal/render"
	"insitu/internal/render/raytrace"
	"insitu/internal/render/volume"
	"insitu/internal/scenario"
	"insitu/internal/stats"
	"insitu/internal/study"
)

// TestGoldenPath is the complete workflow of Chapter V: measure a small
// corpus, fit per-architecture models, calibrate the mapping, and answer a
// feasibility question.
func TestGoldenPath(t *testing.T) {
	if testing.Short() {
		t.Skip("golden path study is slow")
	}
	var plan []study.Config
	for _, n := range []int{10, 14, 18, 22} {
		for _, img := range []int{64, 112, 160} {
			for _, r := range []core.Renderer{core.RayTrace, core.Volume} {
				plan = append(plan, study.Config{
					Arch: "cpu", Renderer: r, Sim: "kripke",
					Tasks: 1, ImageSize: img, N: n, Frames: 2,
				})
			}
		}
	}
	rows, err := study.Run(plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	samples := study.Samples(rows)
	set, err := core.FitModels(samples)
	if err != nil {
		t.Fatal(err)
	}

	// The ray tracing model must explain most of the variance: this is the
	// paper's central claim (Table 12 reports R^2 >= 0.94 at full scale;
	// our floor allows for the sandbox's two noisy cores).
	rt := set.Models[core.Key("cpu", core.RayTrace)]
	if rt.Fit.R2 < 0.5 {
		t.Errorf("ray tracing R2 = %v; model not predictive", rt.Fit.R2)
	}

	// Correlation screen (the paper's methodology step): render time must
	// correlate positively with the model's leading term.
	var term, times []float64
	for _, s := range samples {
		if s.Renderer != core.RayTrace {
			continue
		}
		term = append(term, s.In.AP*math.Log2(s.In.O))
		times = append(times, s.RenderTime)
	}
	if r := stats.Pearson(term, times); r < 0.5 {
		t.Errorf("AP*log2(O) correlation with render time = %v", r)
	}

	// Feasibility: predictions must be positive and monotone in image size.
	mp := core.CalibrateMapping(samples)
	pts, err := set.ImagesInBudget("cpu", core.RayTrace, mp, 32, 1, 60,
		[]int{256, 512, 1024})
	if err != nil {
		t.Fatal(err)
	}
	if pts[0].Images <= 0 {
		t.Error("no images fit a 60s budget at 256^2; predictions degenerate")
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].PerImage < pts[i-1].PerImage {
			t.Errorf("per-image time decreased with size: %+v then %+v", pts[i-1], pts[i])
		}
	}
}

// TestRenderTimeMonotoneInResolution checks the raw behaviour the models
// rely on: more pixels cannot make rendering much faster.
func TestRenderTimeMonotoneInResolution(t *testing.T) {
	ds, err := synthdata.ByName("rm")
	if err != nil {
		t.Fatal(err)
	}
	g := synthdata.Grid(ds.FieldName, ds.Func, 16, 16, 16, synthdata.UnitBounds())
	m, err := g.Isosurface(device.CPU(), ds.FieldName, ds.Isovalue, mesh.IsoOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rdr := raytrace.New(device.Serial(), m)
	cam := render.OrbitCamera(m.Bounds(), 30, 20, 1.0)
	timeAt := func(size int) float64 {
		opts := raytrace.Options{Width: size, Height: size, Camera: cam, Workload: raytrace.Workload2}
		if _, _, err := rdr.Render(opts); err != nil {
			t.Fatal(err)
		}
		best := math.Inf(1)
		for i := 0; i < 3; i++ {
			_, st, err := rdr.Render(opts)
			if err != nil {
				t.Fatal(err)
			}
			if s := st.Phases.Total().Seconds(); s < best {
				best = s
			}
		}
		return best
	}
	small := timeAt(64)
	large := timeAt(256)
	if large < small {
		t.Errorf("16x pixels rendered faster: %v vs %v", large, small)
	}
}

// TestDeviceProfilesAllRender ensures every named profile can execute the
// full pipeline (the portability premise) and that their kernel sets agree
// bit for bit: a shaded ray-traced frame, and a structured volume frame on
// a uniform kripke grid, the frame the volume packet kernel takes.
func TestDeviceProfilesAllRender(t *testing.T) {
	ds, err := synthdata.ByName("lt")
	if err != nil {
		t.Fatal(err)
	}
	g := synthdata.Grid(ds.FieldName, ds.Func, 12, 12, 12, synthdata.UnitBounds())
	m, err := g.Isosurface(device.CPU(), ds.FieldName, ds.Isovalue, mesh.IsoOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sd, err := scenario.BuildShard("kripke", 16, 1, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	vg := sd.Mesh.Grid
	if err := vg.AddField(sd.Field, mesh.VertexAssoc, sd.Values); err != nil {
		t.Fatal(err)
	}
	frames := map[string]func(*device.Device) (*framebuffer.Image, error){
		"raytracer": func(dev *device.Device) (*framebuffer.Image, error) {
			img, _, err := raytrace.New(dev, m).Render(raytrace.Options{
				Width: 48, Height: 48, Camera: render.OrbitCamera(m.Bounds(), 30, 20, 1.0), Workload: raytrace.Workload2,
			})
			if err != nil {
				return nil, err
			}
			return img.Clone(), nil // frames are arena-owned
		},
		"volume": func(dev *device.Device) (*framebuffer.Image, error) {
			vr, err := volume.NewStructured(dev, vg, sd.Field)
			if err != nil {
				return nil, err
			}
			img, _, err := vr.Render(volume.StructuredOptions{
				Width: 48, Height: 48, Camera: render.OrbitCamera(vg.Bounds(), 30, 20, 1.0),
			})
			if err != nil {
				return nil, err
			}
			return img.Clone(), nil
		},
	}
	for backend, frame := range frames {
		var ref []float32
		for _, name := range device.ProfileNames() {
			dev, err := device.Profile(name)
			if err != nil {
				t.Fatal(err)
			}
			img, err := frame(dev)
			if err != nil {
				t.Fatalf("%s %s: %v", name, backend, err)
			}
			if img.ActivePixels() == 0 {
				t.Errorf("%s %s: empty image", name, backend)
			}
			if ref == nil {
				ref = img.Color
				continue
			}
			for i := range ref {
				if math.Float32bits(ref[i]) != math.Float32bits(img.Color[i]) {
					t.Fatalf("%s %s: image differs from first profile at channel %d — portability broken", name, backend, i)
				}
			}
		}
	}
}
