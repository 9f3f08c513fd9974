// Benchmarks: one per reproduced table and figure (sized for iteration;
// cmd/repro prints the full tables), plus ablation benches for the design
// choices behind them (BVH builders, compositing algorithms, the
// rasterizer, structured volume rendering).
package insitu

import (
	"fmt"
	"testing"

	"insitu/internal/baseline"
	"insitu/internal/bvh"
	"insitu/internal/comm"
	"insitu/internal/composite"
	"insitu/internal/core"
	"insitu/internal/device"
	"insitu/internal/dpp"
	"insitu/internal/framebuffer"
	"insitu/internal/mesh"
	"insitu/internal/mesh/synthdata"
	"insitu/internal/render"
	"insitu/internal/render/raster"
	"insitu/internal/render/raytrace"
	"insitu/internal/render/volume"
	"insitu/internal/sim"
	"insitu/internal/strawman"
	"insitu/internal/study"

	"insitu/internal/conduit"
)

const (
	benchGrid  = 20
	benchImage = 160
)

func benchSurface(tb testing.TB) *mesh.TriangleMesh {
	tb.Helper()
	ds, err := synthdata.ByName("rm")
	if err != nil {
		tb.Fatal(err)
	}
	g := synthdata.Grid(ds.FieldName, ds.Func, benchGrid, benchGrid, benchGrid, synthdata.UnitBounds())
	m, err := g.Isosurface(device.CPU(), ds.FieldName, ds.Isovalue, mesh.IsoOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

func benchTets(b *testing.B) *mesh.TetMesh {
	b.Helper()
	ds, err := synthdata.ByName("nek")
	if err != nil {
		b.Fatal(err)
	}
	g := synthdata.Grid(ds.FieldName, ds.Func, 14, 14, 14, synthdata.UnitBounds())
	tm, err := g.Tetrahedralize(ds.FieldName)
	if err != nil {
		b.Fatal(err)
	}
	return tm
}

// rayTraceStep returns the steady-state step of rdr rendering opts: one
// frame into the renderer's arena. The first call pays the one-time
// arena allocations; the benchmarks make it before the timer and
// TestZeroAlloc's AllocsPerRun makes it as its warm-up, then pins the
// rest at 0 allocs.
func rayTraceStep(tb testing.TB, rdr *raytrace.Renderer, opts raytrace.Options) func() {
	return func() {
		if _, _, err := rdr.Render(opts); err != nil {
			tb.Fatal(err)
		}
	}
}

// table1Step is Table 1's workload: WORKLOAD2 frames on dev.
func table1Step(tb testing.TB, dev *device.Device) func() {
	m := benchSurface(tb)
	return rayTraceStep(tb, raytrace.New(dev, m), raytrace.Options{
		Width: benchImage, Height: benchImage,
		Camera:   render.OrbitCamera(m.Bounds(), 30, 20, 1.0),
		Workload: raytrace.Workload2,
	})
}

// table2Step is Table 2's workload: WORKLOAD3 frames.
func table2Step(tb testing.TB) func() {
	m := benchSurface(tb)
	return rayTraceStep(tb, raytrace.New(device.CPU(), m), raytrace.Options{
		Width: benchImage, Height: benchImage,
		Camera:   render.OrbitCamera(m.Bounds(), 30, 20, 1.0),
		Workload: raytrace.Workload3,
	})
}

// table5Renderer is Table 5's workload: WORKLOAD1 (primary rays only)
// frames of the benchmark surface on the profile that names the kernel
// set, cpu-scalar (the scalar loop) or cpu (four-ray packets on an AVX2
// host). The table reads the renderer's own traversal phase.
func table5Renderer(tb testing.TB, profile string) (*raytrace.Renderer, raytrace.Options) {
	m := benchSurface(tb)
	dev, err := device.Profile(profile)
	if err != nil {
		tb.Fatal(err)
	}
	return raytrace.New(dev, m), raytrace.Options{
		Width: benchImage, Height: benchImage,
		Camera:   render.OrbitCamera(m.Bounds(), 30, 20, 1.0),
		Workload: raytrace.Workload1,
	}
}

// table5Kernels names Table 5's two traversals and their profiles.
var table5Kernels = []struct{ name, profile string }{{"scalar", "cpu-scalar"}, {"packet", "cpu"}}

// BenchmarkTable1RayTraceShaded is Table 1's workload (table1Step).
func BenchmarkTable1RayTraceShaded(b *testing.B) {
	b.ReportAllocs()
	step := table1Step(b, device.CPU())
	step() // warm frame: the timed loop measures the steady state
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// BenchmarkTable2RayTraceFull is Table 2's workload (table2Step).
func BenchmarkTable2RayTraceFull(b *testing.B) {
	b.ReportAllocs()
	step := table2Step(b)
	step() // warm frame
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// BenchmarkTable3VsQueueRT measures the OptiX-analogue side of Table 3.
func BenchmarkTable3VsQueueRT(b *testing.B) {
	b.ReportAllocs()
	m := benchSurface(b)
	cam := render.OrbitCamera(m.Bounds(), 30, 20, 1.0)
	q := baseline.NewQueueRT(m, device.CPU().Workers)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Trace(cam, benchImage, benchImage)
	}
}

// BenchmarkTable4VsFastRT measures the Embree-analogue side of Table 4.
func BenchmarkTable4VsFastRT(b *testing.B) {
	b.ReportAllocs()
	m := benchSurface(b)
	cam := render.OrbitCamera(m.Bounds(), 30, 20, 1.0)
	f := baseline.NewFastRT(m, device.CPU().Workers)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Trace(cam, benchImage, benchImage)
	}
}

// BenchmarkTable5Backends compares scalar vs packet traversal (Table 5),
// reporting the last frame's traversal rate.
func BenchmarkTable5Backends(b *testing.B) {
	for _, k := range table5Kernels {
		b.Run(k.name, func(b *testing.B) {
			b.ReportAllocs()
			rdr, opts := table5Renderer(b, k.profile)
			step := rayTraceStep(b, rdr, opts)
			step() // warm frame
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
			b.StopTimer()
			_, st, err := rdr.Render(opts)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(st.MRaysPerSec(), "Mray/s")
		})
	}
}

// TestZeroAlloc pins the steady state of the table benchmarks above at
// 0 allocs/op: each case runs its benchmark's step, after AllocsPerRun's
// own warm-up frame. 20 runs truncate the few one-off allocations a GC
// cycle left running by the warm-up can make (sync.Pool refills,
// runtime cleanups) to 0; one allocation per frame fails.
func TestZeroAlloc(t *testing.T) {
	if dpp.RaceEnabled {
		t.Skip("the race detector drops dpp's pooled launch descriptors, so launches allocate")
	}
	assert := func(t *testing.T, step func()) {
		if n := testing.AllocsPerRun(20, step); n != 0 {
			t.Errorf("%.0f allocs/op, want 0", n)
		}
	}
	t.Run("Table1RayTraceShaded", func(t *testing.T) { assert(t, table1Step(t, device.CPU())) })
	// The device's occupancy instrumentation counts every launch, wake,
	// busy span and item of the same frames without allocating.
	t.Run("Table1RayTraceShaded/stats", func(t *testing.T) {
		dev := device.CPU()
		dev.Stats = new(device.Stats)
		assert(t, table1Step(t, dev))
		if dev.Stats.Launches() == 0 || dev.Stats.Items() == 0 {
			t.Errorf("instrumented frames counted %d launches, %d items", dev.Stats.Launches(), dev.Stats.Items())
		}
	})
	t.Run("Table2RayTraceFull", func(t *testing.T) { assert(t, table2Step(t)) })
	for _, k := range table5Kernels {
		t.Run("Table5Backends/"+k.name, func(t *testing.T) {
			rdr, opts := table5Renderer(t, k.profile)
			assert(t, rayTraceStep(t, rdr, opts))
		})
	}
}

// BenchmarkFig4VolumePhases is the unstructured VR multi-pass workload
// behind Figures 4 and 5.
func BenchmarkFig4VolumePhases(b *testing.B) {
	b.ReportAllocs()
	tm := benchTets(b)
	cam := render.OrbitCamera(tm.Bounds(), 30, 20, 1.0)
	for _, passes := range []int{1, 4} {
		b.Run(fmt.Sprintf("passes%d", passes), func(b *testing.B) {
			b.ReportAllocs()
			rdr := volume.NewUnstructured(device.CPU(), tm)
			for i := 0; i < b.N; i++ {
				if _, _, err := rdr.Render(volume.UnstructuredOptions{
					Width: 96, Height: 96, Camera: cam, SamplesZ: 96, Passes: passes,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig6VsHAVS measures the HAVS comparator (Figure 6).
func BenchmarkFig6VsHAVS(b *testing.B) {
	b.ReportAllocs()
	tm := benchTets(b)
	cam := render.OrbitCamera(tm.Bounds(), 30, 20, 1.0)
	hv := &baseline.HAVS{Mesh: tm, Dev: device.CPU()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := hv.Render(cam, 96, 96, 96); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7VsBunyk measures the connectivity ray-caster (Figure 7).
func BenchmarkFig7VsBunyk(b *testing.B) {
	b.ReportAllocs()
	tm := benchTets(b)
	cam := render.OrbitCamera(tm.Bounds(), 30, 20, 1.0)
	bk := baseline.NewBunyk(tm)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := bk.Render(cam, 64, 64, 96); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable7PhaseIPC is the instrumented VR render of Tables 6-7.
func BenchmarkTable7PhaseIPC(b *testing.B) {
	b.ReportAllocs()
	tm := benchTets(b)
	cam := render.OrbitCamera(tm.Bounds(), 30, 20, 1.8)
	dev, err := device.Profile("cpu")
	if err != nil {
		b.Fatal(err)
	}
	dev.Stats = &device.Stats{}
	rdr := volume.NewUnstructured(dev, tm)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := rdr.Render(volume.UnstructuredOptions{
			Width: 96, Height: 96, Camera: cam, SamplesZ: 96, Passes: 4,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable8Scaling is the strong-scaling workload of Table 8.
func BenchmarkTable8Scaling(b *testing.B) {
	b.ReportAllocs()
	tm := benchTets(b)
	cam := render.OrbitCamera(tm.Bounds(), 30, 20, 1.8)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			rdr := volume.NewUnstructured(device.New("w", workers), tm)
			for i := 0; i < b.N; i++ {
				if _, _, err := rdr.Render(volume.UnstructuredOptions{
					Width: 96, Height: 96, Camera: cam, SamplesZ: 96,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable9VsVisIt measures the VisIt-analogue (Table 9).
func BenchmarkTable9VsVisIt(b *testing.B) {
	b.ReportAllocs()
	tm := benchTets(b)
	cam := render.OrbitCamera(tm.Bounds(), 30, 20, 1.0)
	vv := &baseline.VisItVR{Mesh: tm}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := vv.Render(cam, 64, 64, 96); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable11Burden is one in situ render cycle (Table 11's vis
// column): publish + execute through Strawman.
func BenchmarkTable11Burden(b *testing.B) {
	b.ReportAllocs()
	s, err := sim.New("kripke", 16, 1, 0)
	if err != nil {
		b.Fatal(err)
	}
	s.Step()
	data := conduit.NewNode()
	s.Publish(data)
	sman, err := strawman.Open(nil)
	if err != nil {
		b.Fatal(err)
	}
	defer sman.Close()
	if err := sman.Publish(data); err != nil {
		b.Fatal(err)
	}
	actions := conduit.NewNode()
	add := actions.Append()
	add.Set("action", "add_plot")
	add.Set("var", "phi")
	add.Set("renderer", "raytracer")
	save := actions.Append()
	save.Set("action", "save_image")
	save.Set("fileName", b.TempDir()+"/burden")
	save.Set("width", benchImage)
	save.Set("height", benchImage)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sman.Execute(actions); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig12Compositing is the binary-swap exchange behind Figure 12
// and the compositing model (Table 14).
func BenchmarkFig12Compositing(b *testing.B) {
	b.ReportAllocs()
	const tasks = 4
	imgs := make([]*framebuffer.Image, tasks)
	for r := range imgs {
		imgs[r] = framebuffer.NewImage(benchImage, benchImage)
		for p := 0; p < benchImage*benchImage; p += 2 {
			imgs[r].Set(p%benchImage, p/benchImage, 0.5, 0.5, 0.5, 1, float32(r+1))
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := comm.NewWorld(tasks)
		err := w.Run(func(c *comm.Comm) error {
			_, _, err := composite.BinarySwap().Composite(c, imgs[c.Rank()], composite.DepthOp, nil)
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// benchCorpus builds a small measured corpus once for the model benches.
var benchCorpusSamples []core.Sample

func corpusForBench(b *testing.B) []core.Sample {
	b.Helper()
	if benchCorpusSamples != nil {
		return benchCorpusSamples
	}
	var plan []study.Config
	for _, n := range []int{10, 14, 18} {
		for _, img := range []int{64, 112} {
			for _, r := range []core.Renderer{core.RayTrace, core.Raster, core.Volume} {
				plan = append(plan, study.Config{
					Arch: "cpu", Renderer: r, Sim: "kripke",
					Tasks: 1, ImageSize: img, N: n, Frames: 2,
				})
				plan = append(plan, study.Config{
					Arch: "cpu", Renderer: r, Sim: "kripke",
					Tasks: 2, ImageSize: img, N: n, Frames: 2,
				})
			}
		}
	}
	rows, err := study.Run(plan, nil)
	if err != nil {
		b.Fatal(err)
	}
	benchCorpusSamples = study.Samples(rows)
	return benchCorpusSamples
}

// BenchmarkTable12ModelFit times fitting all models (Tables 12 and 17).
func BenchmarkTable12ModelFit(b *testing.B) {
	b.ReportAllocs()
	samples := corpusForBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.FitModels(samples); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable13CrossValidation times the 3-fold CV of Table 13/Fig 11.
func BenchmarkTable13CrossValidation(b *testing.B) {
	b.ReportAllocs()
	samples := corpusForBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.CrossValidate(samples, "cpu", core.RayTrace, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable15HeldOut times one held-out prediction (Table 15).
func BenchmarkTable15HeldOut(b *testing.B) {
	b.ReportAllocs()
	samples := corpusForBench(b)
	set, err := core.FitModels(samples)
	if err != nil {
		b.Fatal(err)
	}
	mp := core.CalibrateMapping(samples)
	in := mp.Map(core.Config{N: 256, Tasks: 1024, Width: 2048, Height: 2048, Renderer: core.RayTrace})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = set.Models[core.Key("cpu", core.RayTrace)].Predict(in)
	}
}

// BenchmarkFig14Budget times the images-per-budget sweep (Figure 14).
func BenchmarkFig14Budget(b *testing.B) {
	b.ReportAllocs()
	samples := corpusForBench(b)
	set, err := core.FitModels(samples)
	if err != nil {
		b.Fatal(err)
	}
	mp := core.CalibrateMapping(samples)
	sizes := []int{1024, 1536, 2048, 2560, 3072, 4096}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := set.ImagesInBudget("cpu", core.RayTrace, mp, 200, 32, 60, sizes); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig15RTvsRast times the comparison grid (Figure 15).
func BenchmarkFig15RTvsRast(b *testing.B) {
	b.ReportAllocs()
	samples := corpusForBench(b)
	set, err := core.FitModels(samples)
	if err != nil {
		b.Fatal(err)
	}
	mp := core.CalibrateMapping(samples)
	imgs := []int{384, 1024, 2048, 4096}
	datas := []int{100, 200, 300, 400, 500}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := set.CompareRTvsRaster("cpu", mp, 32, 100, imgs, datas); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benches for the design choices ----------------------------

// BenchmarkAblationBVHBuilders compares build cost of the two builders.
func BenchmarkAblationBVHBuilders(b *testing.B) {
	b.ReportAllocs()
	m := benchSurface(b)
	for _, builder := range []bvh.Builder{bvh.LBVH, bvh.SAH} {
		b.Run(builder.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bvh.Build(device.CPU(), m, builder)
			}
		})
	}
}

// BenchmarkAblationBVHTraversal compares trace speed over tree quality.
func BenchmarkAblationBVHTraversal(b *testing.B) {
	b.ReportAllocs()
	m := benchSurface(b)
	cam := render.OrbitCamera(m.Bounds(), 30, 20, 1.0)
	for _, builder := range []bvh.Builder{bvh.LBVH, bvh.SAH} {
		rdr := raytrace.NewWithBuilder(device.CPU(), m, builder)
		b.Run(builder.String(), func(b *testing.B) {
			b.ReportAllocs()
			opts := raytrace.Options{
				Width: benchImage, Height: benchImage, Camera: cam,
				Workload: raytrace.Workload1,
			}
			for i := 0; i < b.N; i++ {
				if _, _, err := rdr.Render(opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationCompositors compares the exchange algorithms.
func BenchmarkAblationCompositors(b *testing.B) {
	b.ReportAllocs()
	const tasks = 4
	imgs := make([]*framebuffer.Image, tasks)
	for r := range imgs {
		imgs[r] = framebuffer.NewImage(benchImage, benchImage)
		for p := r; p < benchImage*benchImage; p += 3 {
			imgs[r].Set(p%benchImage, p/benchImage, 1, 0, 0, 1, float32(r+1))
		}
	}
	for name, k := range map[string]*composite.Compositor{
		"binaryswap": composite.BinarySwap(),
		"directsend": composite.DirectSend(tasks),
		"radix4":     composite.RadixK(4),
	} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				w := comm.NewWorld(tasks)
				err := w.Run(func(c *comm.Comm) error {
					_, _, err := k.Composite(c, imgs[c.Rank()], composite.DepthOp, nil)
					return err
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationRasterizer measures the object-order path (Figure 15's
// other contender) on the same scene as Table 1.
func BenchmarkAblationRasterizer(b *testing.B) {
	b.ReportAllocs()
	m := benchSurface(b)
	rdr := raster.New(device.CPU(), m)
	opts := raster.Options{
		Width: benchImage, Height: benchImage,
		Camera: render.OrbitCamera(m.Bounds(), 30, 20, 1.0),
	}
	// Warm frame: steady-state allocations only in the timed loop.
	if _, _, err := rdr.Render(opts); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := rdr.Render(opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStructuredVolume measures the Chapter V volume renderer.
func BenchmarkStructuredVolume(b *testing.B) {
	b.ReportAllocs()
	ds, err := synthdata.ByName("nek")
	if err != nil {
		b.Fatal(err)
	}
	g := synthdata.Grid(ds.FieldName, ds.Func, benchGrid, benchGrid, benchGrid, synthdata.UnitBounds())
	vr, err := volume.NewStructured(device.CPU(), g, ds.FieldName)
	if err != nil {
		b.Fatal(err)
	}
	opts := volume.StructuredOptions{
		Width: benchImage, Height: benchImage,
		Camera: render.OrbitCamera(g.Bounds(), 30, 20, 1.0), Samples: 160,
	}
	// Warm frame: steady-state allocations only in the timed loop.
	if _, _, err := vr.Render(opts); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := vr.Render(opts); err != nil {
			b.Fatal(err)
		}
	}
}
