package main

import (
	"fmt"
	"runtime"
	"time"

	"insitu/internal/baseline"
	"insitu/internal/bvh"
	"insitu/internal/core"
	"insitu/internal/device"
	"insitu/internal/mesh"
	"insitu/internal/mesh/synthdata"
	"insitu/internal/render"
	"insitu/internal/render/raytrace"
	"insitu/internal/render/volume"
	"insitu/internal/scenario"
)

// studyDataset is a named surface scene at a given grid resolution,
// standing in for the paper's RM / LT / Seismic / graphics models.
type studyDataset struct {
	label string
	name  string
	n     int
}

func surfaceDatasets(short bool) []studyDataset {
	if short {
		return []studyDataset{
			{"RM small", "rm", 14},
			{"LT", "lt", 14},
			{"Nek", "nek", 14},
		}
	}
	return []studyDataset{
		{"RM large", "rm", 32},
		{"RM medium", "rm", 24},
		{"RM small", "rm", 18},
		{"LT", "lt", 24},
		{"Seismic", "seismic", 26},
		{"Enzo", "enzo", 24},
		{"Nek", "nek", 24},
	}
}

func buildSurface(ds studyDataset) (*mesh.TriangleMesh, error) {
	d, err := synthdata.ByName(ds.name)
	if err != nil {
		return nil, err
	}
	g := synthdata.Grid(d.FieldName, d.Func, ds.n, ds.n, ds.n, synthdata.UnitBounds())
	return g.Isosurface(device.CPU(), d.FieldName, d.Isovalue, mesh.IsoOptions{})
}

func imageSize(short bool) int {
	if short {
		return 128
	}
	return 256
}

// fpsFloor is the least wall time fps spends timing one cell: a few
// frames of a small scene last a few milliseconds, short enough for one
// scheduler hiccup to reorder the profiles a table compares.
const fpsFloor = 500 * time.Millisecond

// fps times repeated renders (first discarded) until at least frames
// renders and fpsFloor of wall time have passed, and returns frames/sec.
// It collects first, so the garbage of building the scene is not
// collected on the timed frames.
func fps(renderFn func() error, frames int) (float64, error) {
	runtime.GC()
	if err := renderFn(); err != nil { // warm-up
		return 0, err
	}
	start := time.Now()
	n := 0
	for ; n < frames || time.Since(start) < fpsFloor; n++ {
		if err := renderFn(); err != nil {
			return 0, err
		}
	}
	return float64(n) / time.Since(start).Seconds(), nil
}

func init() {
	register("table1", "ray tracing frames/s with shading (WORKLOAD2), profile x dataset", func(e *env) error {
		return rtFPSTable(e, raytrace.Workload2, device.ProfileNames())
	})
	// The paper's Table 2 uses two machines.
	register("table2", "ray tracing frames/s with the full algorithm (WORKLOAD3), serial vs cpu profile", func(e *env) error {
		return rtFPSTable(e, raytrace.Workload3, []string{"serial", "cpu"})
	})
	register("table3", "DPP ray tracer vs OptiX-analogue (queue+packet) Mrays/s", func(e *env) error {
		return vsTunedTable(e, "queuert")
	})
	register("table4", "DPP ray tracer vs Embree-analogue (fused SAH) Mrays/s", func(e *env) error {
		return vsTunedTable(e, "fastrt")
	})
	register("table5", "primary-ray traversal (WORKLOAD1), cpu-scalar vs cpu profile: scalar loop vs four-ray packets (OpenMP vs ISPC)", table5Backends)
	register("fig4", "unstructured VR phase times vs pass count (cpu profile)", func(e *env) error {
		return volumePhaseFigure(e, "cpu")
	})
	register("fig5", "unstructured VR phase times vs pass count (serial profile)", func(e *env) error {
		return volumePhaseFigure(e, "serial")
	})
	register("fig6", "DPP volume renderer vs HAVS-analogue", fig6HAVS)
	register("fig7", "DPP volume renderer vs connectivity ray-caster (Bunyk)", fig7Bunyk)
	register("table6", "VR kernel time / state / occupancy (cpu profile, 4 passes)", table6Kernels)
	// Tets have no packet kernel, so serial and cpu are Table 7's two
	// distinct executions.
	register("table7", "VR phase time and throughput (IPC analogue), serial vs cpu profile", table7IPC)
	register("table8", "VR strong scaling over worker counts (raw and total time)", table8Scaling)
	register("table9", "DPP-VR vs VisIt-analogue per-phase times (serial)", table9VisIt)
}

func rtFPSTable(e *env, wl raytrace.Workload, archs []string) error {
	frames := 4
	if e.short {
		frames = 2
	}
	size := imageSize(e.short)
	printHeader(append([]string{"dataset", "tris"}, archs...)...)
	for _, ds := range surfaceDatasets(e.short) {
		m, err := buildSurface(ds)
		if err != nil {
			return err
		}
		cam := render.OrbitCamera(m.Bounds(), 30, 20, 1.0)
		row := cell(ds.label) + cell(m.NumTriangles())
		for _, arch := range archs {
			dev, err := device.Profile(arch)
			if err != nil {
				return err
			}
			// Both workloads measure through the ray tracing backend, the
			// same scenario path the study measures.
			backend, err := scenario.Lookup(core.RayTrace)
			if err != nil {
				return err
			}
			sc := scenario.SceneFromSurface(dev, m, cam, size, size)
			sc.RTWorkload = int(wl)
			runner, err := backend.Prepare(sc)
			if err != nil {
				return err
			}
			var in core.Inputs
			rate, err := fps(func() error {
				_, _, err := runner.RenderFrame(&in)
				return err
			}, frames)
			if err != nil {
				return err
			}
			row += cell(fmt.Sprintf("%.1f", rate))
		}
		fmt.Fprintln(stdout, row)
	}
	return nil
}

func vsTunedTable(e *env, tuned string) error {
	w, h := imageSize(e.short)*2, imageSize(e.short)*2 // WORKLOAD1 uses bigger images
	printHeader("dataset", "tris", "dpp Mray/s", tuned+" Mray/s", "ratio")
	for _, ds := range surfaceDatasets(e.short) {
		m, err := buildSurface(ds)
		if err != nil {
			return err
		}
		cam := render.OrbitCamera(m.Bounds(), 30, 20, 1.0)
		dev, err := device.Profile("cpu")
		if err != nil {
			return err
		}
		rdr := raytrace.New(dev, m)
		opts := raytrace.Options{Width: w, Height: h, Camera: cam, Workload: raytrace.Workload1}
		if _, _, err := rdr.Render(opts); err != nil { // warm-up
			return err
		}
		_, st, err := rdr.Render(opts)
		if err != nil {
			return err
		}
		dppRate := st.MRaysPerSec()

		var tunedRate float64
		switch tuned {
		case "fastrt":
			f := baseline.NewFastRT(m, dev.Workers)
			f.Trace(cam, w, h)
			tunedRate = f.Trace(cam, w, h).MRaysPerSec()
		case "queuert":
			q := baseline.NewQueueRT(m, dev.Workers)
			q.Trace(cam, w, h)
			tunedRate = q.Trace(cam, w, h).MRaysPerSec()
		}
		fmt.Fprintln(stdout, cell(ds.label)+cell(m.NumTriangles())+
			cell(fmt.Sprintf("%.2f", dppRate))+cell(fmt.Sprintf("%.2f", tunedRate))+
			cell(fmt.Sprintf("%.2fx", tunedRate/dppRate)))
	}
	return nil
}

// table5Backends renders WORKLOAD1 (primary rays only) frames on the
// cpu-scalar profile, whose traversal is the scalar loop
// (IntersectClosestScratch, one ray at a time), and on the cpu profile,
// whose traversal is IntersectClosest4 (four rays at a time) on an AVX2
// host, and reads each renderer's own traversal phase. Each rate is the
// fastest of table5Passes frames after a warm-up.
func table5Backends(e *env) error {
	w, h := imageSize(e.short)*2, imageSize(e.short)*2
	kernel := "the AVX2 packet kernel ran on cpu"
	if !bvh.Packets() {
		kernel = "no AVX2 on this host: both profiles ran the scalar loop"
	}
	fmt.Fprintf(stdout, "%dx%d primary rays, %d workers; %s\n", w, h, runtime.NumCPU(), kernel)
	printHeader("dataset", "cpu-scalar Mray/s", "cpu Mray/s", "speedup")
	for _, ds := range surfaceDatasets(e.short) {
		m, err := buildSurface(ds)
		if err != nil {
			return err
		}
		opts := raytrace.Options{Width: w, Height: h, Camera: render.OrbitCamera(m.Bounds(), 30, 20, 1.0), Workload: raytrace.Workload1}
		var rate [2]float64
		for i, name := range []string{"cpu-scalar", "cpu"} {
			dev, err := device.Profile(name)
			if err != nil {
				return err
			}
			rdr := raytrace.New(dev, m)
			for pass := 0; pass <= table5Passes; pass++ { // pass 0 warms up
				_, st, err := rdr.Render(opts)
				if err != nil {
					return err
				}
				if pass > 0 {
					rate[i] = max(rate[i], st.MRaysPerSec())
				}
			}
		}
		fmt.Fprintln(stdout, cell(ds.label)+cell(fmt.Sprintf("%.2f", rate[0]))+
			cell(fmt.Sprintf("%.2f", rate[1]))+cell(fmt.Sprintf("%.2fx", rate[1]/rate[0])))
	}
	return nil
}

// table5Passes is how many timed frames each Table 5 rate takes the
// fastest of.
const table5Passes = 5

// tetScene builds a tetrahedralized volume dataset.
func tetScene(name string, n int) (*mesh.TetMesh, error) {
	d, err := synthdata.ByName(name)
	if err != nil {
		return nil, err
	}
	g := synthdata.Grid(d.FieldName, d.Func, n, n, n, synthdata.UnitBounds())
	return g.Tetrahedralize(d.FieldName)
}

func volumeDatasets(short bool) []studyDataset {
	if short {
		return []studyDataset{{"Enzo-small", "enzo", 10}, {"Nek", "nek", 10}}
	}
	return []studyDataset{
		{"Enzo-small", "enzo", 12},
		{"Enzo-medium", "enzo", 18},
		{"Nek", "nek", 16},
		{"Enzo-large", "enzo", 24},
	}
}

func volumePhaseFigure(e *env, arch string) error {
	dev, err := device.Profile(arch)
	if err != nil {
		return err
	}
	size := imageSize(e.short)
	phases := []string{"init", "passselect", "screenspace", "sampling", "composite"}
	printHeader(append([]string{"dataset", "camera", "passes"}, phases...)...)
	for _, ds := range volumeDatasets(e.short) {
		tm, err := tetScene(ds.name, ds.n)
		if err != nil {
			return err
		}
		for camName, zoom := range map[string]float64{"far": 0.8, "close": 1.8} {
			cam := render.OrbitCamera(tm.Bounds(), 30, 20, zoom)
			for _, passes := range []int{1, 4, 8, 16} {
				rdr := volume.NewUnstructured(dev, tm)
				_, st, err := rdr.Render(volume.UnstructuredOptions{
					Width: size, Height: size, Camera: cam,
					SamplesZ: 160, Passes: passes,
				})
				if err != nil {
					return err
				}
				row := cell(ds.label) + cell(camName) + cell(passes)
				for _, p := range phases {
					row += cell(fmt.Sprintf("%.4fs", st.Phases.Get(p).Seconds()))
				}
				fmt.Fprintln(stdout, row)
			}
		}
	}
	return nil
}

func fig6HAVS(e *env) error {
	return volumeComparison(e, "havs", func(tm *mesh.TetMesh, cam render.Camera, size int) (time.Duration, error) {
		hv := &baseline.HAVS{Mesh: tm, Dev: device.CPU()}
		_, st, err := hv.Render(cam, size, size, 160)
		return st.Total, err
	})
}

func fig7Bunyk(e *env) error {
	cache := map[*mesh.TetMesh]*baseline.Bunyk{}
	return volumeComparison(e, "ray-caster", func(tm *mesh.TetMesh, cam render.Camera, size int) (time.Duration, error) {
		bk, ok := cache[tm]
		if !ok {
			bk = baseline.NewBunyk(tm)
			cache[tm] = bk
			fmt.Fprintf(stdout, "  (connectivity preprocess for %d tets: %.3fs, excluded as in the paper)\n",
				tm.NumTets(), bk.PreprocessTime.Seconds())
		}
		_, st, err := bk.Render(cam, size, size, 160)
		return st.Total, err
	})
}

func volumeComparison(e *env, other string, run func(*mesh.TetMesh, render.Camera, int) (time.Duration, error)) error {
	size := imageSize(e.short) / 2 // comparators include serial paths
	backend, err := scenario.Lookup(core.VolumeUnstructured)
	if err != nil {
		return err
	}
	printHeader("dataset", "camera", "dpp-vr", other, "ratio")
	for _, ds := range volumeDatasets(e.short) {
		tm, err := tetScene(ds.name, ds.n)
		if err != nil {
			return err
		}
		for _, camSpec := range []struct {
			name string
			zoom float64
		}{{"far", 0.8}, {"close", 1.8}} {
			cam := render.OrbitCamera(tm.Bounds(), 30, 20, camSpec.zoom)
			// The DPP side renders through the scenario backend — the same
			// path the study measures — at the comparison's sampling density.
			sc := scenario.SceneFromTets(device.CPU(), tm, cam, size, size)
			sc.SamplesZ = 160
			runner, err := backend.Prepare(sc)
			if err != nil {
				return err
			}
			var in core.Inputs
			dpp, _, err := runner.RenderFrame(&in)
			if err != nil {
				return err
			}
			otherT, err := run(tm, cam, size)
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, cell(ds.label)+cell(camSpec.name)+
				cell(fmt.Sprintf("%.3fs", dpp.Seconds()))+
				cell(fmt.Sprintf("%.3fs", otherT.Seconds()))+
				cell(fmt.Sprintf("%.2fx", otherT.Seconds()/dpp.Seconds())))
		}
	}
	return nil
}

func table6Kernels(e *env) error {
	dev, err := device.Profile("cpu")
	if err != nil {
		return err
	}
	n := 18
	if e.short {
		n = 12
	}
	tm, err := tetScene("enzo", n)
	if err != nil {
		return err
	}
	cam := render.OrbitCamera(tm.Bounds(), 30, 20, 1.8)
	size := imageSize(e.short)
	// Instrument each phase separately via device stats around a 4-pass
	// render. State size is the kernel working-set struct size, the
	// substitute for registers-per-thread.
	dev.Stats = &device.Stats{}
	rdr := volume.NewUnstructured(dev, tm)
	start := time.Now()
	_, st, err := rdr.Render(volume.UnstructuredOptions{
		Width: size, Height: size, Camera: cam, SamplesZ: 160, Passes: 4,
	})
	if err != nil {
		return err
	}
	wall := time.Since(start)
	occ := dev.Stats.Occupancy(wall, dev.Workers)
	printHeader("kernel", "time", "state B", "occupancy")
	stateBytes := map[string]int{"screenspace": 96, "sampling": 152, "composite": 72}
	for _, phase := range []string{"screenspace", "sampling", "composite"} {
		fmt.Fprintln(stdout, cell(phase)+
			cell(fmt.Sprintf("%.4fs", st.Phases.Get(phase).Seconds()))+
			cell(stateBytes[phase])+
			cell(fmt.Sprintf("%.0f%%", occ*100)))
	}
	fmt.Fprintf(stdout, "(pass selection omitted: composed of multiple primitives, as in the paper)\n")
	return nil
}

func table7IPC(e *env) error {
	n := 18
	if e.short {
		n = 12
	}
	tm, err := tetScene("enzo", n)
	if err != nil {
		return err
	}
	cam := render.OrbitCamera(tm.Bounds(), 30, 20, 1.8)
	size := imageSize(e.short)
	printHeader("phase", "serial time", "serial items/us", "cpu time", "cpu items/us")
	type result struct {
		times map[string]float64
		thru  float64
	}
	results := map[string]result{}
	for _, arch := range []string{"serial", "cpu"} {
		dev, err := device.Profile(arch)
		if err != nil {
			return err
		}
		dev.Stats = &device.Stats{}
		rdr := volume.NewUnstructured(dev, tm)
		_, st, err := rdr.Render(volume.UnstructuredOptions{
			Width: size, Height: size, Camera: cam, SamplesZ: 160, Passes: 4,
		})
		if err != nil {
			return err
		}
		times := map[string]float64{}
		for _, p := range []string{"passselect", "screenspace", "sampling", "composite"} {
			times[p] = st.Phases.Get(p).Seconds()
		}
		results[arch] = result{times: times, thru: dev.Stats.Throughput()}
	}
	for _, p := range []string{"passselect", "screenspace", "sampling", "composite"} {
		fmt.Fprintln(stdout, cell(p)+
			cell(fmt.Sprintf("%.4fs", results["serial"].times[p]))+
			cell(fmt.Sprintf("%.1f", results["serial"].thru))+
			cell(fmt.Sprintf("%.4fs", results["cpu"].times[p]))+
			cell(fmt.Sprintf("%.1f", results["cpu"].thru)))
	}
	return nil
}

func table8Scaling(e *env) error {
	n := 20
	if e.short {
		n = 12
	}
	tm, err := tetScene("enzo", n)
	if err != nil {
		return err
	}
	cam := render.OrbitCamera(tm.Bounds(), 30, 20, 1.8)
	size := imageSize(e.short)
	workers := []int{1, 2, 4, 8}
	printHeader("workers", "raw time", "total time")
	for _, w := range workers {
		dev := device.New(fmt.Sprintf("w%d", w), w)
		rdr := volume.NewUnstructured(dev, tm)
		opts := volume.UnstructuredOptions{Width: size, Height: size, Camera: cam, SamplesZ: 160}
		if _, _, err := rdr.Render(opts); err != nil {
			return err
		}
		start := time.Now()
		if _, _, err := rdr.Render(opts); err != nil {
			return err
		}
		raw := time.Since(start).Seconds()
		fmt.Fprintln(stdout, cell(w)+cell(fmt.Sprintf("%.3fs", raw))+
			cell(fmt.Sprintf("%.3fs", raw*float64(w))))
	}
	fmt.Fprintln(stdout, "(total time = raw x workers; flat total time is perfect scaling)")
	return nil
}

func table9VisIt(e *env) error {
	size := imageSize(e.short) / 2
	printHeader("data/view", "sw", "SS", "S", "C", "TOT")
	for _, ds := range volumeDatasets(e.short) {
		tm, err := tetScene(ds.name, ds.n)
		if err != nil {
			return err
		}
		for _, camSpec := range []struct {
			name string
			zoom float64
		}{{"far", 0.8}, {"close", 1.8}} {
			cam := render.OrbitCamera(tm.Bounds(), 30, 20, camSpec.zoom)
			label := ds.label + "/" + camSpec.name

			vv := &baseline.VisItVR{Mesh: tm}
			_, vst, err := vv.Render(cam, size, size, 160)
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, cell(label)+cell("VisIt")+
				cell(fmt.Sprintf("%.3f", vst.ScreenSpace.Seconds()))+
				cell(fmt.Sprintf("%.3f", vst.Sampling.Seconds()))+
				cell(fmt.Sprintf("%.3f", vst.Composite.Seconds()))+
				cell(fmt.Sprintf("%.3f", vst.Total.Seconds())))

			rdr := volume.NewUnstructured(device.Serial(), tm)
			_, st, err := rdr.Render(volume.UnstructuredOptions{
				Width: size, Height: size, Camera: cam, SamplesZ: 160,
			})
			if err != nil {
				return err
			}
			ss := st.Phases.Get("init") + st.Phases.Get("passselect") + st.Phases.Get("screenspace")
			fmt.Fprintln(stdout, cell(label)+cell("DPP-VR")+
				cell(fmt.Sprintf("%.3f", ss.Seconds()))+
				cell(fmt.Sprintf("%.3f", st.Phases.Get("sampling").Seconds()))+
				cell(fmt.Sprintf("%.3f", st.Phases.Get("composite").Seconds()))+
				cell(fmt.Sprintf("%.3f", st.Phases.Total().Seconds())))
		}
	}
	return nil
}
