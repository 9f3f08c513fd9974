package raytrace_test

import (
	"fmt"
	"math"
	"testing"

	"insitu/internal/device"
	"insitu/internal/mesh"
	"insitu/internal/render"
	"insitu/internal/render/raytrace"
	"insitu/internal/scenario"
)

// simSurface is the surface a ray-traced frame of sim at n renders, as
// the serving path builds it, and its bounds.
func simSurface(tb testing.TB, sim string, n int) (*mesh.TriangleMesh, render.Camera) {
	tb.Helper()
	sd, err := scenario.BuildShard(sim, n, 1, 0, 1)
	if err != nil {
		tb.Fatal(err)
	}
	m, err := sd.Mesh.Surface(sd.Field, sd.Values)
	if err != nil {
		tb.Fatal(err)
	}
	return m, render.OrbitCamera(sd.LocalBounds, 30, 20, 1)
}

// TestQuadKernelsMatchScalarFrames renders Workloads 1-3 of a structured
// (kripke) and an unstructured (lulesh) simulation's surface at several
// sizes and cameras, with the four-lane raygen, traversal and shade
// kernels and again on the device with Scalar set: colors, depths and
// counters are the same bits. Sizes that are not multiples of four leave
// chunk heads and tails to the scalar loops.
func TestQuadKernelsMatchScalarFrames(t *testing.T) {
	for _, sim := range []string{"kripke", "lulesh"} {
		m, _ := simSurface(t, sim, 12)
		dev := device.New("quads", 3)
		r := raytrace.New(dev, m)
		for _, c := range []struct {
			wl           raytrace.Workload
			w, h         int
			az, el, zoom float64
		}{
			{raytrace.Workload2, 64, 64, 30, 20, 1}, {raytrace.Workload2, 61, 37, 137, -40, 2.5},
			{raytrace.Workload3, 33, 17, 250, 60, 0.7}, {raytrace.Workload3, 48, 48, 30, 20, 1},
			{raytrace.Workload1, 50, 31, 80, 10, 1.3}, {raytrace.Workload2, 1, 1, 30, 20, 1},
		} {
			opts := raytrace.Options{Width: c.w, Height: c.h, Workload: c.wl,
				Camera: render.OrbitCamera(m.Bounds(), c.az, c.el, c.zoom)}
			name := fmt.Sprintf("%s W%d %dx%d az %v", sim, c.wl, c.w, c.h, c.az)
			var colors [2][]float32
			var depths [2][]float32
			var stats [2]raytrace.Stats
			for k, scalar := range []bool{false, true} {
				dev.Scalar = scalar
				img, st, err := r.Render(opts)
				if err != nil {
					t.Fatal(err)
				}
				colors[k] = append([]float32(nil), img.Color...)
				depths[k] = append([]float32(nil), img.Depth...)
				stats[k] = *st
			}
			if c.wl != raytrace.Workload1 && c.w > 1 && stats[0].ActivePixels == 0 {
				t.Fatalf("%s: no active pixels; the check is vacuous", name)
			}
			for i := range colors[0] {
				if math.Float32bits(colors[0][i]) != math.Float32bits(colors[1][i]) {
					t.Fatalf("%s: color word %d = %v with the kernels, %v without", name, i, colors[0][i], colors[1][i])
				}
			}
			for i := range depths[0] {
				if math.Float32bits(depths[0][i]) != math.Float32bits(depths[1][i]) {
					t.Fatalf("%s: depth %d = %v with the kernels, %v without", name, i, depths[0][i], depths[1][i])
				}
			}
			p, s := stats[0], stats[1]
			if p.ActivePixels != s.ActivePixels || p.PrimaryRays != s.PrimaryRays || p.TotalRays != s.TotalRays ||
				p.NodeTests != s.NodeTests || p.TriTests != s.TriTests || p.Objects != s.Objects {
				t.Errorf("%s: stats %+v with the kernels, %+v without", name, p, s)
			}
		}
	}
}

// BenchmarkWorkload2Phases renders a kripke n=16 Workload2 frame at 128²
// and 256² on each device profile and reports each phase's mean time
// per frame (raygen-ms and so on) next to ns/op. cpu and cpu-scalar
// differ only in the kernels; to compare a change with its parent, run
// this file in both trees.
func BenchmarkWorkload2Phases(b *testing.B) {
	m, cam := simSurface(b, "kripke", 16)
	for _, size := range []int{128, 256} {
		for _, profile := range device.ProfileNames() {
			b.Run(fmt.Sprintf("%d/%s", size, profile), func(b *testing.B) {
				dev, err := device.Profile(profile)
				if err != nil {
					b.Fatal(err)
				}
				r := raytrace.New(dev, m)
				opts := raytrace.Options{Width: size, Height: size, Camera: cam, Workload: raytrace.Workload2}
				phases := map[string]float64{}
				var names []string
				b.ResetTimer()
				for range b.N {
					_, st, err := r.Render(opts)
					if err != nil {
						b.Fatal(err)
					}
					names = st.Phases.Names()
					for _, p := range names {
						phases[p] += st.Phases.Get(p).Seconds()
					}
				}
				for _, p := range names {
					b.ReportMetric(phases[p]*1e3/float64(b.N), p+"-ms")
				}
			})
		}
	}
}
