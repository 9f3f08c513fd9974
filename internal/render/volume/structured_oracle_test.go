package volume

import (
	"math"
	"math/rand"
	"testing"

	"insitu/internal/conduit"
	"insitu/internal/device"
	"insitu/internal/framebuffer"
	"insitu/internal/mesh"
	"insitu/internal/render"
	"insitu/internal/sim"
	"insitu/internal/vecmath"
)

// castKernelOracle is the ray-cast loop castKernel replaced, kept
// verbatim: a sampler call per sample (sampleOracle) and
// TransferFunction.Sample per sample. Every image the new kernel makes
// must match it bit for bit.
func (a *structuredArena) castKernelOracle(plo, phi int) {
	opts := &a.opts
	sampler := a.r.sampler
	step := a.step
	exp := step / a.refStep
	var localSamples int64
	for p := plo; p < phi; p++ {
		px := float64(p % opts.Width)
		py := float64(p / opts.Width)
		ray := a.raygen.Ray(px, py, 0.5, 0.5)
		t0, t1, ok := a.bounds.HitRay(ray.Orig, ray.InvDir(), 0, math.Inf(1))
		if !ok {
			continue
		}
		var cr, cg, cb, ca float64
		firstT := float32(framebuffer.MaxDepth)
		for t := t0 + step/2; t < t1; t += step {
			pos := ray.At(t)
			v, inside := sampler.sampleOracle(pos)
			if !inside {
				continue
			}
			localSamples++
			sr, sg, sb, sa := a.tf.Sample(a.norm.Normalize(v))
			if sa <= 0 {
				continue
			}
			// Correct opacity for the step size, then front-to-back
			// "under" accumulation in premultiplied space. Pow(x, 1) is
			// exactly x, so the unit-exponent case (the default sample
			// budget) skips the call with identical results.
			om := 1 - sa
			if exp != 1 {
				om = math.Pow(om, exp)
			}
			sa = 1 - om
			w := (1 - ca) * sa
			cr += w * sr
			cg += w * sg
			cb += w * sb
			ca += w
			if firstT == framebuffer.MaxDepth {
				firstT = float32(t)
			}
			if ca >= 0.99 {
				break
			}
		}
		if ca > 0 {
			a.img.Set(int(px), int(py), float32(cr), float32(cg), float32(cb), float32(ca), firstT)
		}
	}
	a.totalSamples.Add(localSamples)
}

// sampleOracle is the per-sample trilinear lookup castKernel replaced,
// kept verbatim.
func (s *gridSampler) sampleOracle(pos vecmath.Vec3) (float64, bool) {
	g := s.g
	var i, j, k int
	var fx, fy, fz float64
	if s.uniform {
		rel := pos.Sub(g.Origin).Mul(s.invSpace)
		if rel.X < 0 || rel.Y < 0 || rel.Z < 0 {
			return 0, false
		}
		i, j, k = int(rel.X), int(rel.Y), int(rel.Z)
		if i >= g.Nx-1 {
			if rel.X > float64(g.Nx-1)+1e-9 {
				return 0, false
			}
			i = g.Nx - 2
		}
		if j >= g.Ny-1 {
			if rel.Y > float64(g.Ny-1)+1e-9 {
				return 0, false
			}
			j = g.Ny - 2
		}
		if k >= g.Nz-1 {
			if rel.Z > float64(g.Nz-1)+1e-9 {
				return 0, false
			}
			k = g.Nz - 2
		}
		fx, fy, fz = rel.X-float64(i), rel.Y-float64(j), rel.Z-float64(k)
	} else {
		var ok bool
		i, fx, ok = locateRect(g.XCoords, pos.X)
		if !ok {
			return 0, false
		}
		j, fy, ok = locateRect(g.YCoords, pos.Y)
		if !ok {
			return 0, false
		}
		k, fz, ok = locateRect(g.ZCoords, pos.Z)
		if !ok {
			return 0, false
		}
	}
	v000 := s.vals[g.PointIndex(i, j, k)]
	v100 := s.vals[g.PointIndex(i+1, j, k)]
	v010 := s.vals[g.PointIndex(i, j+1, k)]
	v110 := s.vals[g.PointIndex(i+1, j+1, k)]
	v001 := s.vals[g.PointIndex(i, j, k+1)]
	v101 := s.vals[g.PointIndex(i+1, j, k+1)]
	v011 := s.vals[g.PointIndex(i, j+1, k+1)]
	v111 := s.vals[g.PointIndex(i+1, j+1, k+1)]
	c00 := v000 + fx*(v100-v000)
	c10 := v010 + fx*(v110-v010)
	c01 := v001 + fx*(v101-v001)
	c11 := v011 + fx*(v111-v011)
	c0 := c00 + fy*(c10-c00)
	c1 := c01 + fy*(c11-c01)
	return c0 + fz*(c1-c0), true
}

// simGrid steps the named proxy once on one task and returns its
// structured block with the primary field attached as vertex data —
// the block the volume backend renders for that sim.
func simGrid(tb testing.TB, name string, n int) (*mesh.StructuredGrid, string) {
	tb.Helper()
	s, err := sim.New(name, n, 1, 0)
	if err != nil {
		tb.Fatal(err)
	}
	s.Step()
	node := conduit.NewNode()
	s.Publish(node)
	var g *mesh.StructuredGrid
	switch ctype, _ := node.String("coords/type"); ctype {
	case "uniform":
		g = &mesh.StructuredGrid{
			Nx: node.IntOr("coords/dims/i", 0), Ny: node.IntOr("coords/dims/j", 0), Nz: node.IntOr("coords/dims/k", 0),
			Origin: vecmath.V(node.FloatOr("coords/origin/x", 0), node.FloatOr("coords/origin/y", 0), node.FloatOr("coords/origin/z", 0)),
			Spacing: vecmath.V(node.FloatOr("coords/spacing/dx", 1), node.FloatOr("coords/spacing/dy", 1),
				node.FloatOr("coords/spacing/dz", 1)),
			Fields: map[string]*mesh.Field{},
		}
	case "rectilinear":
		xs, _ := node.Float64Slice("coords/x")
		ys, _ := node.Float64Slice("coords/y")
		zs, _ := node.Float64Slice("coords/z")
		g = mesh.NewRectilinearGrid(xs, ys, zs)
	default:
		tb.Fatalf("%s publishes %q coordinates, not a structured block", name, ctype)
	}
	field := s.PrimaryField()
	vals, err := node.Float64Slice("fields/" + field + "/values")
	if err != nil {
		tb.Fatal(err)
	}
	if err := g.AddField(field, mesh.VertexAssoc, append([]float64(nil), vals...)); err != nil {
		tb.Fatal(err)
	}
	return g, field
}

// TestStructuredKernelMatchesOracle renders each case with castKernel,
// re-renders the same frame parameters with castKernelOracle, and
// requires every color and depth bit and the sample count to agree.
// The cases reach every branch the rewrite touched: uniform and
// rectilinear lookup, the unit and math.Pow opacity exponents, transfer
// function segments including a duplicate stop, values at or below the
// first stop and above the last, and NaN field values. Code generation
// differs by GOAMD64, so `make oracles` runs it at v1 and v3.
func TestStructuredKernelMatchesOracle(t *testing.T) {
	odd := framebuffer.NewTransferFunction(
		framebuffer.NewColorMap([]float64{0.1, 0.4, 0.4, 0.9}, []vecmath.Vec3{
			{X: 0.9, Y: 0.1, Z: 0.2}, {X: 0.2, Y: 0.8, Z: 0.3}, {X: 0.1, Y: 0.3, Z: 0.9}, {X: 1, Y: 1, Z: 0.5},
		}),
		[]float64{0.2, 0.5, 0.5, 0.8}, []float64{0.05, 0.2, 0.4, 0.6})

	kripke, kField := simGrid(t, "kripke", 16)
	clover, cField := simGrid(t, "cloverleaf", 16)
	nanGrid, nField := simGrid(t, "kripke", 12)
	nanVals := nanGrid.Fields[nField].Values
	nanVals[len(nanVals)/2+nanGrid.Nx*nanGrid.Ny/2] = math.NaN()
	nanLo, nanHi, err := nanGrid.FieldRange(nField)
	if err != nil {
		t.Fatal(err)
	}

	type grid struct {
		name  string
		g     *mesh.StructuredGrid
		field string
		rng   [2]float64
	}
	grids := []grid{
		{"kripke", kripke, kField, [2]float64{}},
		{"cloverleaf", clover, cField, [2]float64{}},
		{"kripke-nan", nanGrid, nField, [2]float64{nanLo, nanHi}},
	}
	for _, gr := range grids {
		r, err := NewStructured(device.New("w2", 2), gr.g, gr.field)
		if err != nil {
			t.Fatal(err)
		}
		for _, tf := range []*framebuffer.TransferFunction{nil, odd} {
			for _, samples := range []int{0, 77, 400} {
				for _, az := range []float64{0, 33.333, 95, 181.5, 287.25} {
					opts := StructuredOptions{
						Width: 72, Height: 56, Samples: samples, TF: tf, FieldRange: gr.rng,
						Camera: render.OrbitCamera(gr.g.Bounds(), az, 20, 1.1),
					}
					img, stats, err := r.Render(opts)
					if err != nil {
						t.Fatal(err)
					}
					got := img.Clone()
					gotSamples := stats.TotalSamples

					a := &r.arena
					a.img.EnsureSize(opts.Width, opts.Height)
					a.totalSamples.Store(0)
					a.castKernelOracle(0, opts.Width*opts.Height)
					want := &a.img
					if ws := a.totalSamples.Load(); ws != gotSamples {
						t.Errorf("%s tf=%v samples=%d az=%g: %d samples, oracle %d", gr.name, tf != nil, samples, az, gotSamples, ws)
					}
					for i := range want.Color {
						if math.Float32bits(got.Color[i]) != math.Float32bits(want.Color[i]) {
							t.Fatalf("%s tf=%v samples=%d az=%g: color[%d] = %v, oracle %v", gr.name, tf != nil, samples, az, i, got.Color[i], want.Color[i])
						}
					}
					for i := range want.Depth {
						if math.Float32bits(got.Depth[i]) != math.Float32bits(want.Depth[i]) {
							t.Fatalf("%s tf=%v samples=%d az=%g: depth[%d] = %v, oracle %v", gr.name, tf != nil, samples, az, i, got.Depth[i], want.Depth[i])
						}
					}
					if gotSamples == 0 || want.ActivePixels() == 0 {
						t.Fatalf("%s az=%g: empty frame proves nothing", gr.name, az)
					}
				}
			}
		}
	}
}

// BenchmarkStructuredVolume renders the orbit_miss volume scene (kripke
// n=16 at 256², the default sample budget) on one core and reports the
// paper's volume work unit as ns per sample.
func BenchmarkStructuredVolume(b *testing.B) {
	g, field := simGrid(b, "kripke", 16)
	r, err := NewStructured(device.Serial(), g, field)
	if err != nil {
		b.Fatal(err)
	}
	opts := StructuredOptions{Width: 256, Height: 256, Camera: render.OrbitCamera(g.Bounds(), 33.333, 20, 1)}
	if _, _, err := r.Render(opts); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var samples int64
	for i := 0; i < b.N; i++ {
		_, st, err := r.Render(opts)
		if err != nil {
			b.Fatal(err)
		}
		samples += st.TotalSamples
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(samples), "ns/sample")
}

// TestTFTableMatchesSample checks the table's segment lookup against
// TransferFunction.Sample bit for bit on its whole domain (t above both
// first stops): at every stop and its float neighbours, where the
// counted segment and the loop's could disagree, past the last stop, and
// at random t.
func TestTFTableMatchesSample(t *testing.T) {
	negZero := math.Copysign(0, -1)
	tfs := map[string]*framebuffer.TransferFunction{
		"default": framebuffer.DefaultTransferFunction(),
		"duplicate stops": framebuffer.NewTransferFunction(
			framebuffer.NewColorMap([]float64{0.1, 0.4, 0.4, 0.9}, []vecmath.Vec3{
				{X: 0.9, Y: 0.1, Z: 0.2}, {X: 0.2, Y: 0.8, Z: 0.3}, {X: 0.1, Y: 0.3, Z: 0.9}, {X: 1, Y: 1, Z: 0.5},
			}),
			[]float64{0.2, 0.5, 0.5, 0.8}, []float64{0.05, 0.2, 0.4, 0.6}),
		"negative zero ends": framebuffer.NewTransferFunction(
			framebuffer.NewColorMap([]float64{0, 0.7}, []vecmath.Vec3{{X: 1, Y: 0.5, Z: 0}, {X: negZero, Y: 0.25, Z: negZero}}),
			[]float64{0, 0.3, 0.6}, []float64{0.1, 0.3, negZero}),
	}
	for name, tf := range tfs {
		var tab tfTable
		tab.build(tf, render.Normalizer{Min: 0, Max: 1})
		var ts []float64
		cp, _ := tf.Colors.Stops()
		op, _ := tf.OpacityStops()
		for _, s := range append(append([]float64{0, 0.5, 1}, cp...), op...) {
			ts = append(ts, s, math.Nextafter(s, -1), math.Nextafter(s, 2))
		}
		rng := rand.New(rand.NewSource(11))
		for i := 0; i < 10000; i++ {
			ts = append(ts, rng.Float64())
		}
		for _, v := range ts {
			if !(v > tab.first) || v > 1 {
				continue
			}
			wr, wg, wb, wa := tf.Sample(v)
			gr, gg, gb := tab.colorAt(v)
			ga := tab.alphaAt(v)
			for i, p := range [][2]float64{{gr, wr}, {gg, wg}, {gb, wb}, {ga, wa}} {
				if math.Float64bits(p[0]) != math.Float64bits(p[1]) {
					t.Fatalf("%s: t=%v channel %d = %v, TransferFunction.Sample %v", name, v, i, p[0], p[1])
				}
			}
		}
	}
}
