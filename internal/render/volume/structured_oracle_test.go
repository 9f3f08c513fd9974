package volume

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"insitu/internal/conduit"
	"insitu/internal/device"
	"insitu/internal/dpp"
	"insitu/internal/framebuffer"
	"insitu/internal/mesh"
	"insitu/internal/render"
	"insitu/internal/sim"
	"insitu/internal/vecmath"
)

// castKernelOracle is the ray-cast loop castKernel replaced, kept
// verbatim but for its per-ray body, rayOracle: a sampler call per
// sample (sampleOracle) and TransferFunction.Sample per sample. Every
// image the new kernels make must match it bit for bit.
func (a *structuredArena) castKernelOracle(plo, phi int) {
	opts := &a.opts
	var localSamples int64
	for p := plo; p < phi; p++ {
		px := float64(p % opts.Width)
		py := float64(p / opts.Width)
		ray := a.raygen.Ray(px, py, 0.5, 0.5)
		t0, t1, ok := a.bounds.HitRay(ray.Orig, ray.InvDir(), 0, math.Inf(1))
		if !ok {
			continue
		}
		cr, cg, cb, ca, firstT, n := a.rayOracle(ray, t0+a.step/2, t1)
		localSamples += n
		if ca > 0 {
			a.img.Set(int(px), int(py), float32(cr), float32(cg), float32(cb), float32(ca), firstT)
		}
	}
	a.totalSamples.Add(localSamples)
}

// rayOracle marches ray from its first sample at t to t1 and returns
// the composited color, the first composited sample's depth and the
// samples taken.
func (a *structuredArena) rayOracle(ray vecmath.Ray, t, t1 float64) (cr, cg, cb, ca float64, firstT float32, samples int64) {
	sampler := a.r.Scene.sampler
	step := a.step
	exp := step / a.refStep
	firstT = float32(framebuffer.MaxDepth)
	for ; t < t1; t += step {
		pos := ray.At(t)
		v, inside := sampler.sampleOracle(pos)
		if !inside {
			continue
		}
		samples++
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
	return cr, cg, cb, ca, firstT, samples
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

// matchOracle renders opts with r, re-renders the same frame parameters
// with castKernelOracle, and requires every color and depth bit and the
// sample count to agree. It returns the frame's samples.
func matchOracle(t *testing.T, r *StructuredRenderer, opts StructuredOptions, label string) int64 {
	t.Helper()
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
		t.Errorf("%s: %d samples, oracle %d", label, gotSamples, ws)
	}
	for i := range want.Color {
		if math.Float32bits(got.Color[i]) != math.Float32bits(want.Color[i]) {
			t.Fatalf("%s: color[%d] = %v, oracle %v", label, i, got.Color[i], want.Color[i])
		}
	}
	for i := range want.Depth {
		if math.Float32bits(got.Depth[i]) != math.Float32bits(want.Depth[i]) {
			t.Fatalf("%s: depth[%d] = %v, oracle %v", label, i, got.Depth[i], want.Depth[i])
		}
	}
	if gotSamples > 0 && want.ActivePixels() == 0 {
		t.Fatalf("%s: %d samples and no active pixel", label, gotSamples)
	}
	return gotSamples
}

// TestStructuredPacketMatchesOracle holds the packet kernel to
// castKernelOracle on the frames it takes — uniform kripke blocks at the
// default sample budget — rendering each with packets on and again on a
// Scalar device: seeded poses and zooms, widths that are not a multiple
// of the packet width and a 1x1 frame, both ranks' blocks of a two-task
// decomposition under the global field range (what a sharded frame's
// ranks render), and the odd transfer function, whose first stops make
// packets bail mid-ray. Counters show that packets ran and that some
// bailed. `make oracles` runs it at v1 and v3.
func TestStructuredPacketMatchesOracle(t *testing.T) {
	if !hasPackets {
		t.Skip("no packet kernel on this host")
	}
	full, field := simGrid(t, "kripke", 16)
	rank0, _ := simShard(t, "kripke", 16, 2, 0)
	rank1, _ := simShard(t, "kripke", 16, 2, 1)
	lo0, hi0, err := rank0.FieldRange(field)
	if err != nil {
		t.Fatal(err)
	}
	lo1, hi1, err := rank1.FieldRange(field)
	if err != nil {
		t.Fatal(err)
	}
	global := [2]float64{min(lo0, lo1), max(hi0, hi1)}

	type grid struct {
		name string
		g    *mesh.StructuredGrid
		rng  [2]float64
	}
	grids := []grid{{"kripke", full, [2]float64{}}, {"rank0/2", rank0, global}, {"rank1/2", rank1, global}}
	sizes := [][2]int{{64, 48}, {61, 37}, {30, 1}, {1, 1}}
	rng := rand.New(rand.NewSource(29))
	var marched, bailed int64
	for _, gr := range grids {
		dev := device.New("w2", 2)
		r, err := NewStructured(dev, gr.g, field)
		if err != nil {
			t.Fatal(err)
		}
		for _, tf := range []*framebuffer.TransferFunction{nil, oddTF()} {
			for _, size := range sizes {
				az, el, zoom := rng.Float64()*360, rng.Float64()*120-60, 0.7+rng.Float64()*1.8
				if size == [2]int{1, 1} {
					zoom = 1 // the one ray goes through the center
				}
				opts := StructuredOptions{
					Width: size[0], Height: size[1], TF: tf, FieldRange: gr.rng,
					Camera: render.OrbitCamera(gr.g.Bounds(), az, el, zoom),
				}
				for _, scalar := range []bool{false, true} {
					dev.Scalar = scalar
					label := fmt.Sprintf("%s tf=%v %dx%d az=%.1f el=%.1f zoom=%.2f scalar=%v",
						gr.name, tf != nil, size[0], size[1], az, el, zoom, scalar)
					samples := matchOracle(t, r, opts, label)
					m, b := r.arena.packetsMarched.Load(), r.arena.packetsBailed.Load()
					switch {
					case scalar && m != 0:
						t.Errorf("%s: %d packets marched with packets off", label, m)
					case !scalar && samples > 0 && m == 0:
						t.Errorf("%s: %d samples and no packet marched", label, samples)
					}
					marched, bailed = marched+m, bailed+b
				}
			}
		}
	}
	t.Logf("%d of %d packets bailed", bailed, marched)
	if bailed == 0 || bailed == marched {
		t.Errorf("%d of %d packets bailed: want some but not all", bailed, marched)
	}
}

// TestStructuredPacketFarFace marches packets of rays lying in each far
// face of the grid, where every sample's cell index truncates to N-1 and
// the kernel must clamp it to N-2 as castRay does, and compares each
// lane with rayOracle. No camera ray samples there: one in a face's
// plane misses the bounds' slab test. The field is seeded noise over
// twenty binary orders of magnitude, where the clamped blend a + 1*(b-a)
// and the unclamped one's b differ often.
func TestStructuredPacketFarFace(t *testing.T) {
	if !hasPackets {
		t.Skip("no packet kernel on this host")
	}
	g, field := simGrid(t, "kripke", 12)
	rng := rand.New(rand.NewSource(7))
	for i := range g.Fields[field].Values {
		g.Fields[field].Values[i] = math.Ldexp(rng.Float64(), rng.Intn(20)-10)
	}
	lo, hi, err := g.FieldRange(field)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewStructured(device.Serial(), g, field)
	if err != nil {
		t.Fatal(err)
	}
	// A range below the field's keeps every tn above the first stop, so
	// no packet bails.
	opts := StructuredOptions{Width: 8, Height: 8, FieldRange: [2]float64{lo - 1, hi}, Camera: render.OrbitCamera(g.Bounds(), 30, 20, 1)}
	if _, _, err := r.Render(opts); err != nil {
		t.Fatal(err)
	}
	a := &r.arena
	b := g.Bounds()
	size := b.Diagonal()
	for axis := 0; axis < 3; axis++ {
		pk := &a.packets[0]
		var rays [4]vecmath.Ray
		for l := range rays {
			// Start on the face, a quarter in along the other axes, and
			// run in the face's plane, diagonally for lanes 2 and 3.
			o := [3]float64{b.Min.X + size.X/4, b.Min.Y + size.Y/4, b.Min.Z + size.Z/4}
			o[axis] = [3]float64{b.Max.X, b.Max.Y, b.Max.Z}[axis]
			o[(axis+1)%3] += float64(l) * size.Dot(vecmath.V(1, 1, 1)) / 97
			d := [3]float64{}
			d[(axis+1+l%2)%3] = 1
			if l >= 2 {
				d[(axis+2)%3] = 0.5
			}
			rays[l] = vecmath.Ray{Orig: vecmath.V(o[0], o[1], o[2]), Dir: vecmath.V(d[0], d[1], d[2])}
			pk.ox[l], pk.oy[l], pk.oz[l] = o[0], o[1], o[2]
			pk.dx[l], pk.dy[l], pk.dz[l] = d[0], d[1], d[2]
			pk.t[l], pk.t1[l], pk.pix[l] = a.step/2, size.Length()/3, l
		}
		if _, bailed := a.march(pk, 4); bailed != 0 {
			t.Fatalf("axis %d: packet bailed", axis)
		}
		for l, ray := range rays {
			cr, cg, cb, ca, firstT, n := a.rayOracle(ray, a.step/2, size.Length()/3)
			got := [4]float64{pk.cr[l], pk.cg[l], pk.cb[l], pk.ca[l]}
			for c, want := range [4]float64{cr, cg, cb, ca} {
				if math.Float64bits(got[c]) != math.Float64bits(want) {
					t.Errorf("axis %d lane %d: channel %d = %v, oracle %v", axis, l, c, got[c], want)
				}
			}
			if d := float32(pk.depth[l]); math.Float32bits(d) != math.Float32bits(firstT) || pk.samples[l] != n {
				t.Errorf("axis %d lane %d: depth %v and %d samples, oracle %v and %d", axis, l, d, pk.samples[l], firstT, n)
			}
			if n == 0 || ca == 0 {
				t.Fatalf("axis %d lane %d: %d samples, alpha %v: nothing compared", axis, l, n, ca)
			}
		}
	}
}

// oddTF is a transfer function with a duplicate stop in each list and
// first stops well above 0, so samples take every table segment and
// TransferFunction.Sample's below-first-stop branch.
func oddTF() *framebuffer.TransferFunction {
	return framebuffer.NewTransferFunction(
		framebuffer.NewColorMap([]float64{0.1, 0.4, 0.4, 0.9}, []vecmath.Vec3{
			{X: 0.9, Y: 0.1, Z: 0.2}, {X: 0.2, Y: 0.8, Z: 0.3}, {X: 0.1, Y: 0.3, Z: 0.9}, {X: 1, Y: 1, Z: 0.5},
		}),
		[]float64{0.2, 0.5, 0.5, 0.8}, []float64{0.05, 0.2, 0.4, 0.6})
}

// simGrid steps the named proxy once on one task and returns its
// structured block with the primary field attached as vertex data —
// the block the volume backend renders for that sim.
func simGrid(tb testing.TB, name string, n int) (*mesh.StructuredGrid, string) {
	return simShard(tb, name, n, 1, 0)
}

// simShard is simGrid for rank's block of a tasks-way decomposition.
func simShard(tb testing.TB, name string, n, tasks, rank int) (*mesh.StructuredGrid, string) {
	tb.Helper()
	s, err := sim.New(name, n, tasks, rank)
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
		for _, tf := range []*framebuffer.TransferFunction{nil, oddTF()} {
			for _, samples := range []int{0, 77, 400} {
				for _, az := range []float64{0, 33.333, 95, 181.5, 287.25} {
					opts := StructuredOptions{
						Width: 72, Height: 56, Samples: samples, TF: tf, FieldRange: gr.rng,
						Camera: render.OrbitCamera(gr.g.Bounds(), az, 20, 1.1),
					}
					label := fmt.Sprintf("%s tf=%v samples=%d az=%g", gr.name, tf != nil, samples, az)
					if matchOracle(t, r, opts, label) == 0 {
						t.Fatalf("%s: empty frame proves nothing", label)
					}
				}
			}
		}
	}
}

// structuredVolumeStep returns a frame of the orbit_miss volume scene
// (kripke n=16 at 256², the default sample budget) on one core,
// reporting its samples. The first call pays the one-time arena
// allocations.
func structuredVolumeStep(tb testing.TB) func() int64 {
	g, field := simGrid(tb, "kripke", 16)
	r, err := NewStructured(device.Serial(), g, field)
	if err != nil {
		tb.Fatal(err)
	}
	opts := StructuredOptions{Width: 256, Height: 256, Camera: render.OrbitCamera(g.Bounds(), 33.333, 20, 1)}
	return func() int64 {
		_, st, err := r.Render(opts)
		if err != nil {
			tb.Fatal(err)
		}
		return st.TotalSamples
	}
}

// BenchmarkStructuredVolume times structuredVolumeStep and reports the
// paper's volume work unit as ns per sample.
func BenchmarkStructuredVolume(b *testing.B) {
	step := structuredVolumeStep(b)
	step() // warm frame: the timed loop measures the steady state
	b.ReportAllocs()
	b.ResetTimer()
	var samples int64
	for i := 0; i < b.N; i++ {
		samples += step()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(samples), "ns/sample")
}

// TestZeroAlloc pins BenchmarkStructuredVolume's steady state at 0
// allocs/op, after AllocsPerRun's own warm-up frame: the frame arena
// holds every per-frame buffer. 20 runs truncate a one-off allocation to
// 0; one allocation per frame fails. It skips under the race detector
// with the other render-kernel cases: this serial frame does not launch
// through dpp's pool, but there it takes 30 s where it otherwise takes 3.
func TestZeroAlloc(t *testing.T) {
	if dpp.RaceEnabled {
		t.Skip("render kernels skip under the race detector")
	}
	t.Run("StructuredVolume", func(t *testing.T) {
		step := structuredVolumeStep(t)
		if n := testing.AllocsPerRun(20, func() { step() }); n != 0 {
			t.Errorf("%.0f allocs/op, want 0", n)
		}
	})
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
			an, cn := tab.alphaSeg(v, 0), tab.colorSeg(v, 0)
			for hint := range tab.alpha {
				if n := tab.alphaSeg(v, hint); n != an {
					t.Fatalf("%s: t=%v alpha segment %d from hint %d, %d from hint 0", name, v, n, hint, an)
				}
			}
			for hint := range tab.color {
				if n := tab.colorSeg(v, hint); n != cn {
					t.Fatalf("%s: t=%v color segment %d from hint %d, %d from hint 0", name, v, n, hint, cn)
				}
			}
			gr, gg, gb := tab.colorAt(v, cn)
			ga := tab.alphaAt(v, an)
			for i, p := range [][2]float64{{gr, wr}, {gg, wg}, {gb, wb}, {ga, wa}} {
				if math.Float64bits(p[0]) != math.Float64bits(p[1]) {
					t.Fatalf("%s: t=%v channel %d = %v, TransferFunction.Sample %v", name, v, i, p[0], p[1])
				}
			}
		}
	}
}
