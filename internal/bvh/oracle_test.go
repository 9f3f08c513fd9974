package bvh_test

// The traversal kernels promise bit-identical results to the loops they
// replaced. Those loops (and the slab test they called) live on here,
// verbatim, as oracles; the tests below compare Hit{Prim,T,U,V} and
// any-hit answers bitwise over real frames and seeded random rays. This
// is an external test package so it can build the serving stack's
// kripke and lulesh scenes through scenario (which imports bvh).

import (
	"math"
	"math/rand"
	"testing"

	"insitu/internal/bvh"
	"insitu/internal/device"
	"insitu/internal/mesh"
	"insitu/internal/render"
	"insitu/internal/scenario"
	"insitu/internal/vecmath"
)

// refHitRay is vecmath.AABB.HitRay as it stood before the compare fast
// path.
func refHitRay(b vecmath.AABB, orig, invDir vecmath.Vec3, tmin, tmax float64) (float64, float64, bool) {
	t0x := (b.Min.X - orig.X) * invDir.X
	t1x := (b.Max.X - orig.X) * invDir.X
	if t0x > t1x {
		t0x, t1x = t1x, t0x
	}
	t0y := (b.Min.Y - orig.Y) * invDir.Y
	t1y := (b.Max.Y - orig.Y) * invDir.Y
	if t0y > t1y {
		t0y, t1y = t1y, t0y
	}
	t0z := (b.Min.Z - orig.Z) * invDir.Z
	t1z := (b.Max.Z - orig.Z) * invDir.Z
	if t0z > t1z {
		t0z, t1z = t1z, t0z
	}
	t0 := math.Max(math.Max(t0x, t0y), math.Max(t0z, tmin))
	t1 := math.Min(math.Min(t1x, t1y), math.Min(t1z, tmax))
	return t0, t1, t0 <= t1
}

// refIntersectClosest is the pre-change BVH.IntersectClosest: every
// popped node's box is re-tested, triangles are gathered through the
// mesh.
func refIntersectClosest(b *bvh.BVH, orig, dir vecmath.Vec3, tmin, tmax float64) (bvh.Hit, int, int) {
	hit := bvh.Hit{Prim: -1, T: math.Inf(1)}
	if len(b.Nodes) == 0 {
		return hit, 0, 0
	}
	inv := vecmath.V(1/dir.X, 1/dir.Y, 1/dir.Z)
	m := b.Mesh
	nodeTests, triTests := 0, 0
	best := tmax

	var stack [64]int32
	sp := 0
	stack[sp] = 0
	sp++
	for sp > 0 {
		sp--
		ni := stack[sp]
		node := &b.Nodes[ni]
		nodeTests++
		if _, _, ok := refHitRay(node.Bounds, orig, inv, tmin, best); !ok {
			continue
		}
		if node.Count > 0 {
			for i := node.Start; i < node.Start+node.Count; i++ {
				prim := b.PrimIDs[i]
				triTests++
				va, vb, vc := m.TriVerts(int(prim))
				if t, u, v, ok := bvh.IntersectTriangle(orig, dir, va, vb, vc); ok && t > tmin && t < best {
					best = t
					hit = bvh.Hit{Prim: prim, T: t, U: u, V: v}
				}
			}
			continue
		}
		// Push the farther child first so the nearer pops first.
		l, r := node.Left, node.Right
		lt, _, lok := refHitRay(b.Nodes[l].Bounds, orig, inv, tmin, best)
		rt, _, rok := refHitRay(b.Nodes[r].Bounds, orig, inv, tmin, best)
		switch {
		case lok && rok:
			if lt > rt {
				l, r = r, l
			}
			stack[sp] = r
			sp++
			stack[sp] = l
			sp++
		case lok:
			stack[sp] = l
			sp++
		case rok:
			stack[sp] = r
			sp++
		}
		nodeTests += 2
	}
	return hit, nodeTests, triTests
}

// refIntersectAny is the pre-change BVH.IntersectAny.
func refIntersectAny(b *bvh.BVH, orig, dir vecmath.Vec3, tmin, tmax float64) bool {
	if len(b.Nodes) == 0 {
		return false
	}
	inv := vecmath.V(1/dir.X, 1/dir.Y, 1/dir.Z)
	m := b.Mesh
	var stack [64]int32
	sp := 0
	stack[sp] = 0
	sp++
	for sp > 0 {
		sp--
		node := &b.Nodes[stack[sp]]
		if _, _, ok := refHitRay(node.Bounds, orig, inv, tmin, tmax); !ok {
			continue
		}
		if node.Count > 0 {
			for i := node.Start; i < node.Start+node.Count; i++ {
				prim := b.PrimIDs[i]
				va, vb, vc := m.TriVerts(int(prim))
				if t, _, _, ok := bvh.IntersectTriangle(orig, dir, va, vb, vc); ok && t > tmin && t < tmax {
					return true
				}
			}
			continue
		}
		stack[sp] = node.Left
		sp++
		stack[sp] = node.Right
		sp++
	}
	return false
}

var allBuilders = []bvh.Builder{bvh.LBVH, bvh.SAH}

// simSurface is the surface renderd ray-traces for sim at block size n:
// one stepped cycle, published, parsed, external faces.
func simSurface(tb testing.TB, sim string, n int) *mesh.TriangleMesh {
	tb.Helper()
	sd, err := scenario.BuildShard(sim, n, 1, 0, 1)
	if err != nil {
		tb.Fatal(err)
	}
	m, err := sd.Mesh.Surface(sd.Field, sd.Values)
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// primaryRays returns the size x size pixel-center rays of the serving
// layer's orbit camera at the given azimuth.
func primaryRays(m *mesh.TriangleMesh, size int, azimuth float64) []vecmath.Ray {
	cam := render.OrbitCamera(m.Bounds(), azimuth, 20, 1).Normalized()
	gen := cam.NewRayGen(size, size)
	rays := make([]vecmath.Ray, 0, size*size)
	for py := 0; py < size; py++ {
		for px := 0; px < size; px++ {
			rays = append(rays, gen.Ray(float64(px), float64(py), 0.5, 0.5))
		}
	}
	return rays
}

// sameHit reports bitwise equality of two hits.
func sameHit(a, b bvh.Hit) bool {
	return a.Prim == b.Prim &&
		math.Float64bits(a.T) == math.Float64bits(b.T) &&
		math.Float64bits(a.U) == math.Float64bits(b.U) &&
		math.Float64bits(a.V) == math.Float64bits(b.V)
}

// randomRays returns n seeded rays aimed through and around the box:
// origins inside and outside it, a share of them axis-parallel so the
// slab test's Inf/NaN paths are walked.
func randomRays(bounds vecmath.AABB, n int, seed int64) []vecmath.Ray {
	rng := rand.New(rand.NewSource(seed))
	c, d := bounds.Center(), bounds.Diagonal()
	point := func(spread float64) vecmath.Vec3 {
		return c.Add(vecmath.V((rng.Float64()-0.5)*d.X, (rng.Float64()-0.5)*d.Y, (rng.Float64()-0.5)*d.Z).Scale(spread))
	}
	rays := make([]vecmath.Ray, n)
	for i := range rays {
		orig := point(3)
		dir := point(1.2).Sub(orig).Normalize()
		switch i % 16 {
		case 0:
			dir = vecmath.V(0, 0, 1)
		case 1:
			dir = vecmath.V(-1, 0, 0)
		case 2:
			// Axis-parallel and starting exactly on a slab plane.
			orig.Y = bounds.Min.Y
			dir = vecmath.V(1, 0, 0)
		}
		rays[i] = vecmath.Ray{Orig: orig, Dir: dir}
	}
	return rays
}

func TestIntersectClosestMatchesOracle(t *testing.T) {
	for _, sim := range []string{"kripke", "lulesh"} {
		m := simSurface(t, sim, 16)
		rays := append(primaryRays(m, 128, 33), randomRays(m.Bounds(), 10000, 15)...)
		for _, builder := range allBuilders {
			b := bvh.Build(device.CPU(), m, builder)
			hits := 0
			var nodes, refNodes int
			for i, r := range rays {
				want, wn, wt := refIntersectClosest(b, r.Orig, r.Dir, 1e-9, math.Inf(1))
				got, gn, gt := b.IntersectClosest(r.Orig, r.Dir, 1e-9, math.Inf(1))
				if !sameHit(got, want) {
					t.Fatalf("%s/%v ray %d (%v): hit %+v, oracle %+v", sim, builder, i, r, got, want)
				}
				if gt != wt {
					t.Fatalf("%s/%v ray %d: %d triangle tests, oracle %d", sim, builder, i, gt, wt)
				}
				if gn > wn {
					t.Fatalf("%s/%v ray %d: %d box tests, oracle only %d", sim, builder, i, gn, wn)
				}
				nodes += gn
				refNodes += wn
				if got.Prim >= 0 {
					hits++
				}
			}
			if hits == 0 || hits == len(rays) {
				t.Fatalf("%s/%v: degenerate ray set, %d of %d hit", sim, builder, hits, len(rays))
			}
			t.Logf("%s/%v: %d rays, %d hits, box tests %d (oracle %d)", sim, builder, len(rays), hits, nodes, refNodes)
		}
	}
}

// TestTraversalWorkGate is the host-independent regression gate on
// traversal work: over the benchmark frame (kripke n=16, 256x256 primary
// rays, azimuth 33) the kernel runs exactly the oracle's triangle tests
// and at most 0.70x its box tests. Counts are pure functions of scene,
// camera and kernel, so this holds on any host; raytrace's
// TestStatsCountTraversalWork ties Stats.NodeTests/TriTests to them.
func TestTraversalWorkGate(t *testing.T) {
	tree, rays := benchScene(t)
	var nodes, tris, refNodes, refTris int
	for _, r := range rays {
		_, wn, wt := refIntersectClosest(tree, r.Orig, r.Dir, 1e-9, math.Inf(1))
		_, gn, gt := tree.IntersectClosest(r.Orig, r.Dir, 1e-9, math.Inf(1))
		nodes, tris, refNodes, refTris = nodes+gn, tris+gt, refNodes+wn, refTris+wt
	}
	n := float64(len(rays))
	t.Logf("per primary ray: %.2f box tests (was %.2f), %.2f triangle tests (was %.2f)",
		float64(nodes)/n, float64(refNodes)/n, float64(tris)/n, float64(refTris)/n)
	if refTris == 0 || refNodes == 0 {
		t.Fatal("oracle did no work; the gate is vacuous")
	}
	if tris != refTris {
		t.Errorf("%d triangle tests, the replaced loop ran %d: the visit order changed", tris, refTris)
	}
	if limit := int(0.70 * float64(refNodes)); nodes > limit {
		t.Errorf("%d box tests, want <= %d (0.70 x the replaced loop's %d): a box is being tested more than once", nodes, limit, refNodes)
	}
}

// TestIntersectClosestBoundedIntervalMatchesOracle covers the tmax the
// frame never uses: a finite far bound, and one short of the first hit.
func TestIntersectClosestBoundedIntervalMatchesOracle(t *testing.T) {
	m := simSurface(t, "kripke", 16)
	diag := m.Bounds().Diagonal().Length()
	rays := randomRays(m.Bounds(), 4000, 16)
	rng := rand.New(rand.NewSource(17))
	for _, builder := range allBuilders {
		b := bvh.Build(device.CPU(), m, builder)
		for i, r := range rays {
			tmin, tmax := rng.Float64()*0.2*diag, rng.Float64()*3*diag
			want, _, _ := refIntersectClosest(b, r.Orig, r.Dir, tmin, tmax)
			got, _, _ := b.IntersectClosest(r.Orig, r.Dir, tmin, tmax)
			if !sameHit(got, want) {
				t.Fatalf("%v ray %d (%v) in (%v, %v): hit %+v, oracle %+v", builder, i, r, tmin, tmax, got, want)
			}
		}
	}
}

// TestIntersectAnyMatchesOracle casts segments the length of the
// tracer's ambient-occlusion (5% of the diagonal) and shadow (to a light
// outside the data) rays from points on the surface.
func TestIntersectAnyMatchesOracle(t *testing.T) {
	for _, sim := range []string{"kripke", "lulesh"} {
		m := simSurface(t, sim, 16)
		bounds := m.Bounds()
		diag := bounds.Diagonal().Length()
		light := bounds.Center().Add(bounds.Diagonal().Scale(2))
		rng := rand.New(rand.NewSource(18))
		for _, builder := range allBuilders {
			b := bvh.Build(device.CPU(), m, builder)
			blocked := 0
			const segments = 10000
			for i := 0; i < segments; i++ {
				va, vb, vc := m.TriVerts(rng.Intn(m.NumTriangles()))
				u, v := rng.Float64(), rng.Float64()
				if u+v > 1 {
					u, v = 1-u, 1-v
				}
				pos := va.Add(vb.Sub(va).Scale(u)).Add(vc.Sub(va).Scale(v))
				dir := vecmath.V(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()).Normalize()
				tmax := 0.05 * diag
				if i%2 == 1 {
					toLight := light.Sub(pos)
					tmax = toLight.Length() * (1 - 1e-6)
					dir = toLight.Normalize()
				}
				want := refIntersectAny(b, pos, dir, 1e-9, tmax)
				if got := b.IntersectAny(pos, dir, 1e-9, tmax); got != want {
					t.Fatalf("%s/%v segment %d from %v along %v to %v: any-hit %v, oracle %v", sim, builder, i, pos, dir, tmax, got, want)
				}
				if want {
					blocked++
				}
			}
			if blocked == 0 || blocked == segments {
				t.Fatalf("%s/%v: degenerate segment set, %d of %d blocked", sim, builder, blocked, segments)
			}
		}
	}
}

// TestPacketMatchesOracle pins the four-ray path to the same oracle, ray
// by ray, on the quads of a real frame: IntersectClosest4's hits and
// triangle tests equal the oracle's, and it runs no more box tests.
func TestPacketMatchesOracle(t *testing.T) {
	m := simSurface(t, "kripke", 16)
	rays := primaryRays(m, 64, 33)
	b := bvh.Build(device.CPU(), m, bvh.LBVH)
	var tr bvh.Tracer
	for base := 0; base < len(rays); base += 4 {
		for k := 0; k < 4; k++ {
			tr.SetRay(k, rays[base+k].Orig, rays[base+k].Dir)
		}
		b.IntersectClosest4(&tr, 4, 1e-9, math.Inf(1))
		for k := 0; k < 4; k++ {
			r := rays[base+k]
			want, wn, wt := refIntersectClosest(b, r.Orig, r.Dir, 1e-9, math.Inf(1))
			if got, gn, gt := tr.Hit[k], tr.NodeTests[k], tr.TriTests[k]; !sameHit(got, want) || gt != wt || gn > wn {
				t.Fatalf("packet ray %d: hit %+v, %d box, %d triangle tests; oracle %+v, %d, %d", base+k, got, gn, gt, want, wn, wt)
			}
		}
	}
}

// benchScene is the fixed benchmark scene and ray set: the kripke n=16
// surface (2,700 triangles) under the 256x256 primary rays of the
// serving layer's orbit camera at azimuth 33.
func benchScene(b testing.TB) (*bvh.BVH, []vecmath.Ray) {
	m := simSurface(b, "kripke", 16)
	return bvh.Build(device.CPU(), m, bvh.LBVH), primaryRays(m, 256, 33)
}

var benchSink int

// intersectClosestStep returns one closest-hit query, cycling through
// the frame's rays in scanline order.
func intersectClosestStep(tb testing.TB) func() {
	tree, rays := benchScene(tb)
	i := 0
	return func() {
		r := &rays[i%len(rays)]
		if hit, _, _ := tree.IntersectClosest(r.Orig, r.Dir, 1e-9, math.Inf(1)); hit.Prim >= 0 {
			benchSink++
		}
		i++
	}
}

// intersectAnyStep returns one ambient-occlusion-length any-hit query
// from each primary hit point along a seeded direction, in turn.
func intersectAnyStep(tb testing.TB) func() {
	tree, rays := benchScene(tb)
	reach := 0.05 * tree.Mesh.Bounds().Diagonal().Length()
	rng := rand.New(rand.NewSource(15))
	var segs []vecmath.Ray
	for _, r := range rays {
		if hit, _, _ := tree.IntersectClosest(r.Orig, r.Dir, 1e-9, math.Inf(1)); hit.Prim >= 0 {
			dir := vecmath.V(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()).Normalize()
			segs = append(segs, vecmath.Ray{Orig: r.At(hit.T), Dir: dir})
		}
	}
	i := 0
	return func() {
		s := &segs[i%len(segs)]
		if tree.IntersectAny(s.Orig, s.Dir, 1e-9, reach) {
			benchSink++
		}
		i++
	}
}

// BenchmarkIntersectClosest times intersectClosestStep.
func BenchmarkIntersectClosest(b *testing.B) { benchStep(b, intersectClosestStep(b)) }

// BenchmarkIntersectAny times intersectAnyStep.
func BenchmarkIntersectAny(b *testing.B) { benchStep(b, intersectAnyStep(b)) }

func benchStep(b *testing.B, step func()) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// TestZeroAlloc pins the traversal benchmarks' steps at 0 allocs/op:
// traversal runs per ray, so one allocation would be one per pixel.
func TestZeroAlloc(t *testing.T) {
	for name, step := range map[string]func(testing.TB) func(){
		"IntersectClosest":         intersectClosestStep,
		"IntersectAny":             intersectAnyStep,
		"PrimaryTraversal/packets": func(tb testing.TB) func() { return primaryStep(tb, true) },
		"PrimaryTraversal/scalar":  func(tb testing.TB) func() { return primaryStep(tb, false) },
	} {
		t.Run(name, func(t *testing.T) {
			if n := testing.AllocsPerRun(20, step(t)); n != 0 {
				t.Errorf("%.0f allocs/op, want 0", n)
			}
		})
	}
}
