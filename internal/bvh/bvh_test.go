package bvh

import (
	"math"
	"math/rand"
	"testing"

	"insitu/internal/device"
	"insitu/internal/mesh"
	"insitu/internal/vecmath"
)

// randomMesh builds n random small triangles in the unit cube.
func randomMesh(n int, seed int64) *mesh.TriangleMesh {
	rng := rand.New(rand.NewSource(seed))
	m := &mesh.TriangleMesh{}
	for t := 0; t < n; t++ {
		base := vecmath.V(rng.Float64(), rng.Float64(), rng.Float64())
		for c := 0; c < 3; c++ {
			p := base.Add(vecmath.V(rng.Float64(), rng.Float64(), rng.Float64()).Scale(0.1))
			m.X = append(m.X, p.X)
			m.Y = append(m.Y, p.Y)
			m.Z = append(m.Z, p.Z)
			m.Scalars = append(m.Scalars, rng.Float64())
			m.Conn = append(m.Conn, int32(3*t+c))
		}
	}
	m.UpdateScalarRange()
	return m
}

// bruteForceClosest is the reference intersector.
func bruteForceClosest(m *mesh.TriangleMesh, orig, dir vecmath.Vec3, tmin, tmax float64) Hit {
	hit := Hit{Prim: -1, T: math.Inf(1)}
	best := tmax
	for t := 0; t < m.NumTriangles(); t++ {
		a, b, c := m.TriVerts(t)
		if tt, u, v, ok := IntersectTriangle(orig, dir, a, b, c); ok && tt > tmin && tt < best {
			best = tt
			hit = Hit{Prim: int32(t), T: tt, U: u, V: v}
		}
	}
	return hit
}

func TestMorton3Locality(t *testing.T) {
	// Codes of nearby points share a long prefix; codes are monotone along
	// each axis when other coordinates are zero.
	prev := uint64(0)
	for i := 0; i < 1024; i++ {
		c := Morton3(float64(i)/1024, 0, 0)
		if c < prev {
			t.Fatalf("morton not monotone along x at %d", i)
		}
		prev = c
	}
}

func TestIntersectTriangleBasics(t *testing.T) {
	a, b, c := vecmath.V(0, 0, 0), vecmath.V(1, 0, 0), vecmath.V(0, 1, 0)
	tt, u, v, ok := IntersectTriangle(vecmath.V(0.25, 0.25, -1), vecmath.V(0, 0, 1), a, b, c)
	if !ok || math.Abs(tt-1) > 1e-12 {
		t.Fatalf("hit=%v t=%v", ok, tt)
	}
	if math.Abs(u-0.25) > 1e-12 || math.Abs(v-0.25) > 1e-12 {
		t.Errorf("barycentric = %v,%v", u, v)
	}
	// Outside the triangle misses.
	if _, _, _, ok := IntersectTriangle(vecmath.V(0.9, 0.9, -1), vecmath.V(0, 0, 1), a, b, c); ok {
		t.Error("expected miss outside triangle")
	}
	// Back face still hits (two-sided).
	if _, _, _, ok := IntersectTriangle(vecmath.V(0.25, 0.25, 1), vecmath.V(0, 0, -1), a, b, c); !ok {
		t.Error("expected two-sided hit")
	}
	// Parallel ray misses.
	if _, _, _, ok := IntersectTriangle(vecmath.V(0, 0, 1), vecmath.V(1, 0, 0), a, b, c); ok {
		t.Error("parallel ray should miss")
	}
}

func TestBVHMatchesBruteForce(t *testing.T) {
	m := randomMesh(300, 4)
	rng := rand.New(rand.NewSource(8))
	for _, builder := range []Builder{LBVH, SAH} {
		b := Build(device.CPU(), m, builder)
		misses, hits := 0, 0
		for trial := 0; trial < 300; trial++ {
			orig := vecmath.V(rng.Float64()*3-1, rng.Float64()*3-1, rng.Float64()*3-1)
			dir := vecmath.V(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()).Normalize()
			want := bruteForceClosest(m, orig, dir, 1e-6, math.Inf(1))
			got, _, _ := b.IntersectClosest(orig, dir, 1e-6, math.Inf(1))
			if want.Prim != got.Prim {
				t.Fatalf("%v: prim %d != %d (trial %d)", builder, got.Prim, want.Prim, trial)
			}
			if want.Prim >= 0 {
				hits++
				if math.Abs(want.T-got.T) > 1e-9 {
					t.Fatalf("%v: t %v != %v", builder, got.T, want.T)
				}
			} else {
				misses++
			}
			// IntersectAny must agree with whether a closest hit exists.
			if b.IntersectAny(orig, dir, 1e-6, math.Inf(1)) != (want.Prim >= 0) {
				t.Fatalf("%v: IntersectAny disagrees (trial %d)", builder, trial)
			}
		}
		if hits == 0 || misses == 0 {
			t.Fatalf("%v: degenerate test: hits=%d misses=%d", builder, hits, misses)
		}
	}
}

// TestPacketMatchesSingleRay traces bundles of 1 to 4 coherent rays
// through IntersectClosest4 on a random mesh: each ray gets exactly
// IntersectClosest's hit and counts, however many lanes are loaded.
func TestPacketMatchesSingleRay(t *testing.T) {
	m := randomMesh(200, 5)
	b := Build(device.CPU(), m, LBVH)
	rng := rand.New(rand.NewSource(17))
	var tr Tracer
	for trial := 0; trial < 200; trial++ {
		n := 1 + trial%4
		base := vecmath.V(rng.Float64()*2-0.5, rng.Float64()*2-0.5, -2)
		var dir [4]vecmath.Vec3
		for i := 0; i < n; i++ {
			dir[i] = vecmath.V(rng.Float64()*0.2-0.1, rng.Float64()*0.2-0.1, 1).Normalize()
			tr.SetRay(i, base, dir[i])
		}
		b.IntersectClosest4(&tr, n, 1e-6, math.Inf(1))
		for i := 0; i < n; i++ {
			want, wn, wt := b.IntersectClosest(base, dir[i], 1e-6, math.Inf(1))
			if tr.Hit[i] != want || tr.NodeTests[i] != wn || tr.TriTests[i] != wt {
				t.Fatalf("trial %d ray %d of %d: hit %+v, %d box, %d triangle tests; single ray %+v, %d, %d",
					trial, i, n, tr.Hit[i], tr.NodeTests[i], tr.TriTests[i], want, wn, wt)
			}
		}
	}
}

func TestEmptyMesh(t *testing.T) {
	b := Build(device.CPU(), &mesh.TriangleMesh{}, LBVH)
	hit, _, _ := b.IntersectClosest(vecmath.V(0, 0, 0), vecmath.V(0, 0, 1), 0, math.Inf(1))
	if hit.Prim != -1 {
		t.Error("empty mesh should not hit")
	}
	if b.IntersectAny(vecmath.V(0, 0, 0), vecmath.V(0, 0, 1), 0, math.Inf(1)) {
		t.Error("empty mesh IntersectAny should be false")
	}
}

func TestSAHTreeAtLeastAsShallowQuality(t *testing.T) {
	// SAH trees should not do more triangle tests on average than LBVH for
	// the same workload. This is the property the OptiX/Embree baselines
	// rely on; allow a small tolerance for noise.
	m := randomMesh(500, 6)
	lb := Build(device.CPU(), m, LBVH)
	sah := Build(device.CPU(), m, SAH)
	rng := rand.New(rand.NewSource(30))
	var lbTests, sahTests int
	for trial := 0; trial < 200; trial++ {
		orig := vecmath.V(rng.Float64(), rng.Float64(), -1)
		dir := vecmath.V(0, 0, 1)
		_, _, t1 := lb.IntersectClosest(orig, dir, 1e-6, math.Inf(1))
		_, _, t2 := sah.IntersectClosest(orig, dir, 1e-6, math.Inf(1))
		lbTests += t1
		sahTests += t2
	}
	if float64(sahTests) > 1.5*float64(lbTests)+100 {
		t.Errorf("SAH does many more tri tests than LBVH: %d vs %d", sahTests, lbTests)
	}
}

func TestBVHBoundsContainMesh(t *testing.T) {
	m := randomMesh(100, 12)
	b := Build(device.CPU(), m, LBVH)
	root := b.Nodes[0].Bounds
	mb := m.Bounds()
	eps := vecmath.V(1e-9, 1e-9, 1e-9)
	grown := vecmath.AABB{Min: root.Min.Sub(eps), Max: root.Max.Add(eps)}
	if !grown.Contains(mb.Min) || !grown.Contains(mb.Max) {
		t.Errorf("root bounds %v do not contain mesh bounds %v", root, mb)
	}
	if b.BuildTime <= 0 {
		t.Error("BuildTime not recorded")
	}
	if b.Depth() < 1 {
		t.Error("tree depth < 1")
	}
}

func TestBuilderString(t *testing.T) {
	if LBVH.String() != "lbvh" || SAH.String() != "sah" {
		t.Error("builder names wrong")
	}
}
