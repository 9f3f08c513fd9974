package vecmath

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func vecAlmostEq(a, b Vec3, tol float64) bool {
	return almostEq(a.X, b.X, tol) && almostEq(a.Y, b.Y, tol) && almostEq(a.Z, b.Z, tol)
}

func TestVecBasics(t *testing.T) {
	a := V(1, 2, 3)
	b := V(4, -5, 6)
	if got := a.Add(b); got != V(5, -3, 9) {
		t.Errorf("Add = %v", got)
	}
	if got := a.Sub(b); got != V(-3, 7, -3) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Dot(b); got != 4-10+18 {
		t.Errorf("Dot = %v", got)
	}
	if got := a.Scale(2); got != V(2, 4, 6) {
		t.Errorf("Scale = %v", got)
	}
	if got := a.Mul(b); got != V(4, -10, 18) {
		t.Errorf("Mul = %v", got)
	}
}

func TestCrossOrthogonal(t *testing.T) {
	f := func(ax, ay, az, bx, by, bz float64) bool {
		a := V(math.Mod(ax, 100), math.Mod(ay, 100), math.Mod(az, 100))
		b := V(math.Mod(bx, 100), math.Mod(by, 100), math.Mod(bz, 100))
		c := a.Cross(b)
		scale := a.Length()*b.Length() + 1
		return almostEq(c.Dot(a)/scale, 0, 1e-9) && almostEq(c.Dot(b)/scale, 0, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNormalize(t *testing.T) {
	v := V(3, 4, 0).Normalize()
	if !almostEq(v.Length(), 1, 1e-12) {
		t.Errorf("Normalize length = %v", v.Length())
	}
	zero := V(0, 0, 0).Normalize()
	if zero != V(0, 0, 0) {
		t.Errorf("Normalize zero = %v", zero)
	}
}

func TestLerp(t *testing.T) {
	a, b := V(0, 0, 0), V(2, 4, 8)
	if got := a.Lerp(b, 0.5); got != V(1, 2, 4) {
		t.Errorf("Lerp = %v", got)
	}
}

func TestMat4MulAssociativity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	randMat := func() Mat4 {
		var m Mat4
		for i := range m {
			m[i] = rng.Float64()*2 - 1
		}
		return m
	}
	for trial := 0; trial < 20; trial++ {
		a, b, c := randMat(), randMat(), randMat()
		ab_c := a.MulMat(b).MulMat(c)
		a_bc := a.MulMat(b.MulMat(c))
		for i := range ab_c {
			if !almostEq(ab_c[i], a_bc[i], 1e-9) {
				t.Fatalf("matrix multiply not associative at %d: %v vs %v", i, ab_c[i], a_bc[i])
			}
		}
	}
}

func TestLookAtMapsCenterToNegZ(t *testing.T) {
	eye := V(0, 0, 5)
	view := LookAt(eye, V(0, 0, 0), V(0, 1, 0))
	p, _ := view.TransformPoint(V(0, 0, 0))
	// Center should land on the -Z axis at distance 5.
	if !vecAlmostEq(p, V(0, 0, -5), 1e-12) {
		t.Errorf("center in view space = %v", p)
	}
	// The eye maps to the origin.
	o, _ := view.TransformPoint(eye)
	if !vecAlmostEq(o, V(0, 0, 0), 1e-12) {
		t.Errorf("eye in view space = %v", o)
	}
}

func TestProjectionPipeline(t *testing.T) {
	w, h := 640, 480
	view := LookAt(V(0, 0, 5), V(0, 0, 0), V(0, 1, 0))
	proj := Perspective(60, float64(w)/float64(h), 0.1, 100)
	vp := Viewport(w, h)
	m := vp.MulMat(proj).MulMat(view)
	// The look-at center projects to the middle of the screen.
	p, pw := m.TransformPoint(V(0, 0, 0))
	if pw <= 0 {
		t.Fatalf("center behind eye, w=%v", pw)
	}
	if !almostEq(p.X, float64(w)/2, 1e-6) || !almostEq(p.Y, float64(h)/2, 1e-6) {
		t.Errorf("center projects to (%v,%v)", p.X, p.Y)
	}
	if p.Z < 0 || p.Z > 1 {
		t.Errorf("depth out of [0,1]: %v", p.Z)
	}
	// A nearer point must have smaller depth.
	near, _ := m.TransformPoint(V(0, 0, 2))
	if near.Z >= p.Z {
		t.Errorf("nearer point has depth %v >= %v", near.Z, p.Z)
	}
}

func TestAABBUnionContains(t *testing.T) {
	f := func(px, py, pz, qx, qy, qz float64) bool {
		p := V(math.Mod(px, 50), math.Mod(py, 50), math.Mod(pz, 50))
		q := V(math.Mod(qx, 50), math.Mod(qy, 50), math.Mod(qz, 50))
		b := EmptyAABB().ExpandPoint(p).ExpandPoint(q)
		return b.Valid() && b.Contains(p) && b.Contains(q) && b.Contains(b.Center())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAABBEmptyUnion(t *testing.T) {
	e := EmptyAABB()
	if e.Valid() {
		t.Error("empty box should be invalid")
	}
	b := AABB{Min: V(0, 0, 0), Max: V(1, 1, 1)}
	if got := e.Union(b); got != b {
		t.Errorf("empty union = %v", got)
	}
	if e.SurfaceArea() != 0 {
		t.Errorf("empty surface area = %v", e.SurfaceArea())
	}
}

func TestAABBRayHit(t *testing.T) {
	b := AABB{Min: V(-1, -1, -1), Max: V(1, 1, 1)}
	r := Ray{Orig: V(0, 0, -5), Dir: V(0, 0, 1)}
	t0, t1, hit := b.HitRay(r.Orig, r.InvDir(), 0, math.Inf(1))
	if !hit || !almostEq(t0, 4, 1e-12) || !almostEq(t1, 6, 1e-12) {
		t.Errorf("hit=%v t0=%v t1=%v", hit, t0, t1)
	}
	// A ray pointing away misses.
	r2 := Ray{Orig: V(0, 0, -5), Dir: V(0, 0, -1)}
	if _, _, hit := b.HitRay(r2.Orig, r2.InvDir(), 0, math.Inf(1)); hit {
		t.Error("ray pointing away should miss")
	}
	// Axis-parallel ray outside the slab misses even with Inf inverses.
	r3 := Ray{Orig: V(5, 0, -5), Dir: V(0, 0, 1)}
	if _, _, hit := b.HitRay(r3.Orig, r3.InvDir(), 0, math.Inf(1)); hit {
		t.Error("offset axis-parallel ray should miss")
	}
}

func TestAABBRayRandomContainment(t *testing.T) {
	// Property: for a random ray hitting the box, the midpoint of the
	// clipped interval lies inside the box.
	rng := rand.New(rand.NewSource(7))
	b := AABB{Min: V(-2, -1, -3), Max: V(1, 2, 0.5)}
	hits := 0
	for trial := 0; trial < 500; trial++ {
		o := V(rng.Float64()*20-10, rng.Float64()*20-10, rng.Float64()*20-10)
		d := V(rng.Float64()*2-1, rng.Float64()*2-1, rng.Float64()*2-1)
		if d.Length() < 1e-6 {
			continue
		}
		r := Ray{Orig: o, Dir: d}
		t0, t1, hit := b.HitRay(r.Orig, r.InvDir(), 0, math.Inf(1))
		if !hit {
			continue
		}
		hits++
		mid := r.At((t0 + t1) / 2)
		grown := AABB{Min: b.Min.Sub(V(1e-9, 1e-9, 1e-9)), Max: b.Max.Add(V(1e-9, 1e-9, 1e-9))}
		if !grown.Contains(mid) {
			t.Fatalf("midpoint %v outside box for ray %v", mid, r)
		}
	}
	if hits == 0 {
		t.Error("no random rays hit the box; test is vacuous")
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Error("Clamp misbehaves")
	}
}

func TestSurfaceArea(t *testing.T) {
	b := AABB{Min: V(0, 0, 0), Max: V(1, 2, 3)}
	want := 2.0 * (1*2 + 2*3 + 3*1)
	if got := b.SurfaceArea(); !almostEq(got, want, 1e-12) {
		t.Errorf("SurfaceArea = %v want %v", got, want)
	}
}
