package vecmath

import (
	"math"
	"math/rand"
	"testing"
)

// refHitRay is AABB.HitRay as it stood before the compare fast path,
// kept verbatim as the oracle: HitRay must return the same bits for
// every input, NaN payloads and zero signs included.
func refHitRay(b AABB, orig, invDir Vec3, tmin, tmax float64) (float64, float64, bool) {
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

// checkHitRay fails unless HitRay and the oracle agree bitwise.
func checkHitRay(t *testing.T, b AABB, orig, invDir Vec3, tmin, tmax float64) {
	t.Helper()
	w0, w1, wok := refHitRay(b, orig, invDir, tmin, tmax)
	g0, g1, gok := b.HitRay(orig, invDir, tmin, tmax)
	if math.Float64bits(g0) != math.Float64bits(w0) || math.Float64bits(g1) != math.Float64bits(w1) || gok != wok {
		t.Fatalf("HitRay(box %v, orig %v, inv %v, [%v, %v]) = (%v [%#x], %v [%#x], %v), oracle (%v [%#x], %v [%#x], %v)",
			b, orig, invDir, tmin, tmax,
			g0, math.Float64bits(g0), g1, math.Float64bits(g1), gok,
			w0, math.Float64bits(w0), w1, math.Float64bits(w1), wok)
	}
}

func TestHitRayMatchesReferenceEdgeCases(t *testing.T) {
	inf := math.Inf(1)
	nan := math.NaN()
	negZero := math.Copysign(0, -1)
	unit := AABB{Min: V(0, 0, 0), Max: V(1, 1, 1)}
	centered := AABB{Min: V(-1, -1, -1), Max: V(1, 1, 1)}
	cases := []struct {
		name       string
		box        AABB
		orig, inv  Vec3
		tmin, tmax float64
	}{
		{"plain hit", centered, V(0.3, -0.2, -5), Ray{Dir: V(0.1, 0.2, 1)}.InvDir(), 0, inf},
		{"plain miss", centered, V(0.3, -0.2, -5), Ray{Dir: V(1, 0.2, 0.1)}.InvDir(), 0, inf},
		{"axis-parallel through box", centered, V(0, 0, -5), Ray{Dir: V(0, 0, 1)}.InvDir(), 0, inf},
		{"axis-parallel outside slab", centered, V(5, 0, -5), Ray{Dir: V(0, 0, 1)}.InvDir(), 0, inf},
		// Origin exactly on a slab plane of an axis the ray is parallel
		// to: 0 * Inf = NaN, which must stay a miss.
		{"axis-parallel on min plane", centered, V(-1, 0, -5), Ray{Dir: V(0, 0, 1)}.InvDir(), 0, inf},
		{"axis-parallel on max plane", centered, V(0, 1, -5), Ray{Dir: V(0, 0, 1)}.InvDir(), 0, inf},
		{"axis-parallel on both planes of a flat box", AABB{Min: V(0, 0, 0), Max: V(0, 1, 1)}, V(0, 0.5, -1), Ray{Dir: V(0, 0, 1)}.InvDir(), 0, inf},
		{"negative-zero direction", centered, V(0, 0, -5), Ray{Dir: V(negZero, negZero, 1)}.InvDir(), 0, inf},
		{"-Inf reciprocal outside", centered, V(3, 0, -5), V(-inf, inf, 1), 0, inf},
		{"NaN beside +Inf entry", centered, V(-1, -3, 0), V(inf, inf, 1), 0, inf},
		{"origin inside, tmin zero", unit, V(0.5, 0.5, 0.5), Ray{Dir: V(0.3, 0.5, 0.8)}.InvDir(), 0, inf},
		{"origin inside, tmin negative zero", unit, V(0.5, 0.5, 0.5), Ray{Dir: V(0.3, 0.5, 0.8)}.InvDir(), negZero, inf},
		{"origin on min corner", unit, V(0, 0, 0), Ray{Dir: V(1, 1, 1)}.InvDir(), 0, inf},
		{"origin on min corner, negative tmin", unit, V(0, 0, 0), Ray{Dir: V(1, 1, 1)}.InvDir(), -1, inf},
		{"origin on max corner looking back", unit, V(1, 1, 1), Ray{Dir: V(-1, -1, -1)}.InvDir(), -1, 0},
		{"exit at zero with negative-zero tmax", unit, V(1, 1, 1), Ray{Dir: V(1, 1, 1)}.InvDir(), -5, negZero},
		{"tmax clips", centered, V(0, 0, -5), Ray{Dir: V(0, 0, 1)}.InvDir(), 0, 4.5},
		{"tmax before entry", centered, V(0, 0, -5), Ray{Dir: V(0, 0, 1)}.InvDir(), 0, 3},
		{"tmin after exit", centered, V(0, 0, -5), Ray{Dir: V(0, 0, 1)}.InvDir(), 7, inf},
		{"tmin above tmax", centered, V(0, 0, -5), Ray{Dir: V(0, 0, 1)}.InvDir(), 5, 4.5},
		{"NaN tmin", centered, V(0, 0, -5), Ray{Dir: V(0, 0, 1)}.InvDir(), nan, inf},
		{"NaN tmax", centered, V(0, 0, -5), Ray{Dir: V(0, 0, 1)}.InvDir(), 0, nan},
		{"NaN origin", centered, V(nan, 0, -5), Ray{Dir: V(0.1, 0, 1)}.InvDir(), 0, inf},
		{"infinite tmin and tmax", centered, V(0, 0, -5), Ray{Dir: V(0.1, 0, 1)}.InvDir(), -inf, inf},
		{"empty box", EmptyAABB(), V(0, 0, -5), Ray{Dir: V(0.1, 0.2, 1)}.InvDir(), 0, inf},
		{"empty box, axis-parallel", EmptyAABB(), V(0, 0, -5), Ray{Dir: V(0, 0, 1)}.InvDir(), 0, inf},
		{"inverted box", AABB{Min: V(1, 1, 1), Max: V(-1, -1, -1)}, V(0, 0, -5), Ray{Dir: V(0.1, 0.2, 1)}.InvDir(), 0, inf},
		{"point box", AABB{Min: V(1, 2, 3), Max: V(1, 2, 3)}, V(0, 0, 0), Ray{Dir: V(1, 2, 3)}.InvDir(), 0, inf},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { checkHitRay(t, c.box, c.orig, c.inv, c.tmin, c.tmax) })
	}
	// The NaN-miss the traversal order depends on, stated directly.
	if _, _, ok := centered.HitRay(V(-1, 0, -5), Ray{Dir: V(0, 0, 1)}.InvDir(), 0, inf); ok {
		t.Error("axis-parallel ray with its origin on the slab plane must miss")
	}
}

// edgeFloat draws from the values where compare- and math-based folds
// could part ways, mixed with ordinary magnitudes.
func edgeFloat(rng *rand.Rand) float64 {
	switch rng.Intn(12) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return math.Inf(1)
	case 3:
		return math.Inf(-1)
	case 4:
		return math.NaN()
	case 5:
		return float64(rng.Intn(5) - 2)
	default:
		return rng.NormFloat64() * 3
	}
}

func TestHitRayMatchesReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 200000; trial++ {
		f := rng.NormFloat64
		if trial%2 == 1 {
			f = func() float64 { return edgeFloat(rng) }
		}
		b := AABB{Min: V(f(), f(), f()), Max: V(f(), f(), f())}
		checkHitRay(t, b, V(f(), f(), f()), V(f(), f(), f()), f(), f())
	}
}

func FuzzHitRayMatchesReference(f *testing.F) {
	inf := math.Inf(1)
	f.Add(-1.0, -1.0, -1.0, 1.0, 1.0, 1.0, 0.0, 0.0, -5.0, inf, inf, 1.0, 0.0, inf)
	f.Add(-1.0, -1.0, -1.0, 1.0, 1.0, 1.0, -1.0, 0.0, -5.0, inf, inf, 1.0, 0.0, inf)
	f.Add(0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.5, 0.5, 0.5, 2.0, -3.0, 1.5, 0.0, inf)
	f.Add(inf, inf, inf, -inf, -inf, -inf, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.0, 10.0)
	f.Add(0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, -5.0, math.Copysign(0, -1))
	f.Fuzz(func(t *testing.T, minX, minY, minZ, maxX, maxY, maxZ, ox, oy, oz, ix, iy, iz, tmin, tmax float64) {
		b := AABB{Min: V(minX, minY, minZ), Max: V(maxX, maxY, maxZ)}
		checkHitRay(t, b, V(ox, oy, oz), V(ix, iy, iz), tmin, tmax)
	})
}

// hitRaySink keeps the benchmarked calls alive.
var hitRaySink float64

// BenchmarkHitRay times one slab test over a fixed set of boxes and rays:
// the 64 octant-of-octant cells of the unit cube seen from an orbiting
// eye, a mix of hits and misses as BVH traversal presents.
func BenchmarkHitRay(b *testing.B) {
	var boxes [64]AABB
	for i := range boxes {
		lo := V(float64(i&3)/4, float64(i>>2&3)/4, float64(i>>4)/4)
		boxes[i] = AABB{Min: lo, Max: lo.Add(V(0.25, 0.25, 0.25))}
	}
	rng := rand.New(rand.NewSource(15))
	eye := V(2.1, 1.4, -1.7)
	var invs [256]Vec3
	for i := range invs {
		target := V(rng.Float64(), rng.Float64(), rng.Float64())
		invs[i] = Ray{Dir: target.Sub(eye).Normalize()}.InvDir()
	}
	b.ReportAllocs()
	b.ResetTimer()
	sum := 0.0
	for i := 0; i < b.N; i++ {
		if t0, _, ok := boxes[i&63].HitRay(eye, invs[(i>>6)&255], 1e-9, math.Inf(1)); ok {
			sum += t0
		}
	}
	hitRaySink = sum
}
