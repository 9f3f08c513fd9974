package vecmath

import "math"

// AABB is an axis-aligned bounding box. The zero value is not valid; use
// EmptyAABB so unions start from an inverted box.
type AABB struct {
	Min, Max Vec3
}

// EmptyAABB returns an inverted box that unions correctly with anything.
func EmptyAABB() AABB {
	inf := math.Inf(1)
	return AABB{Min: Vec3{inf, inf, inf}, Max: Vec3{-inf, -inf, -inf}}
}

// Valid reports whether the box contains at least one point.
func (b AABB) Valid() bool {
	return b.Min.X <= b.Max.X && b.Min.Y <= b.Max.Y && b.Min.Z <= b.Max.Z
}

// ExpandPoint grows b to contain p.
func (b AABB) ExpandPoint(p Vec3) AABB {
	return AABB{Min: b.Min.Min(p), Max: b.Max.Max(p)}
}

// Union returns the smallest box containing both b and o.
func (b AABB) Union(o AABB) AABB {
	return AABB{Min: b.Min.Min(o.Min), Max: b.Max.Max(o.Max)}
}

// Center returns the centroid of the box.
func (b AABB) Center() Vec3 { return b.Min.Add(b.Max).Scale(0.5) }

// Diagonal returns Max - Min.
func (b AABB) Diagonal() Vec3 { return b.Max.Sub(b.Min) }

// SurfaceArea returns the total surface area of the box, or 0 if invalid.
func (b AABB) SurfaceArea() float64 {
	if !b.Valid() {
		return 0
	}
	d := b.Diagonal()
	return 2 * (d.X*d.Y + d.Y*d.Z + d.Z*d.X)
}

// Contains reports whether p lies inside or on the boundary of b.
func (b AABB) Contains(p Vec3) bool {
	return p.X >= b.Min.X && p.X <= b.Max.X &&
		p.Y >= b.Min.Y && p.Y <= b.Max.Y &&
		p.Z >= b.Min.Z && p.Z <= b.Max.Z
}

// HitRay performs the slab test against a ray given its origin and
// reciprocal direction. It returns the parametric entry and exit distances
// clipped to [tmin, tmax] and whether the interval is non-empty.
//
// The result is, bit for bit, the nested math.Max/math.Min fold in
// hitRayGeneral. Those calls do not inline and dominated BVH traversal,
// so the fold runs on the min/max builtins, which compile to inline
// compare-and-select and agree with math.Max/math.Min on every input
// without a NaN (infinities order normally, -0 sorts below +0). With a
// NaN they part ways — math.Max(+Inf, NaN) is +Inf and a propagated NaN
// carries math.NaN's payload — so any NaN takes the general fold: after
// the per-axis ordering, t0 <= t1 holds exactly when neither is NaN (an
// inverted [tmin, tmax] takes the general fold too, which costs only time).
// Rays parallel to an axis whose origin lies on that slab's plane still
// produce 0*Inf = NaN and miss: traversal order, and with it every
// rendered pixel, depends on that staying so.
func (b *AABB) HitRay(orig, invDir Vec3, tmin, tmax float64) (float64, float64, bool) {
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
	if t0x <= t1x && t0y <= t1y && t0z <= t1z && tmin <= tmax {
		t0 := max(max(t0x, t0y), max(t0z, tmin))
		t1 := min(min(t1x, t1y), min(t1z, tmax))
		return t0, t1, t0 <= t1
	}
	return hitRayGeneral(t0x, t1x, t0y, t1y, t0z, t1z, tmin, tmax)
}

// hitRayGeneral folds the per-axis slab intervals with math.Max/math.Min,
// whose NaN, infinity and signed-zero rules define HitRay's result.
func hitRayGeneral(t0x, t1x, t0y, t1y, t0z, t1z, tmin, tmax float64) (float64, float64, bool) {
	t0 := math.Max(math.Max(t0x, t0y), math.Max(t0z, tmin))
	t1 := math.Min(math.Min(t1x, t1y), math.Min(t1z, tmax))
	return t0, t1, t0 <= t1
}
