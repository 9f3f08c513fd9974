// Package vecmath provides the small 3-D linear algebra kernel shared by
// every renderer: vectors, rays, 4x4 transforms, and axis-aligned boxes.
// Everything here is value math on small structs: no function in this
// package may heap-allocate. TestZeroAlloc pins the slab test here, and
// the ray tracer's zero-allocation frames run the vector math.
package vecmath

import "math"

// Vec3 is a 3-component double-precision vector.
type Vec3 struct{ X, Y, Z float64 }

// V builds a Vec3 from components.
func V(x, y, z float64) Vec3 { return Vec3{x, y, z} }

// Add returns v + u.
func (v Vec3) Add(u Vec3) Vec3 { return Vec3{v.X + u.X, v.Y + u.Y, v.Z + u.Z} }

// Sub returns v - u.
func (v Vec3) Sub(u Vec3) Vec3 { return Vec3{v.X - u.X, v.Y - u.Y, v.Z - u.Z} }

// Scale returns v scaled by s.
func (v Vec3) Scale(s float64) Vec3 { return Vec3{v.X * s, v.Y * s, v.Z * s} }

// Mul returns the component-wise product of v and u.
func (v Vec3) Mul(u Vec3) Vec3 { return Vec3{v.X * u.X, v.Y * u.Y, v.Z * u.Z} }

// Dot returns the inner product of v and u.
func (v Vec3) Dot(u Vec3) float64 { return v.X*u.X + v.Y*u.Y + v.Z*u.Z }

// Cross returns the cross product v x u.
func (v Vec3) Cross(u Vec3) Vec3 {
	return Vec3{
		v.Y*u.Z - v.Z*u.Y,
		v.Z*u.X - v.X*u.Z,
		v.X*u.Y - v.Y*u.X,
	}
}

// Length returns the Euclidean norm of v.
func (v Vec3) Length() float64 { return math.Sqrt(v.Dot(v)) }

// Length2 returns the squared norm of v.
func (v Vec3) Length2() float64 { return v.Dot(v) }

// Normalize returns v scaled to unit length. The zero vector is returned
// unchanged so callers never divide by zero.
func (v Vec3) Normalize() Vec3 {
	l := v.Length()
	if l == 0 {
		return v
	}
	return v.Scale(1 / l)
}

// Neg returns -v.
func (v Vec3) Neg() Vec3 { return Vec3{-v.X, -v.Y, -v.Z} }

// Min returns the component-wise minimum of v and u.
func (v Vec3) Min(u Vec3) Vec3 {
	return Vec3{math.Min(v.X, u.X), math.Min(v.Y, u.Y), math.Min(v.Z, u.Z)}
}

// Max returns the component-wise maximum of v and u.
func (v Vec3) Max(u Vec3) Vec3 {
	return Vec3{math.Max(v.X, u.X), math.Max(v.Y, u.Y), math.Max(v.Z, u.Z)}
}

// Lerp linearly interpolates from v to u by t in [0,1].
func (v Vec3) Lerp(u Vec3, t float64) Vec3 { return v.Add(u.Sub(v).Scale(t)) }

// Abs returns the component-wise absolute value of v.
func (v Vec3) Abs() Vec3 { return Vec3{math.Abs(v.X), math.Abs(v.Y), math.Abs(v.Z)} }

// Ray is a half-line with origin and (not necessarily unit) direction.
type Ray struct {
	Orig Vec3
	Dir  Vec3
}

// At returns the point Orig + t*Dir.
func (r Ray) At(t float64) Vec3 { return r.Orig.Add(r.Dir.Scale(t)) }

// InvDir returns the reciprocal direction used by slab tests. Zero direction
// components become +Inf, matching the IEEE behaviour slab tests rely on.
func (r Ray) InvDir() Vec3 { return Vec3{1 / r.Dir.X, 1 / r.Dir.Y, 1 / r.Dir.Z} }

// Clamp limits x to [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// Radians converts degrees to radians.
func Radians(deg float64) float64 { return deg * math.Pi / 180 }
