// Package render holds the types shared by the three renderers: cameras,
// lights, phase timing, and scalar-to-color normalization. The rendering
// study's camera placement helpers (zoomed-in and zoomed-out orbit views)
// live here too.
package render

import (
	"fmt"
	"math"
	"strings"
	"time"

	"insitu/internal/vecmath"
)

// Camera is a pinhole camera. Zero-value fields are replaced by defaults:
// Up (0,1,0), FOV 45 degrees, Near 1e-3, Far 1e3.
type Camera struct {
	Position vecmath.Vec3
	LookAt   vecmath.Vec3
	Up       vecmath.Vec3
	FOV      float64 // vertical field of view in degrees
	Near     float64
	Far      float64
}

// Normalized returns the camera with defaults filled in.
func (c Camera) Normalized() Camera {
	if c.Up == (vecmath.Vec3{}) {
		c.Up = vecmath.V(0, 1, 0)
	}
	if c.FOV == 0 {
		c.FOV = 45
	}
	if c.Near == 0 {
		c.Near = 1e-3
	}
	if c.Far == 0 {
		c.Far = 1e3
	}
	return c
}

// Basis returns the camera's orthonormal frame (right, up, forward).
func (c Camera) Basis() (right, up, forward vecmath.Vec3) {
	c = c.Normalized()
	forward = c.LookAt.Sub(c.Position).Normalize()
	right = forward.Cross(c.Up).Normalize()
	up = right.Cross(forward)
	return right, up, forward
}

// Ray returns the unit-direction primary ray through pixel center
// (px+0.5, py+0.5) with optional sub-pixel jitter (jx, jy in [0,1)).
func (c Camera) Ray(px, py, jx, jy float64, w, h int) vecmath.Ray {
	c = c.Normalized()
	right, up, forward := c.Basis()
	tanF := math.Tan(vecmath.Radians(c.FOV) / 2)
	aspect := float64(w) / float64(h)
	sx := (2*(px+jx)/float64(w) - 1) * tanF * aspect
	sy := (1 - 2*(py+jy)/float64(h)) * tanF
	dir := forward.Add(right.Scale(sx)).Add(up.Scale(sy)).Normalize()
	return vecmath.Ray{Orig: c.Position, Dir: dir}
}

// RayGen is a camera with its frame precomputed for one image size: the
// basis vectors, FOV tangent, and aspect ratio are evaluated once per
// frame instead of once per ray. Ray produces bit-identical rays to
// Camera.Ray (the same expressions over the same once-computed values),
// so hoisting ray generation through a RayGen never changes an image.
type RayGen struct {
	pos, right, up, forward vecmath.Vec3
	tanF, aspect            float64
	w, h                    float64
}

// NewRayGen precomputes the camera frame for a w x h image.
func (c Camera) NewRayGen(w, h int) RayGen {
	c = c.Normalized()
	right, up, forward := c.Basis()
	return RayGen{
		pos: c.Position, right: right, up: up, forward: forward,
		tanF:   math.Tan(vecmath.Radians(c.FOV) / 2),
		aspect: float64(w) / float64(h),
		w:      float64(w), h: float64(h),
	}
}

// Ray returns the unit-direction primary ray through (px+jx, py+jy).
func (g *RayGen) Ray(px, py, jx, jy float64) vecmath.Ray {
	sx := (2*(px+jx)/g.w - 1) * g.tanF * g.aspect
	sy := (1 - 2*(py+jy)/g.h) * g.tanF
	dir := g.forward.Add(g.right.Scale(sx)).Add(g.up.Scale(sy)).Normalize()
	return vecmath.Ray{Orig: g.pos, Dir: dir}
}

// Origin is the position every ray of Ray starts from.
func (g *RayGen) Origin() vecmath.Vec3 { return g.pos }

// Frame returns the once-computed values Ray combines, for a kernel that
// evaluates Ray's expressions itself: the camera basis, the FOV tangent,
// the aspect ratio and the image size.
func (g *RayGen) Frame() (right, up, forward vecmath.Vec3, tanF, aspect, w, h float64) {
	return g.right, g.up, g.forward, g.tanF, g.aspect, g.w, g.h
}

// Matrix returns the combined viewport * projection * view transform used
// by the object-order renderers. Transformed points land in pixel
// coordinates with depth in [0,1].
func (c Camera) Matrix(w, h int) vecmath.Mat4 {
	c = c.Normalized()
	view := vecmath.LookAt(c.Position, c.LookAt, c.Up)
	proj := vecmath.Perspective(c.FOV, float64(w)/float64(h), c.Near, c.Far)
	return vecmath.Viewport(w, h).MulMat(proj).MulMat(view)
}

// OrbitCamera positions a camera on an orbit around the bounds at the
// given azimuth/elevation (degrees). zoom 1 roughly fits the bounds to the
// viewport; larger zoom values fill the screen (the study's "close" view),
// smaller values surround the data with background (the "far" view).
func OrbitCamera(b vecmath.AABB, azimuthDeg, elevationDeg, zoom float64) Camera {
	center := b.Center()
	radius := b.Diagonal().Length() / 2
	if radius == 0 {
		radius = 1
	}
	if zoom <= 0 {
		zoom = 1
	}
	fov := 45.0
	dist := radius/math.Tan(vecmath.Radians(fov)/2)/zoom + radius*0.1
	az := vecmath.Radians(azimuthDeg)
	el := vecmath.Radians(elevationDeg)
	dir := vecmath.V(
		math.Cos(el)*math.Sin(az),
		math.Sin(el),
		math.Cos(el)*math.Cos(az),
	)
	return Camera{
		Position: center.Add(dir.Scale(dist)),
		LookAt:   center,
		FOV:      fov,
		Near:     dist / 100,
		Far:      dist + 4*radius,
	}
}

// Light is a point light.
type Light struct {
	Position  vecmath.Vec3
	Intensity float64
}

// HeadLight places a light at the camera with unit intensity.
func HeadLight(c Camera) Light {
	return Light{Position: c.Normalized().Position, Intensity: 1}
}

// Timings is an ordered list of named phase durations, the per-phase
// timing record every renderer returns and the study regresses against.
type Timings struct {
	names     []string
	durations []time.Duration
}

// Add appends (or accumulates into) a named phase.
func (t *Timings) Add(name string, d time.Duration) {
	for i, n := range t.names {
		if n == name {
			t.durations[i] += d
			return
		}
	}
	t.names = append(t.names, name)
	t.durations = append(t.durations, d)
}

// Reset zeroes every phase duration while keeping the phase names, so a
// renderer's reused Timings records per-frame values without reallocating
// its entries each frame.
func (t *Timings) Reset() {
	for i := range t.durations {
		t.durations[i] = 0
	}
}

// Get returns a phase's duration (0 when absent).
func (t *Timings) Get(name string) time.Duration {
	for i, n := range t.names {
		if n == name {
			return t.durations[i]
		}
	}
	return 0
}

// Names returns the phase names in insertion order.
func (t *Timings) Names() []string { return append([]string(nil), t.names...) }

// Total sums all phases.
func (t *Timings) Total() time.Duration {
	var sum time.Duration
	for _, d := range t.durations {
		sum += d
	}
	return sum
}

// String formats the timings as "phase=dur phase=dur".
func (t *Timings) String() string {
	var sb strings.Builder
	for i, n := range t.names {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%s=%s", n, t.durations[i].Round(time.Microsecond))
	}
	return sb.String()
}

// Normalizer maps scalars to [0,1] for color lookup.
type Normalizer struct {
	Min, Max float64
}

// Normalize returns (v-Min)/(Max-Min) clamped to [0,1].
func (n Normalizer) Normalize(v float64) float64 {
	if n.Max <= n.Min {
		return 0.5
	}
	return vecmath.Clamp((v-n.Min)/(n.Max-n.Min), 0, 1)
}
