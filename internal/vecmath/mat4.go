package vecmath

import "math"

// Mat4 is a row-major 4x4 transform matrix.
type Mat4 [16]float64

// MulMat returns m * n (applying n first, then m).
func (m Mat4) MulMat(n Mat4) Mat4 {
	var r Mat4
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			s := 0.0
			for k := 0; k < 4; k++ {
				s += m[i*4+k] * n[k*4+j]
			}
			r[i*4+j] = s
		}
	}
	return r
}

// TransformPoint applies m to p as a position (w = 1) and performs the
// perspective divide. It also returns the pre-divide w, which callers use
// to reject points behind the eye.
func (m Mat4) TransformPoint(p Vec3) (Vec3, float64) {
	x := m[0]*p.X + m[1]*p.Y + m[2]*p.Z + m[3]
	y := m[4]*p.X + m[5]*p.Y + m[6]*p.Z + m[7]
	z := m[8]*p.X + m[9]*p.Y + m[10]*p.Z + m[11]
	w := m[12]*p.X + m[13]*p.Y + m[14]*p.Z + m[15]
	if w != 0 && w != 1 {
		inv := 1 / w
		return Vec3{x * inv, y * inv, z * inv}, w
	}
	return Vec3{x, y, z}, w
}

// LookAt builds a right-handed view matrix with the camera at eye looking
// toward center, matching the OpenGL gluLookAt convention.
func LookAt(eye, center, up Vec3) Mat4 {
	f := center.Sub(eye).Normalize()
	s := f.Cross(up.Normalize()).Normalize()
	u := s.Cross(f)
	return Mat4{
		s.X, s.Y, s.Z, -s.Dot(eye),
		u.X, u.Y, u.Z, -u.Dot(eye),
		-f.X, -f.Y, -f.Z, f.Dot(eye),
		0, 0, 0, 1,
	}
}

// Perspective builds a right-handed perspective projection with a vertical
// field of view in degrees, mapping depth into clip space like OpenGL.
func Perspective(fovyDeg, aspect, near, far float64) Mat4 {
	f := 1 / math.Tan(Radians(fovyDeg)/2)
	nf := 1 / (near - far)
	return Mat4{
		f / aspect, 0, 0, 0,
		0, f, 0, 0,
		0, 0, (far + near) * nf, 2 * far * near * nf,
		0, 0, -1, 0,
	}
}

// Viewport maps normalized device coordinates in [-1,1] to pixel coordinates
// in a width x height image, with depth mapped to [0,1]. Y is flipped so
// NDC +1 (up) lands on image row 0 (top), matching the ray tracer's pixel
// convention.
func Viewport(width, height int) Mat4 {
	w := float64(width) / 2
	h := float64(height) / 2
	return Mat4{
		w, 0, 0, w,
		0, -h, 0, h,
		0, 0, 0.5, 0.5,
		0, 0, 0, 1,
	}
}
