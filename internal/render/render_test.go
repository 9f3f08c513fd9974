package render

import (
	"math"
	"testing"
	"time"

	"insitu/internal/vecmath"
)

func TestTimings(t *testing.T) {
	var tm Timings
	tm.Add("a", time.Second)
	tm.Add("b", 2*time.Second)
	tm.Add("a", time.Second)
	if tm.Get("a") != 2*time.Second {
		t.Errorf("a = %v", tm.Get("a"))
	}
	if tm.Get("missing") != 0 {
		t.Errorf("missing = %v", tm.Get("missing"))
	}
	if tm.Total() != 4*time.Second {
		t.Errorf("total = %v", tm.Total())
	}
	names := tm.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("names = %v", names)
	}
	if tm.String() == "" {
		t.Error("empty String()")
	}
}

func TestNormalizer(t *testing.T) {
	n := Normalizer{Min: 10, Max: 20}
	if n.Normalize(15) != 0.5 {
		t.Errorf("mid = %v", n.Normalize(15))
	}
	if n.Normalize(5) != 0 || n.Normalize(25) != 1 {
		t.Error("clamping broken")
	}
	flat := Normalizer{Min: 3, Max: 3}
	if flat.Normalize(3) != 0.5 {
		t.Error("degenerate range should map to 0.5")
	}
}

func TestCameraRayThroughCenterHitsLookAt(t *testing.T) {
	cam := Camera{Position: vecmath.V(0, 0, 5), LookAt: vecmath.V(0, 0, 0)}
	r := cam.Ray(319.5, 239.5, 0.5, 0.5, 640, 480)
	// The center ray should pass very near the look-at point.
	tClosest := r.Dir.Dot(cam.LookAt.Sub(r.Orig))
	closest := r.At(tClosest)
	if closest.Sub(cam.LookAt).Length() > 1e-2 {
		t.Errorf("center ray misses look-at by %v", closest.Sub(cam.LookAt).Length())
	}
	if math.Abs(r.Dir.Length()-1) > 1e-12 {
		t.Errorf("direction not unit: %v", r.Dir.Length())
	}
}

func TestOrbitCameraSeesBounds(t *testing.T) {
	b := vecmath.AABB{Min: vecmath.V(-1, -2, -1), Max: vecmath.V(3, 1, 2)}
	for name, cam := range map[string]Camera{
		"front": OrbitCamera(b, 20, 15, 0.85),
		"back":  OrbitCamera(b, 200, 10, 0.85),
		"close": OrbitCamera(b, 35, 25, 1.9),
	} {
		r := cam.Ray(float64(320)-0.5, float64(240)-0.5, 0.5, 0.5, 640, 480)
		if _, _, hit := b.HitRay(r.Orig, r.InvDir(), 0, math.Inf(1)); !hit {
			t.Errorf("%s: center ray misses the bounds", name)
		}
		if b.Contains(cam.Position) {
			t.Errorf("%s: camera inside the data", name)
		}
	}
}

func TestOrbitCameraZoomMovesCloser(t *testing.T) {
	b := vecmath.AABB{Min: vecmath.V(0, 0, 0), Max: vecmath.V(1, 1, 1)}
	far := OrbitCamera(b, 30, 20, 0.5)
	near := OrbitCamera(b, 30, 20, 2)
	dFar := far.Position.Sub(b.Center()).Length()
	dNear := near.Position.Sub(b.Center()).Length()
	if dNear >= dFar {
		t.Errorf("zoomed camera not closer: %v vs %v", dNear, dFar)
	}
}

func TestCameraMatrixProjectsLookAtToCenter(t *testing.T) {
	cam := Camera{Position: vecmath.V(2, 3, 5), LookAt: vecmath.V(0.5, 0.5, 0.5)}
	m := cam.Matrix(800, 600)
	p, w := m.TransformPoint(cam.LookAt)
	if w <= 0 {
		t.Fatal("look-at behind camera")
	}
	if math.Abs(p.X-400) > 1e-6 || math.Abs(p.Y-300) > 1e-6 {
		t.Errorf("look-at projects to (%v,%v)", p.X, p.Y)
	}
}

func TestHeadLight(t *testing.T) {
	cam := Camera{Position: vecmath.V(1, 2, 3)}
	l := HeadLight(cam)
	if l.Position != cam.Position || l.Intensity != 1 {
		t.Errorf("headlight = %+v", l)
	}
}
