package serve

import "math"

// Pose is one camera position on a session's path, in the orbit
// parameterization every serving endpoint speaks: azimuth degrees and
// zoom factor.
type Pose struct {
	Azimuth float64
	Zoom    float64
}

// OrbitPredictor extrapolates where a session's camera goes next with
// constant velocity: the next poses continue the last observed
// per-frame azimuth and zoom deltas. Azimuth arithmetic is modular —
// the velocity is the shortest angular step between the last two poses
// and predictions wrap into [0, 360) — so a client orbiting 0°, 30°, …,
// 330°, 0° predicts seamlessly across the wrap (frame-cache keys
// quantize raw azimuth, so the predictor and an orbiting client must
// agree on the wrapped representative).
type OrbitPredictor struct{}

// Predict reads the recent path (oldest first, most recent last) and
// fills dst with up to len(dst) future poses in arrival order,
// returning how many it filled. It runs on the zero-allocation session
// frame path with caller-owned buffers, returns 0 rather than guess
// when the history is too short or the camera is parked, and stops
// early if zoom would leave (0, maxZoom].
//
//insitu:noalloc
func (OrbitPredictor) Predict(history []Pose, dst []Pose) int {
	n := len(history)
	if n < 2 {
		return 0
	}
	last, prev := history[n-1], history[n-2]
	dAz := wrapDelta(last.Azimuth - prev.Azimuth)
	dZoom := last.Zoom - prev.Zoom
	if dAz == 0 && dZoom == 0 {
		return 0 // a parked camera has nothing to prefetch
	}
	az, zoom := last.Azimuth, last.Zoom
	for i := range dst {
		az = wrap360(az + dAz)
		zoom += dZoom
		if zoom <= 0 || zoom > maxZoom {
			return i
		}
		dst[i] = Pose{Azimuth: az, Zoom: zoom}
	}
	return len(dst)
}

// wrap360 maps an angle in degrees onto [0, 360).
func wrap360(deg float64) float64 {
	m := math.Mod(deg, 360)
	if m < 0 {
		m += 360
	}
	return m
}

// wrapDelta maps an angular difference onto [-180, 180), the shortest
// signed step between two orbit positions.
func wrapDelta(deg float64) float64 {
	m := math.Mod(deg+180, 360)
	if m < 0 {
		m += 360
	}
	return m - 180
}
