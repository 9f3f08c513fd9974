package serve

import "math"

// Pose is one camera position on a session's path, in the orbit
// parameterization every serving endpoint speaks: azimuth degrees and
// zoom factor.
type Pose struct {
	Azimuth float64
	Zoom    float64
}

// nextPose extrapolates where a session's camera goes after last with
// constant velocity: it repeats the azimuth and zoom step from prev to
// last once. Azimuth arithmetic is modular — the velocity is the
// shortest angular step between the two poses and the prediction wraps
// into [0, 360) — so a client orbiting 0°, 30°, …, 330°, 0° predicts
// seamlessly across the wrap (frame-cache keys quantize raw azimuth, so
// the predictor and an orbiting client must agree on the wrapped
// representative). It returns false rather than guess when there is no
// previous pose (a zero prev: no served pose has zoom 0), when the
// camera is parked, and when zoom would leave (0, maxZoom].
func nextPose(prev, last Pose) (Pose, bool) {
	if prev.Zoom <= 0 {
		return Pose{}, false
	}
	dAz := wrapDelta(last.Azimuth - prev.Azimuth)
	dZoom := last.Zoom - prev.Zoom
	if dAz == 0 && dZoom == 0 {
		return Pose{}, false // a parked camera has nothing to prefetch
	}
	zoom := last.Zoom + dZoom
	if zoom <= 0 || zoom > maxZoom {
		return Pose{}, false
	}
	return Pose{Azimuth: wrap360(last.Azimuth + dAz), Zoom: zoom}, true
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
