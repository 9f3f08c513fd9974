package framebuffer

import "insitu/internal/vecmath"

// ColorMap maps a scalar in [0,1] to an RGB color via piecewise-linear
// interpolation between stops.
type ColorMap struct {
	positions []float64
	colors    []vecmath.Vec3
}

// NewColorMap builds a map from sorted stop positions (in [0,1]) and colors.
func NewColorMap(positions []float64, colors []vecmath.Vec3) *ColorMap {
	if len(positions) != len(colors) || len(positions) < 2 {
		panic("framebuffer: color map needs >= 2 matched stops")
	}
	mustBeSorted(positions)
	return &ColorMap{positions: positions, colors: colors}
}

// mustBeSorted panics unless stop positions are non-decreasing (NaN
// included), the order the stop loops — and the segment tables renderers
// build from Stops — rely on.
func mustBeSorted(positions []float64) {
	for i := 1; i < len(positions); i++ {
		if !(positions[i-1] <= positions[i]) {
			panic("framebuffer: stop positions must be sorted")
		}
	}
}

// Stops returns the map's stop positions and colors. The slices are the
// map's own; callers must not modify them.
func (cm *ColorMap) Stops() ([]float64, []vecmath.Vec3) { return cm.positions, cm.colors }

// CoolToWarm is the default scientific-visualization diverging map.
func CoolToWarm() *ColorMap {
	return NewColorMap(
		[]float64{0, 0.5, 1},
		[]vecmath.Vec3{
			{X: 0.23, Y: 0.30, Z: 0.75},
			{X: 0.87, Y: 0.87, Z: 0.87},
			{X: 0.70, Y: 0.02, Z: 0.15},
		},
	)
}

// Inferno is a perceptually ordered sequential map (coarse approximation).
func Inferno() *ColorMap {
	return NewColorMap(
		[]float64{0, 0.25, 0.5, 0.75, 1},
		[]vecmath.Vec3{
			{X: 0.00, Y: 0.00, Z: 0.01},
			{X: 0.34, Y: 0.06, Z: 0.43},
			{X: 0.73, Y: 0.21, Z: 0.33},
			{X: 0.97, Y: 0.55, Z: 0.04},
			{X: 0.99, Y: 1.00, Z: 0.64},
		},
	)
}

// Sample returns the interpolated color for t clamped to [0,1].
//
//insitu:noalloc
func (cm *ColorMap) Sample(t float64) vecmath.Vec3 {
	return cm.sampleClamped(vecmath.Clamp(t, 0, 1))
}

// sampleClamped is Sample for a t already known to lie in [0,1], saving
// the redundant clamp on the transfer-function hot path.
func (cm *ColorMap) sampleClamped(t float64) vecmath.Vec3 {
	n := len(cm.positions)
	if t <= cm.positions[0] {
		return cm.colors[0]
	}
	for i := 1; i < n; i++ {
		if t <= cm.positions[i] {
			span := cm.positions[i] - cm.positions[i-1]
			f := 0.0
			if span > 0 {
				f = (t - cm.positions[i-1]) / span
			}
			return cm.colors[i-1].Lerp(cm.colors[i], f)
		}
	}
	return cm.colors[n-1]
}

// TransferFunction maps a scalar in [0,1] to premultiplied-ready RGBA for
// volume rendering: a color map plus a piecewise-linear opacity curve.
type TransferFunction struct {
	Colors   *ColorMap
	opacityP []float64
	opacityV []float64
}

// NewTransferFunction pairs a color map with an opacity ramp. Opacity
// positions must be sorted in [0,1].
func NewTransferFunction(cm *ColorMap, positions, opacities []float64) *TransferFunction {
	if len(positions) != len(opacities) || len(positions) < 2 {
		panic("framebuffer: transfer function needs >= 2 matched opacity stops")
	}
	mustBeSorted(positions)
	return &TransferFunction{Colors: cm, opacityP: positions, opacityV: opacities}
}

// OpacityStops returns the opacity ramp's positions and values. The
// slices are the transfer function's own; callers must not modify them.
func (tf *TransferFunction) OpacityStops() ([]float64, []float64) { return tf.opacityP, tf.opacityV }

// DefaultTransferFunction emphasizes high scalar values, the common default
// for density-like fields.
func DefaultTransferFunction() *TransferFunction {
	return NewTransferFunction(CoolToWarm(),
		[]float64{0, 0.3, 0.6, 1},
		[]float64{0, 0.005, 0.05, 0.35})
}

// Sample returns straight (non-premultiplied) RGBA for scalar t.
func (tf *TransferFunction) Sample(t float64) (r, g, b, a float64) {
	t = vecmath.Clamp(t, 0, 1)
	c := tf.Colors.sampleClamped(t)
	n := len(tf.opacityP)
	alpha := tf.opacityV[n-1]
	if t <= tf.opacityP[0] {
		alpha = tf.opacityV[0]
	} else {
		for i := 1; i < n; i++ {
			if t <= tf.opacityP[i] {
				span := tf.opacityP[i] - tf.opacityP[i-1]
				f := 0.0
				if span > 0 {
					f = (t - tf.opacityP[i-1]) / span
				}
				alpha = tf.opacityV[i-1] + f*(tf.opacityV[i]-tf.opacityV[i-1])
				break
			}
		}
	}
	return c.X, c.Y, c.Z, alpha
}
