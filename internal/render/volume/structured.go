// Package volume implements the paper's two volume renderers: an
// image-order ray caster for structured grids (the renderer modeled in
// Chapter V as T = c0*(AP*CS) + c1*(AP*SPR) + c2) and the multi-pass
// data-parallel sampler for unstructured tetrahedral meshes from
// Chapter III (Algorithm 2).
package volume

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"time"

	"insitu/internal/device"
	"insitu/internal/dpp"
	"insitu/internal/framebuffer"
	"insitu/internal/mesh"
	"insitu/internal/render"
	"insitu/internal/vecmath"
)

// StructuredOptions configures the structured-grid ray caster.
type StructuredOptions struct {
	Width, Height int
	Camera        render.Camera
	// Samples is the sample budget along a full diagonal crossing of the
	// volume (the paper uses 1000 for 1024^2 images; default 200).
	Samples int
	// TF overrides the default transfer function.
	TF *framebuffer.TransferFunction
	// FieldRange fixes scalar normalization; zeros mean auto. Distributed
	// renders must pass the global range so tasks color consistently.
	FieldRange [2]float64
}

// StructuredStats reports the timings and measured model inputs.
type StructuredStats struct {
	Phases       render.Timings
	ActivePixels int
	// TotalSamples counts in-volume samples taken, so SPR() is the
	// measured samples-per-ray model input.
	TotalSamples int64
	// CellsSpanned is the model's CS input: the cell count along the
	// grid's largest axis.
	CellsSpanned int
	Objects      int // cells, the model's O for volume rendering
}

// SPR returns average samples per active ray.
func (s *StructuredStats) SPR() float64 {
	if s.ActivePixels == 0 {
		return 0
	}
	return float64(s.TotalSamples) / float64(s.ActivePixels)
}

// StructuredRenderer ray-casts one structured grid. The renderer owns a
// frame arena (output image, stats, and the ray-cast kernel itself), so
// steady-state frames perform no heap allocation; the returned image and
// stats are valid until the next Render call. A StructuredRenderer is
// not safe for concurrent use.
type StructuredRenderer struct {
	Dev     *device.Device
	Grid    *mesh.StructuredGrid
	field   *mesh.Field
	sampler *gridSampler

	arena structuredArena
}

// structuredArena carries the per-frame parameters the ray-cast kernel
// reads plus the reused output buffers.
type structuredArena struct {
	r *StructuredRenderer

	opts          StructuredOptions
	cam           render.Camera
	raygen        render.RayGen
	tf            *framebuffer.TransferFunction
	tfTab         tfTable
	defaultTF     *framebuffer.TransferFunction
	norm          render.Normalizer
	bounds        vecmath.AABB
	step, refStep float64

	img          framebuffer.Image
	stats        StructuredStats
	totalSamples atomic.Int64

	castFn func(lo, hi int)
}

func (a *structuredArena) init(r *StructuredRenderer) {
	if a.r != nil {
		return
	}
	a.r = r
	a.castFn = a.castKernel
}

// NewStructured prepares a renderer for the named vertex field. The
// trilinear sampler is built once here, not per frame.
func NewStructured(dev *device.Device, g *mesh.StructuredGrid, fieldName string) (*StructuredRenderer, error) {
	f, err := g.Field(fieldName)
	if err != nil {
		return nil, err
	}
	if f.Assoc != mesh.VertexAssoc {
		return nil, fmt.Errorf("volume: field %q must be vertex-associated", fieldName)
	}
	sampler, err := newGridSampler(g, f.Values)
	if err != nil {
		return nil, err
	}
	return &StructuredRenderer{Dev: dev, Grid: g, field: f, sampler: sampler}, nil
}

// Render casts one ray per pixel, sampling the field with trilinear
// interpolation and compositing front to back with early termination.
// The returned image and stats are owned by the renderer's arena and
// valid until the next Render call; Clone the image to retain it.
//
//insitu:arena
func (r *StructuredRenderer) Render(opts StructuredOptions) (*framebuffer.Image, *StructuredStats, error) {
	if opts.Width <= 0 || opts.Height <= 0 {
		return nil, nil, fmt.Errorf("volume: invalid image size %dx%d", opts.Width, opts.Height)
	}
	if opts.Samples <= 0 {
		opts.Samples = 200
	}
	a := &r.arena
	a.init(r)
	a.opts = opts
	a.tf = opts.TF
	if a.tf == nil {
		if a.defaultTF == nil {
			a.defaultTF = framebuffer.DefaultTransferFunction()
		}
		a.tf = a.defaultTF
	}
	a.cam = opts.Camera.Normalized()
	a.raygen = a.cam.NewRayGen(opts.Width, opts.Height)
	g := r.Grid
	cx, cy, cz := g.CellDims()
	stats := &a.stats
	stats.Phases.Reset()
	stats.CellsSpanned = max(cx, cy, cz)
	stats.Objects = g.NumCells()
	stats.ActivePixels, stats.TotalSamples = 0, 0
	a.img.EnsureSize(opts.Width, opts.Height)
	img := &a.img

	lo, hi := opts.FieldRange[0], opts.FieldRange[1]
	if lo == 0 && hi == 0 {
		var err error
		lo, hi, err = g.FieldRange(r.field.Name)
		if err != nil {
			return nil, nil, err
		}
	}
	a.norm = render.Normalizer{Min: lo, Max: hi}
	a.tfTab.build(a.tf, a.norm)

	a.bounds = g.Bounds()
	diag := a.bounds.Diagonal().Length()
	if diag == 0 {
		return img, stats, nil
	}
	a.step = diag / float64(opts.Samples)
	// Opacity correction reference so pass/sample-count choices do not
	// change the converged image brightness.
	a.refStep = diag / 200

	start := time.Now()
	a.totalSamples.Store(0)
	dpp.For(r.Dev, opts.Width*opts.Height, a.castFn)
	stats.Phases.Add("sampling", time.Since(start))
	stats.TotalSamples = a.totalSamples.Load()
	stats.ActivePixels = img.ActivePixels()
	return img, stats, nil
}

// castKernel ray-casts one pixel range. It computes exactly what a
// per-sample grid lookup, Normalizer.Normalize and
// TransferFunction.Sample computed — every floating-point expression
// keeps its operands and evaluation order — with less work around the
// arithmetic: grid invariants are precomputed in the sampler and read
// in place (so the loop's registers go to the per-ray state), the cell
// corners and the x-differences the trilinear blend takes of them are
// reloaded only when a sample lands in a new cell, and normalization and
// the transfer function come from the frame's tfTable. castKernelOracle
// in structured_oracle_test.go is the loop it replaced; the oracle test
// compares every output bit against it.
func (a *structuredArena) castKernel(plo, phi int) {
	s := a.r.sampler
	tab := &a.tfTab
	width := a.opts.Width
	step := a.step
	exp := step / a.refStep
	var localSamples int64
	for p := plo; p < phi; p++ {
		px := float64(p % width)
		py := float64(p / width)
		ray := a.raygen.Ray(px, py, 0.5, 0.5)
		t0, t1, ok := a.bounds.HitRay(ray.Orig, ray.InvDir(), 0, math.Inf(1))
		if !ok {
			continue
		}
		o, d := ray.Orig, ray.Dir
		c := cell{i: -1, j: -1, k: -1}
		var cr, cg, cb, ca float64
		firstT := float32(framebuffer.MaxDepth)
		for t := t0 + step/2; t < t1; t += step {
			qx, qy, qz := o.X+d.X*t, o.Y+d.Y*t, o.Z+d.Z*t
			var i, j, k int
			var fx, fy, fz float64
			if s.uniform {
				rx, ry, rz := (qx-s.origin.X)*s.invSpace.X, (qy-s.origin.Y)*s.invSpace.Y, (qz-s.origin.Z)*s.invSpace.Z
				if rx < 0 || ry < 0 || rz < 0 {
					continue
				}
				i, j, k = int(rx), int(ry), int(rz)
				if i >= s.nx-1 {
					if rx > s.lim.X {
						continue
					}
					i = s.nx - 2
				}
				if j >= s.ny-1 {
					if ry > s.lim.Y {
						continue
					}
					j = s.ny - 2
				}
				if k >= s.nz-1 {
					if rz > s.lim.Z {
						continue
					}
					k = s.nz - 2
				}
				fx, fy, fz = rx-float64(i), ry-float64(j), rz-float64(k)
			} else {
				var in bool
				if i, fx, in = locateRect(s.xs, qx); !in {
					continue
				}
				if j, fy, in = locateRect(s.ys, qy); !in {
					continue
				}
				if k, fz, in = locateRect(s.zs, qz); !in {
					continue
				}
			}
			if i != c.i || j != c.j || k != c.k {
				c.load(s, i, j, k)
			}
			c00 := c.v000 + fx*c.d100
			c10 := c.v010 + fx*c.d110
			c01 := c.v001 + fx*c.d101
			c11 := c.v011 + fx*c.d111
			c0 := c00 + fy*(c10-c00)
			c1 := c01 + fy*(c11-c01)
			v := c0 + fz*(c1-c0)
			localSamples++

			// Normalize, then the transfer function: opacity first, so a
			// transparent sample skips the color segment.
			tn := 0.5
			if !tab.flat {
				tn = vecmath.Clamp((v-tab.normMin)/tab.normSpan, 0, 1)
			}
			var sr, sg, sb, sa float64
			if tn > tab.first {
				if sa = tab.alphaAt(tn); sa <= 0 {
					continue
				}
				sr, sg, sb = tab.colorAt(tn)
			} else {
				// At or below a first stop, or NaN: the table's
				// counting does not apply, the stop-by-stop loop does.
				sr, sg, sb, sa = a.tf.Sample(tn)
				if sa <= 0 {
					continue
				}
			}
			// Correct opacity for the step size, then front-to-back
			// "under" accumulation in premultiplied space. Pow(x, 1) is
			// exactly x, so the unit-exponent case (the default sample
			// budget) skips the call with identical results.
			om := 1 - sa
			if exp != 1 {
				om = math.Pow(om, exp)
			}
			sa = 1 - om
			w := (1 - ca) * sa
			cr += w * sr
			cg += w * sg
			cb += w * sb
			ca += w
			if firstT == framebuffer.MaxDepth {
				firstT = float32(t)
			}
			if ca >= 0.99 {
				break
			}
		}
		if ca > 0 {
			a.img.Set(int(px), int(py), float32(cr), float32(cg), float32(cb), float32(ca), firstT)
		}
	}
	a.totalSamples.Add(localSamples)
}

// cell is the grid cell a ray is sampling: its index and the corner
// values and x-differences the trilinear blend reads.
type cell struct {
	i, j, k                                        int
	v000, v010, v001, v011, d100, d110, d101, d111 float64
}

// load makes c cell (i, j, k) of s. The differences are the ones the
// blend takes, computed once per cell instead of once per sample.
func (c *cell) load(s *gridSampler, i, j, k int) {
	c.i, c.j, c.k = i, j, k
	v := s.vals
	b := (k*s.ny+j)*s.nx + i
	c.v000, c.v010, c.v001, c.v011 = v[b], v[b+s.sy], v[b+s.sz], v[b+s.sy+s.sz]
	c.d100 = v[b+1] - c.v000
	c.d110 = v[b+s.sy+1] - c.v010
	c.d101 = v[b+s.sz+1] - c.v001
	c.d111 = v[b+s.sy+s.sz+1] - c.v011
}

// tfTable is the frame's scalar-to-RGBA mapping as the kernel reads it:
// the normalizer with its span precomputed, and the transfer function
// unrolled into per-segment terms. For a normalized t above both first
// stops (the only t the segments serve), the segment
// TransferFunction.Sample's stop loop ends in is the one whose index is
// the number of upper stops below t — stops are sorted, as the
// framebuffer constructors enforce — and a segment's stop, span and delta
// are the values that loop computes for it.
type tfTable struct {
	normMin, normSpan float64 // Min, Max - Min
	flat              bool    // Max <= Min: every value normalizes to 0.5

	first float64 // the larger of the two first stops
	color []colorSeg
	alpha []alphaSeg
}

type colorSeg struct {
	lo, hi, span float64 // the bounding stops and hi - lo
	base, delta  vecmath.Vec3
}

type alphaSeg struct {
	lo, hi, span, base, delta float64
}

// alphaAt is TransferFunction.Sample's opacity for a normalized t above
// both first stops.
func (tb *tfTable) alphaAt(t float64) float64 {
	n := 0
	for i := range tb.alpha {
		if tb.alpha[i].hi < t {
			n++
		}
	}
	seg := &tb.alpha[n]
	f := 0.0
	if seg.span > 0 {
		f = (t - seg.lo) / seg.span
	}
	return seg.base + f*seg.delta
}

// colorAt is TransferFunction.Sample's color for a normalized t above
// both first stops: vecmath.Vec3.Lerp's base + delta*f per channel.
func (tb *tfTable) colorAt(t float64) (r, g, b float64) {
	n := 0
	for i := range tb.color {
		if tb.color[i].hi < t {
			n++
		}
	}
	seg := &tb.color[n]
	f := 0.0
	if seg.span > 0 {
		f = (t - seg.lo) / seg.span
	}
	return seg.base.X + seg.delta.X*f, seg.base.Y + seg.delta.Y*f, seg.base.Z + seg.delta.Z*f
}

// negZero is -0.0. As a delta it makes base + delta*0 exactly base for
// every base, -0 and NaN included (+0 would turn a -0 base into +0).
var negZero = math.Copysign(0, -1)

// build fills the table from tf and norm, reusing its slices. Each list
// ends in a segment past the last stop — hi +Inf so it is never counted,
// span 0 so f is 0, delta -0 — that yields the last stop's value as
// TransferFunction.Sample does for t beyond it.
func (tb *tfTable) build(tf *framebuffer.TransferFunction, norm render.Normalizer) {
	tb.normMin, tb.normSpan, tb.flat = norm.Min, norm.Max-norm.Min, norm.Max <= norm.Min
	cp, cv := tf.Colors.Stops()
	op, ov := tf.OpacityStops()
	tb.first = max(cp[0], op[0])
	inf := math.Inf(1)
	tb.color = tb.color[:0]
	for i := 1; i < len(cp); i++ {
		tb.color = append(tb.color, colorSeg{lo: cp[i-1], hi: cp[i], span: cp[i] - cp[i-1], base: cv[i-1], delta: cv[i].Sub(cv[i-1])})
	}
	last := cp[len(cp)-1]
	tb.color = append(tb.color, colorSeg{lo: last, hi: inf, base: cv[len(cv)-1], delta: vecmath.V(negZero, negZero, negZero)})
	tb.alpha = tb.alpha[:0]
	for i := 1; i < len(op); i++ {
		tb.alpha = append(tb.alpha, alphaSeg{lo: op[i-1], hi: op[i], span: op[i] - op[i-1], base: ov[i-1], delta: ov[i] - ov[i-1]})
	}
	tb.alpha = append(tb.alpha, alphaSeg{lo: op[len(op)-1], hi: inf, base: ov[len(ov)-1], delta: negZero})
}

// gridSampler performs trilinear interpolation on uniform or rectilinear
// structured grids.
type gridSampler struct {
	g          *mesh.StructuredGrid
	vals       []float64
	uniform    bool
	nx, ny, nz int
	sy, sz     int // point-index strides of j and k
	// Uniform grids: origin, inverse spacing, and the far-face tolerance
	// float64(N-1)+1e-9 per axis.
	origin, invSpace, lim vecmath.Vec3
	xs, ys, zs            []float64 // rectilinear coordinates
}

func newGridSampler(g *mesh.StructuredGrid, vals []float64) (*gridSampler, error) {
	s := &gridSampler{
		g: g, vals: vals, uniform: g.XCoords == nil,
		nx: g.Nx, ny: g.Ny, nz: g.Nz, sy: g.Nx, sz: g.Nx * g.Ny,
		origin: g.Origin,
		lim:    vecmath.V(float64(g.Nx-1)+1e-9, float64(g.Ny-1)+1e-9, float64(g.Nz-1)+1e-9),
		xs:     g.XCoords, ys: g.YCoords, zs: g.ZCoords,
	}
	if g.Nx < 2 || g.Ny < 2 || g.Nz < 2 {
		return nil, fmt.Errorf("volume: grid too small (%dx%dx%d)", g.Nx, g.Ny, g.Nz)
	}
	if s.uniform {
		sp := g.Spacing
		if sp.X <= 0 || sp.Y <= 0 || sp.Z <= 0 {
			return nil, fmt.Errorf("volume: non-positive spacing %v", sp)
		}
		s.invSpace = vecmath.V(1/sp.X, 1/sp.Y, 1/sp.Z)
	}
	return s, nil
}

// locate returns the cell index and intra-cell fraction along one axis.
func locateRect(coords []float64, v float64) (int, float64, bool) {
	n := len(coords)
	if v < coords[0] || v > coords[n-1] {
		return 0, 0, false
	}
	// sort.SearchFloat64s returns the first index with coords[i] >= v.
	i := sort.SearchFloat64s(coords, v)
	if i > 0 {
		i--
	}
	if i >= n-1 {
		i = n - 2
	}
	span := coords[i+1] - coords[i]
	f := 0.0
	if span > 0 {
		f = (v - coords[i]) / span
	}
	return i, f, true
}
