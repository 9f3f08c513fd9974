package volume

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"insitu/internal/device"
	"insitu/internal/dpp"
	"insitu/internal/framebuffer"
	"insitu/internal/mesh"
	"insitu/internal/render"
	"insitu/internal/vecmath"
)

// UnstructuredOptions configures the multi-pass tetrahedral sampler.
type UnstructuredOptions struct {
	Width, Height int
	Camera        render.Camera
	// SamplesZ is the number of samples in depth across the whole view
	// (the paper's S; it uses 1000 at 1024^2, default here 200).
	SamplesZ int
	// Passes splits the sample buffer in depth to bound memory; each pass
	// runs the four phases over its slab (default 1).
	Passes int
	// TF overrides the default transfer function.
	TF *framebuffer.TransferFunction
	// FieldRange fixes scalar normalization; zeros mean auto.
	FieldRange [2]float64
}

// UnstructuredStats reports the per-phase timings of Algorithm 2 plus
// workload measures.
type UnstructuredStats struct {
	Phases        render.Timings
	ActivePixels  int
	PassCount     int
	TetsProcessed int64 // sum of active tets over passes (the paper's m)
	TotalSamples  int64
	Objects       int
}

// UnstructuredRenderer renders one tetrahedral mesh. The renderer owns a
// frame arena — projection buffers, pass-selection flags, the slab sample
// buffer, accumulators, and the phase kernels — so steady-state frames
// perform no heap allocation; the returned image and stats are valid
// until the next Render call. Rendering only reads Mesh, which may be
// repointed between frames. Not safe for concurrent use.
type UnstructuredRenderer struct {
	Dev  *device.Device
	Mesh *mesh.TetMesh

	arena unstructuredArena
}

// NewUnstructured prepares a renderer.
func NewUnstructured(dev *device.Device, m *mesh.TetMesh) *UnstructuredRenderer {
	if m.ScalarMin == 0 && m.ScalarMax == 0 {
		m.UpdateScalarRange()
	}
	return &UnstructuredRenderer{Dev: dev, Mesh: m}
}

// sampleNaN is the empty-sample sentinel stored in the slab buffer.
var sampleNaN = math.Float32bits(float32(math.NaN()))

// screenTet is one tetrahedron in screen space with per-corner scalars.
type screenTet struct {
	x, y, z [4]float64
	s       [4]float64
}

// unstructuredArena is the renderer's persistent per-frame state.
type unstructuredArena struct {
	r *UnstructuredRenderer

	// Per-frame parameters.
	opts      UnstructuredOptions
	tf        *framebuffer.TransferFunction
	defaultTF *framebuffer.TransferFunction
	norm      render.Normalizer
	matrix    vecmath.Mat4
	view      vecmath.Mat4
	w, h      int
	dz        float64
	invDepth  float64
	depthLo   float64

	// Per-pass parameters.
	s0, s1           int
	slabSamples      int
	zPassLo, zPassHi float64

	// Projection buffers (per vertex).
	sx, sy, sz []float64
	behind     []bool
	// Initialization buffers (per tet).
	minZ, maxZ []float64
	valid      []bool
	flags      []bool
	// Pass working set.
	active  []int32
	work    []screenTet
	compact dpp.Compactor
	// Sample/accumulation buffers (per pixel).
	samples []uint32
	accum   []float64
	firstZ  []float64
	// touched is a per-pixel bitmask of "a sample was written this
	// pass"; compositing skips clean pixels instead of scanning their
	// all-empty slabs.
	touched []uint32

	img   framebuffer.Image
	stats UnstructuredStats

	passSamples atomic.Int64

	projectFn, normalizeFn, initTetsFn func(lo, hi int)
	flagsFn, gatherFn, sampleFn        func(lo, hi int)
	resetFn, compositeFn               func(lo, hi int)
}

func (a *unstructuredArena) init(r *UnstructuredRenderer) {
	if a.r != nil {
		return
	}
	a.r = r
	a.compact.Init(r.Dev)
	a.projectFn = a.projectKernel
	a.normalizeFn = a.normalizeKernel
	a.initTetsFn = a.initTetsKernel
	a.flagsFn = a.flagsKernel
	a.gatherFn = a.gatherKernel
	a.sampleFn = a.sampleKernel
	a.resetFn = a.resetKernel
	a.compositeFn = a.compositeKernel
}

// ensure sizes the arena for the mesh and frame geometry.
func (a *unstructuredArena) ensure(nverts, ntets, npix, slab int) {
	if cap(a.sx) < nverts {
		a.sx = make([]float64, nverts)
		a.sy = make([]float64, nverts)
		a.sz = make([]float64, nverts)
		a.behind = make([]bool, nverts)
	}
	a.sx, a.sy, a.sz, a.behind = a.sx[:nverts], a.sy[:nverts], a.sz[:nverts], a.behind[:nverts]
	if cap(a.minZ) < ntets {
		a.minZ = make([]float64, ntets)
		a.maxZ = make([]float64, ntets)
		a.valid = make([]bool, ntets)
		a.flags = make([]bool, ntets)
	}
	a.minZ, a.maxZ, a.valid, a.flags = a.minZ[:ntets], a.maxZ[:ntets], a.valid[:ntets], a.flags[:ntets]
	if cap(a.samples) < npix*slab {
		a.samples = make([]uint32, npix*slab)
	}
	a.samples = a.samples[:npix*slab]
	if cap(a.accum) < 4*npix {
		a.accum = make([]float64, 4*npix)
		a.firstZ = make([]float64, npix)
	}
	a.accum = a.accum[:4*npix]
	a.firstZ = a.firstZ[:npix]
	words := (npix + 31) / 32
	if cap(a.touched) < words {
		a.touched = make([]uint32, words)
	}
	a.touched = a.touched[:words]
	// Accumulators must start clean every frame: reused buffers would
	// otherwise leak the previous frame's opacity into this one.
	for i := range a.accum {
		a.accum[i] = 0
	}
	for i := range a.firstZ {
		a.firstZ[i] = math.Inf(1)
	}
}

// Render executes Algorithm 2: an initialization map computes each tet's
// depth-pass range; every pass then runs Pass Selection (threshold,
// reduce, scan, reverse-index, gather), Screen Space Transformation (map),
// Sampling (map over active tets into the slab's sample buffer), and
// Compositing (map over pixels), with early ray termination between
// passes. The returned image and stats are owned by the renderer's arena
// and valid until the next Render call.
func (r *UnstructuredRenderer) Render(opts UnstructuredOptions) (*framebuffer.Image, *UnstructuredStats, error) {
	if opts.Width <= 0 || opts.Height <= 0 {
		return nil, nil, fmt.Errorf("volume: invalid image size %dx%d", opts.Width, opts.Height)
	}
	if opts.SamplesZ <= 0 {
		opts.SamplesZ = 200
	}
	if opts.Passes <= 0 {
		opts.Passes = 1
	}
	if opts.Passes > opts.SamplesZ {
		opts.Passes = opts.SamplesZ
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
	m := r.Mesh
	cam := opts.Camera.Normalized()
	stats := &a.stats
	stats.Phases.Reset()
	stats.PassCount = opts.Passes
	stats.Objects = m.NumTets()
	stats.ActivePixels, stats.TetsProcessed, stats.TotalSamples = 0, 0, 0
	a.img.EnsureSize(opts.Width, opts.Height)
	img := &a.img
	ntets := m.NumTets()
	if ntets == 0 {
		return img, stats, nil
	}

	lo, hi := opts.FieldRange[0], opts.FieldRange[1]
	if lo == 0 && hi == 0 {
		lo, hi = m.ScalarMin, m.ScalarMax
	}
	a.norm = render.Normalizer{Min: lo, Max: hi}

	a.matrix = cam.Matrix(opts.Width, opts.Height)
	a.view = vecmath.LookAt(cam.Position, cam.LookAt, cam.Up)
	a.w, a.h = opts.Width, opts.Height
	npix := a.w * a.h

	slabSamples := (opts.SamplesZ + opts.Passes - 1) / opts.Passes
	a.slabSamples = slabSamples
	nverts := m.NumVertices()
	a.ensure(nverts, ntets, npix, slabSamples)

	// Project all vertices once; tets index the projected coordinates.
	// Screen x/y come from the perspective transform; depth is the LINEAR
	// view-space distance normalized to the data's own depth extent — the
	// paper's setup of near/far planes "as close as possible without
	// clipping away data", which keeps the S depth samples inside the
	// volume instead of wasted on empty NDC range.
	startInit := time.Now()
	dpp.For(r.Dev, nverts, a.projectFn)
	// Normalize depths to [0,1] over the visible vertices.
	dlo, dhi := math.Inf(1), math.Inf(-1)
	for v := 0; v < nverts; v++ {
		if a.behind[v] {
			continue
		}
		dlo = math.Min(dlo, a.sz[v])
		dhi = math.Max(dhi, a.sz[v])
	}
	if !(dhi > dlo) {
		return img, stats, nil
	}
	a.depthLo = dlo
	a.invDepth = 1 / (dhi - dlo)
	dpp.For(r.Dev, nverts, a.normalizeFn)

	// Initialization: min/max NDC depth per tet, converted to pass range.
	dpp.For(r.Dev, ntets, a.initTetsFn)
	stats.Phases.Add("init", time.Since(startInit))

	a.dz = 1.0 / float64(opts.SamplesZ)

	for pass := 0; pass < opts.Passes; pass++ {
		a.s0 = pass * slabSamples
		a.s1 = min(a.s0+slabSamples, opts.SamplesZ)
		if a.s0 >= a.s1 {
			break
		}
		a.zPassLo = float64(a.s0) * a.dz
		a.zPassHi = float64(a.s1) * a.dz

		// Pass Selection: threshold map + compaction (reduce/scan/gather).
		start := time.Now()
		dpp.For(r.Dev, ntets, a.flagsFn)
		a.active = a.compact.CompactIndices(a.flags)
		stats.TetsProcessed += int64(len(a.active))
		stats.Phases.Add("passselect", time.Since(start))

		// Screen Space Transformation: gather active tets' projected
		// vertices into a compact working set.
		start = time.Now()
		if cap(a.work) < len(a.active) {
			a.work = make([]screenTet, len(a.active))
		}
		a.work = a.work[:len(a.active)]
		dpp.For(r.Dev, len(a.active), a.gatherFn)
		stats.Phases.Add("screenspace", time.Since(start))

		// Sampling: for every active tet, test every (pixel, depth sample)
		// in its screen bounding box with barycentric coordinates.
		start = time.Now()
		dpp.For(r.Dev, len(a.samples), a.resetFn)
		for i := range a.touched {
			a.touched[i] = 0
		}
		a.passSamples.Store(0)
		dpp.For(r.Dev, len(a.active), a.sampleFn)
		stats.TotalSamples += a.passSamples.Load()
		stats.Phases.Add("sampling", time.Since(start))

		// Compositing: fold the slab's samples into the per-pixel
		// accumulators front to back.
		start = time.Now()
		dpp.For(r.Dev, npix, a.compositeFn)
		stats.Phases.Add("composite", time.Since(start))
	}

	for p := 0; p < npix; p++ {
		if a.accum[4*p+3] > 0 {
			img.Set(p%a.w, p/a.w,
				float32(a.accum[4*p]), float32(a.accum[4*p+1]), float32(a.accum[4*p+2]), float32(a.accum[4*p+3]),
				float32(a.firstZ[p]))
		}
	}
	stats.ActivePixels = img.ActivePixels()
	return img, stats, nil
}

// projectKernel transforms vertices to screen space.
func (a *unstructuredArena) projectKernel(vlo, vhi int) {
	m := a.r.Mesh
	for v := vlo; v < vhi; v++ {
		p, pw := a.matrix.TransformPoint(m.Vertex(int32(v)))
		vp, _ := a.view.TransformPoint(m.Vertex(int32(v)))
		if pw <= 0 || vp.Z >= 0 {
			a.behind[v] = true
			// Reused buffers: clear the stale projection so no later
			// frame-dependent read sees last frame's coordinates.
			a.sx[v], a.sy[v], a.sz[v] = 0, 0, 0
			continue
		}
		a.behind[v] = false
		a.sx[v], a.sy[v], a.sz[v] = p.X, p.Y, -vp.Z
	}
}

// normalizeKernel maps visible depths to [0,1].
func (a *unstructuredArena) normalizeKernel(vlo, vhi int) {
	for v := vlo; v < vhi; v++ {
		if !a.behind[v] {
			a.sz[v] = (a.sz[v] - a.depthLo) * a.invDepth
		}
	}
}

// initTetsKernel computes each tet's screen bounds and depth-pass range.
func (a *unstructuredArena) initTetsKernel(tlo, thi int) {
	m := a.r.Mesh
	w, h := a.w, a.h
	for t := tlo; t < thi; t++ {
		zlo, zhi := math.Inf(1), math.Inf(-1)
		xlo, xhi := math.Inf(1), math.Inf(-1)
		ylo, yhi := math.Inf(1), math.Inf(-1)
		ok := true
		for c := 0; c < 4; c++ {
			v := m.Conn[4*t+c]
			if a.behind[v] {
				ok = false
				break
			}
			zlo = math.Min(zlo, a.sz[v])
			zhi = math.Max(zhi, a.sz[v])
			xlo = math.Min(xlo, a.sx[v])
			xhi = math.Max(xhi, a.sx[v])
			ylo = math.Min(ylo, a.sy[v])
			yhi = math.Max(yhi, a.sy[v])
		}
		if !ok || zhi < 0 || zlo > 1 || xhi < 0 || xlo >= float64(w) || yhi < 0 || ylo >= float64(h) {
			a.valid[t] = false
			a.minZ[t], a.maxZ[t] = 0, 0
			continue
		}
		a.valid[t] = true
		a.minZ[t] = zlo
		a.maxZ[t] = zhi
	}
}

// flagsKernel marks tets intersecting the current pass slab.
func (a *unstructuredArena) flagsKernel(tlo, thi int) {
	for t := tlo; t < thi; t++ {
		a.flags[t] = a.valid[t] && a.maxZ[t] >= a.zPassLo && a.minZ[t] < a.zPassHi
	}
}

// gatherKernel packs active tets' projected vertices.
func (a *unstructuredArena) gatherKernel(alo, ahi int) {
	m := a.r.Mesh
	for i := alo; i < ahi; i++ {
		t := int(a.active[i])
		var st screenTet
		for c := 0; c < 4; c++ {
			v := m.Conn[4*t+c]
			st.x[c], st.y[c], st.z[c] = a.sx[v], a.sy[v], a.sz[v]
			st.s[c] = m.Scalars[v]
		}
		a.work[i] = st
	}
}

// resetKernel refills the slab buffer with the empty sentinel.
func (a *unstructuredArena) resetKernel(lo, hi int) {
	for i := lo; i < hi; i++ {
		a.samples[i] = sampleNaN
	}
}

// sampleKernel rasterizes active tets into the slab buffer.
func (a *unstructuredArena) sampleKernel(alo, ahi int) {
	var local int64
	for i := alo; i < ahi; i++ {
		local += sampleTet(&a.work[i], a.samples, a.accum, a.touched, a.w, a.h, a.s0, a.s1, a.slabSamples, a.dz)
	}
	a.passSamples.Add(local)
}

// compositeKernel folds the slab's samples into the pixel accumulators.
func (a *unstructuredArena) compositeKernel(plo, phi int) {
	refStep := 1.0 / 200
	dz := a.dz
	exp := dz / refStep
	s0, s1, slab := a.s0, a.s1, a.slabSamples
	for p := plo; p < phi; p++ {
		// Pixels no tet touched this pass have all-empty slabs: skip the
		// scan entirely (contributes nothing either way).
		if a.touched[p>>5]&(1<<uint(p&31)) == 0 {
			continue
		}
		acc := a.accum[4*p+3]
		if acc >= 0.99 {
			continue
		}
		cr, cg, cb := a.accum[4*p], a.accum[4*p+1], a.accum[4*p+2]
		for s := s0; s < s1; s++ {
			bits := a.samples[p*slab+(s-s0)]
			if bits == sampleNaN {
				continue
			}
			v := float64(math.Float32frombits(bits))
			sr, sg, sb, sa := a.tf.Sample(a.norm.Normalize(v))
			if sa <= 0 {
				continue
			}
			// Pow(x, 1) is exactly x: skip the call for the default
			// sample budget with identical results.
			om := 1 - sa
			if exp != 1 {
				om = math.Pow(om, exp)
			}
			sa = 1 - om
			wgt := (1 - acc) * sa
			cr += wgt * sr
			cg += wgt * sg
			cb += wgt * sb
			acc += wgt
			z := float64(s) * dz
			if z < a.firstZ[p] {
				a.firstZ[p] = z
			}
			if acc >= 0.99 {
				break
			}
		}
		a.accum[4*p], a.accum[4*p+1], a.accum[4*p+2], a.accum[4*p+3] = cr, cg, cb, acc
	}
}

// sampleTet rasterizes one screen-space tetrahedron into the slab buffer,
// returning the number of samples written. Samples are stored with atomic
// writes because tets sharing a face may both own a boundary sample;
// touched pixels are flagged in the bitmask the same way.
func sampleTet(st *screenTet, samples []uint32, accum []float64, touched []uint32, w, h, s0, s1, slabSamples int, dz float64) int64 {
	minX := int(math.Floor(min4(st.x)))
	maxX := int(math.Ceil(max4(st.x)))
	minY := int(math.Floor(min4(st.y)))
	maxY := int(math.Ceil(max4(st.y)))
	if minX < 0 {
		minX = 0
	}
	if minY < 0 {
		minY = 0
	}
	if maxX > w-1 {
		maxX = w - 1
	}
	if maxY > h-1 {
		maxY = h - 1
	}
	zlo := math.Max(min4(st.z), float64(s0)*dz)
	zhi := math.Min(max4(st.z), float64(s1)*dz)
	slo := int(math.Ceil(zlo / dz))
	shi := int(math.Floor(zhi / dz))
	if slo < s0 {
		slo = s0
	}
	if shi >= s1 {
		shi = s1 - 1
	}
	if minX > maxX || minY > maxY || slo > shi {
		return 0
	}

	// Invert the barycentric system once per tet: p = v0 + M*(b1,b2,b3).
	var mmat [9]float64
	mmat[0] = st.x[1] - st.x[0]
	mmat[1] = st.x[2] - st.x[0]
	mmat[2] = st.x[3] - st.x[0]
	mmat[3] = st.y[1] - st.y[0]
	mmat[4] = st.y[2] - st.y[0]
	mmat[5] = st.y[3] - st.y[0]
	mmat[6] = st.z[1] - st.z[0]
	mmat[7] = st.z[2] - st.z[0]
	mmat[8] = st.z[3] - st.z[0]
	inv, ok := invert3(mmat)
	if !ok {
		return 0
	}

	const eps = -1e-9
	// Depth gradients of the barycentrics: b_i is affine in rz with
	// slope g_i, which lets each pixel narrow its depth scan to the
	// feasible interval before testing samples. Reciprocals are taken
	// once per tet so the per-pixel bound computation multiplies instead
	// of divides; the rounding difference is absorbed by the interval's
	// two-sample safety margin.
	g1, g2, g3 := inv[2], inv[5], inv[8]
	g0 := -(g1 + g2 + g3)
	gs := [4]float64{g0, g1, g2, g3}
	var igs [4]float64
	for c, g := range gs {
		if g > 1e-12 || g < -1e-12 {
			igs[c] = 1 / g
		}
	}

	var written int64
	for py := minY; py <= maxY; py++ {
		fy := float64(py) + 0.5
		for px := minX; px <= maxX; px++ {
			p := py*w + px
			// Early ray termination: skip already-opaque pixels.
			if accum[4*p+3] >= 0.99 {
				continue
			}
			fx := float64(px) + 0.5
			// Hoist the x/y partial sums of the barycentric dot products
			// out of the depth loop. Go's + is left-associative, so
			// (inv0*rx + inv1*ry) + inv2*rz is bit-identical to the
			// unhoisted three-term sum — the inner loop drops from nine
			// multiplies to three with no numeric change.
			rx := fx - st.x[0]
			ry := fy - st.y[0]
			u1 := inv[0]*rx + inv[1]*ry
			u2 := inv[3]*rx + inv[4]*ry
			u3 := inv[6]*rx + inv[7]*ry
			// Narrow the depth range by solving u_i + g_i*rz >= eps for
			// rz and intersecting the four half-lines. The float-derived
			// interval is widened by two whole samples and every
			// candidate inside it is still exactly re-tested, so the
			// emitted samples are identical to the full scan's;
			// near-constant barycentrics (tiny |g|) simply don't
			// constrain the interval.
			pLo, pHi := slo, shi
			u0 := 1 - u1 - u2 - u3
			us := [4]float64{u0, u1, u2, u3}
			rzLo, rzHi := math.Inf(-1), math.Inf(1)
			infeasible := false
			for c := 0; c < 4; c++ {
				u, g := us[c], gs[c]
				if g > 1e-12 {
					if bound := (eps - u) * igs[c]; bound > rzLo {
						rzLo = bound
					}
				} else if g < -1e-12 {
					if bound := (eps - u) * igs[c]; bound < rzHi {
						rzHi = bound
					}
				} else if u < eps-1e-9 {
					// Constant and clearly infeasible: no sample passes.
					infeasible = true
					break
				}
			}
			if infeasible || rzLo > rzHi {
				continue
			}
			if !math.IsInf(rzLo, -1) {
				if sA := int(math.Floor((rzLo+st.z[0])/dz)) - 2; sA > pLo {
					pLo = sA
				}
			}
			if !math.IsInf(rzHi, 1) {
				if sB := int(math.Ceil((rzHi+st.z[0])/dz)) + 2; sB < pHi {
					pHi = sB
				}
			}
			wrote := false
			for s := pLo; s <= pHi; s++ {
				fz := float64(s) * dz
				rz := fz - st.z[0]
				b1 := u1 + g1*rz
				b2 := u2 + g2*rz
				b3 := u3 + g3*rz
				b0 := 1 - b1 - b2 - b3
				if b0 < eps || b1 < eps || b2 < eps || b3 < eps {
					continue
				}
				val := b0*st.s[0] + b1*st.s[1] + b2*st.s[2] + b3*st.s[3]
				storeSample(&samples[p*slabSamples+(s-s0)], math.Float32bits(float32(val)))
				written++
				wrote = true
			}
			if wrote {
				atomic.OrUint32(&touched[p>>5], 1<<uint(p&31))
			}
		}
	}
	return written
}

// storeSample merges one sample into a slab slot. Adjacent tets may both
// own a boundary sample and, interpolating through their own barycentric
// inverses, produce values differing in the last ulp — a plain store
// would make the image depend on write order. The merge keeps the
// largest bit pattern (the sentinel always loses), a commutative,
// associative rule, so the slab content is schedule-independent and the
// parallel-vs-serial byte-identical guarantee holds.
func storeSample(addr *uint32, bits uint32) {
	for {
		cur := atomic.LoadUint32(addr)
		if cur != sampleNaN && cur >= bits {
			return
		}
		if atomic.CompareAndSwapUint32(addr, cur, bits) {
			return
		}
	}
}

// invert3 inverts a row-major 3x3 matrix.
func invert3(m [9]float64) ([9]float64, bool) {
	a, b, c := m[0], m[1], m[2]
	d, e, f := m[3], m[4], m[5]
	g, h, i := m[6], m[7], m[8]
	det := a*(e*i-f*h) - b*(d*i-f*g) + c*(d*h-e*g)
	if math.Abs(det) < 1e-18 {
		return m, false
	}
	inv := 1 / det
	return [9]float64{
		(e*i - f*h) * inv, (c*h - b*i) * inv, (b*f - c*e) * inv,
		(f*g - d*i) * inv, (a*i - c*g) * inv, (c*d - a*f) * inv,
		(d*h - e*g) * inv, (b*g - a*h) * inv, (a*e - b*d) * inv,
	}, true
}

func min4(v [4]float64) float64 {
	return math.Min(math.Min(v[0], v[1]), math.Min(v[2], v[3]))
}

func max4(v [4]float64) float64 {
	return math.Max(math.Max(v[0], v[1]), math.Max(v[2], v[3]))
}
