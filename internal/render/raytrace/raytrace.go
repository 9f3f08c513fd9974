// Package raytrace implements the paper's data-parallel ray tracer
// (Chapter II, Algorithm 1): breadth-first ray processing over
// structure-of-arrays ray state, expressed with map / gather / scatter /
// scan primitives. Primary rays are generated in morton order, traversal
// uses an LBVH, and the full workload adds stream compaction, ambient
// occlusion, shadows, and supersampled anti-aliasing. A frame is a
// function of its Workload: there are no other rendering knobs.
//
// The renderer owns a frame arena: the SoA ray state, Workload3's
// occlusion, shadow and color buffers, the live-ray compactor, the per-worker traversal scratch, the output image, and the
// kernel closures themselves are built on the first frame and reused
// afterwards, so a steady-state Render performs no heap allocation. The
// morton pixel order, as pixel coordinates, is cached per (width,
// height) across all renderers.
//
// Three phases have four-lane AVX2 kernels on amd64: raygen (raygen4),
// primary-ray traversal (bvh.IntersectClosest4) and shade (shade4, with
// an exact |n.h|^30 that leaves only out-of-range lanes to math.Pow).
// A frame takes all three when bvh.Packets reports the host runs them
// and the device is not Scalar; otherwise, and for compact, ao, shadow
// and accumulate always, it runs the scalar loops. Each kernel lane
// computes its scalar loop's expressions in the same order, so both
// paths draw the same bits.
package raytrace

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"insitu/internal/bvh"
	"insitu/internal/device"
	"insitu/internal/dpp"
	"insitu/internal/framebuffer"
	"insitu/internal/mesh"
	"insitu/internal/render"
	"insitu/internal/vecmath"
)

// Workload selects how much of the pipeline runs, matching the paper's
// three study workloads.
type Workload int

const (
	// Workload1 traces primary rays only (the Mrays/s benchmark).
	Workload1 Workload = 1
	// Workload2 adds Blinn-Phong shading (the rasterization-equivalent
	// scientific visualization picture).
	Workload2 Workload = 2
	// Workload3 is the full algorithm: each pixel traced as 4 jittered
	// rays, the rays that hit stream compacted (the "compact" phase),
	// aoSamples ambient-occlusion rays per hit reaching aoReach of the
	// scene diagonal, one shadow ray per hit toward the headlight, and
	// Workload2's shading darkened by both, averaged over each pixel's
	// rays (anti-aliasing).
	Workload3 Workload = 3
)

// The ambient-occlusion recipe of Workload3: hemisphere samples per hit,
// and the occlusion rays' length as a fraction of the scene diagonal.
const (
	aoSamples = 4
	aoReach   = 0.05
)

// Options configures one render: the image, the view and the workload.
// Every frame is lit by the camera's headlight and colored with the
// cool-to-warm map.
type Options struct {
	Width, Height int
	Camera        render.Camera
	Workload      Workload
}

// Stats reports per-phase timings and the measured model inputs.
type Stats struct {
	BVHBuild     time.Duration
	Phases       render.Timings
	Objects      int
	PrimaryRays  int
	TotalRays    int64
	ActivePixels int
	// NodeTests and TriTests are the box (slab) tests and triangle tests
	// the primary-ray traversal executed this frame, on the scalar and the
	// packet path alike. They are the measured counterpart of the model's
	// c2*AP*log2(O) term: work that is a pure function of scene, camera
	// and kernel, and so repeats exactly where the phase timings do not.
	NodeTests int64
	TriTests  int64
}

// MRaysPerSec returns primary rays per second (in millions) using the
// traversal phase only, the paper's Workload1 metric.
func (s *Stats) MRaysPerSec() float64 {
	d := s.Phases.Get("traversal").Seconds()
	if d == 0 {
		return 0
	}
	return float64(s.PrimaryRays) / d / 1e6
}

// Renderer owns the acceleration structure for a mesh and the reusable
// frame arena. Building once and rendering many times matches the model's
// separation of the c0*O + c1 build term from the per-frame terms.
// Rendering only reads Mesh and BVH, so renderers may share them, and a
// renderer may be repointed at another mesh and its BVH between frames.
// A Renderer is not safe for concurrent use.
type Renderer struct {
	Dev  *device.Device
	Mesh *mesh.TriangleMesh
	BVH  *bvh.BVH

	arena frameArena
}

// New builds a renderer with the default LBVH.
func New(dev *device.Device, m *mesh.TriangleMesh) *Renderer {
	return NewWithBuilder(dev, m, bvh.LBVH)
}

// NewWithBuilder builds a renderer with an explicit BVH builder.
func NewWithBuilder(dev *device.Device, m *mesh.TriangleMesh, builder bvh.Builder) *Renderer {
	m.EnsureNormals()
	if m.ScalarMin == 0 && m.ScalarMax == 0 {
		m.UpdateScalarRange()
	}
	return &Renderer{Dev: dev, Mesh: m, BVH: bvh.Build(dev, m, builder)}
}

// raysSoA is the structure-of-arrays ray state the pipeline stages share.
// Every primary ray starts at the camera position, so only directions
// are stored.
type raysSoA struct {
	dx, dy, dz []float64
	hitT       []float64
	hitU, hitV []float64
	hitPrim    []int32
}

// ensure grows the SoA to n rays, reallocating only on growth.
func (r *raysSoA) ensure(n int) {
	if cap(r.dx) < n {
		r.dx, r.dy, r.dz = make([]float64, n), make([]float64, n), make([]float64, n)
		r.hitT, r.hitU, r.hitV = make([]float64, n), make([]float64, n), make([]float64, n)
		r.hitPrim = make([]int32, n)
	}
	r.dx, r.dy, r.dz = r.dx[:n], r.dy[:n], r.dz[:n]
	r.hitT, r.hitU, r.hitV = r.hitT[:n], r.hitU[:n], r.hitV[:n]
	r.hitPrim = r.hitPrim[:n]
}

func (r *raysSoA) dir(i int) vecmath.Vec3 { return vecmath.V(r.dx[i], r.dy[i], r.dz[i]) }

func (r *raysSoA) setHit(i int, hit bvh.Hit) {
	r.hitPrim[i], r.hitT[i], r.hitU[i], r.hitV[i] = hit.Prim, hit.T, hit.U, hit.V
}

// jitterTable is the fixed 4-sample supersampling pattern.
var jitterTable = [4][2]float64{{0.5, 0.5}, {0.25, 0.25}, {0.75, 0.25}, {0.5, 0.75}}

// packetScratch is one worker's primary-ray Tracer, padded to a whole
// number of 64-byte cache lines so that two workers writing their own
// never share a line. Hoisting it out of the chunk loop is what keeps
// traversal allocation-free.
type packetScratch struct {
	tr bvh.Tracer
	_  [64 - unsafe.Sizeof(bvh.Tracer{})%64]byte
}

// frameArena is the renderer's persistent per-frame state: every buffer
// the pipeline stages share, the per-frame parameters the kernels read,
// and the kernel closures themselves (built once, so launching a kernel
// allocates nothing).
type frameArena struct {
	r *Renderer

	// Per-frame parameters, written by Render before kernels launch.
	cam    render.Camera
	raygen render.RayGen
	light  render.Light
	norm   render.Normalizer
	origin vecmath.Vec3 // every primary ray's origin, the camera position
	aoDist float64      // Workload3's occlusion ray length
	spp    int          // rays per pixel: 1, or 4 for Workload3
	log2   uint         // log2(spp): ray i samples pixel i>>log2
	n      int
	xy     []PixelXY // pixel coordinates in morton order

	// cmap is the cool-to-warm map every frame uses, built by init.
	cmap *framebuffer.ColorMap

	rays  raysSoA
	flags []bool
	live  []int32
	// Workload3's per-ray occlusion and shadow terms and the float64
	// colors its anti-aliasing averages, allocated on its first frame.
	// A one-ray-per-pixel frame shades straight into the image.
	occlusion []float64
	shadow    []float64
	colors    []vecmath.Vec3
	compact   dpp.Compactor
	img       framebuffer.Image
	stats     Stats

	nodeTests, triTests, castRays atomic.Int64

	// packets is the per-worker traversal scratch. quads is this frame's
	// choice of kernels: IntersectClosest4 and the four-lane raygen and
	// shade kernels where the host runs the packet kernels, unless the
	// device asks for the scalar loops. shadeQuads is whether shade4 can
	// shade this frame, and rgFrame and shFrame are its kernels' frames.
	packets    []packetScratch
	quads      bool
	shadeQuads bool
	rgFrame    raygenFrame
	shFrame    shadeFrame

	raygenFn, flagsFn, initFn func(lo, hi int)
	aoFn, shadowFn            func(lo, hi int)
	shadeFn, accumFn, hitsFn  func(lo, hi int)
	raygenQuadFn, shadeQuadFn func(lo, hi int)
	traceFn                   func(worker, lo, hi int)
}

// init wires the arena to its renderer and builds the kernel closures
// exactly once.
func (a *frameArena) init(r *Renderer) {
	if a.r != nil {
		return
	}
	a.r = r
	a.cmap = framebuffer.CoolToWarm()
	a.compact.Init(r.Dev)
	a.raygenFn = a.raygenKernel
	a.flagsFn = a.flagsKernel
	a.initFn = a.initKernel
	a.traceFn = a.traceKernel
	a.aoFn = a.aoKernel
	a.shadowFn = a.shadowKernel
	a.shadeFn = a.shadeKernel
	a.accumFn = a.accumKernel
	a.hitsFn = a.hitsKernel
	a.raygenQuadFn = a.raygenQuadKernel
	a.shadeQuadFn = a.shadeQuadKernel
}

// ensure sizes the per-frame buffers workload wl uses for n rays and
// w x h output.
func (a *frameArena) ensure(wl Workload, n, w, h int) {
	a.n = n
	a.rays.ensure(n)
	a.img.EnsureSize(w, h)
	if wl == Workload1 {
		return
	}
	if cap(a.flags) < n {
		a.flags = make([]bool, n)
	}
	a.flags = a.flags[:n]
	if wl != Workload3 {
		return
	}
	if cap(a.occlusion) < n {
		a.occlusion = make([]float64, n)
		a.shadow = make([]float64, n)
		a.colors = make([]vecmath.Vec3, n)
	}
	a.occlusion = a.occlusion[:n]
	a.shadow = a.shadow[:n]
	a.colors = a.colors[:n]
}

// Render executes the configured workload and returns the image and
// stats. Both are owned by the renderer's frame arena and remain valid
// only until the next Render call on this renderer; Clone the image (and
// copy the stats) to retain them across frames.
func (r *Renderer) Render(opts Options) (*framebuffer.Image, *Stats, error) {
	if opts.Width <= 0 || opts.Height <= 0 || opts.Width > maxSide || opts.Height > maxSide {
		return nil, nil, fmt.Errorf("raytrace: invalid image size %dx%d", opts.Width, opts.Height)
	}
	if opts.Workload == 0 {
		opts.Workload = Workload2
	}

	a := &r.arena
	a.init(r)
	a.cam = opts.Camera.Normalized()
	a.raygen = a.cam.NewRayGen(opts.Width, opts.Height)
	a.origin = a.raygen.Origin()
	a.light = render.HeadLight(a.cam)
	a.norm = render.Normalizer{Min: r.Mesh.ScalarMin, Max: r.Mesh.ScalarMax}

	stats := &a.stats
	stats.Phases.Reset()
	stats.BVHBuild = r.BVH.BuildTime
	stats.Objects = r.Mesh.NumTriangles()
	stats.PrimaryRays, stats.TotalRays, stats.ActivePixels = 0, 0, 0
	stats.NodeTests, stats.TriTests = 0, 0
	a.nodeTests.Store(0)
	a.triTests.Store(0)
	a.castRays.Store(0)

	a.spp, a.log2 = 1, 0
	if opts.Workload == Workload3 {
		a.spp, a.log2 = 4, 2
	}

	// Primary ray generation in morton order (a map over ray indices).
	start := time.Now()
	a.xy = MortonOrder(opts.Width, opts.Height)
	numPixels := len(a.xy)
	n := numPixels * a.spp
	a.ensure(opts.Workload, n, opts.Width, opts.Height)
	a.quads = bvh.Packets() && !r.Dev.Scalar
	a.shadeQuads = a.quads && a.setQuadFrames()
	raygenFn := a.raygenFn
	if a.quads {
		raygenFn = a.raygenQuadFn
	}
	dpp.For(r.Dev, n, raygenFn)
	stats.Phases.Add("raygen", time.Since(start))
	stats.PrimaryRays = n
	stats.TotalRays = int64(n)

	// Traversal and intersection.
	start = time.Now()
	if workers := max(r.Dev.Workers, 1); len(a.packets) < workers {
		a.packets = make([]packetScratch, workers)
	}
	dpp.ForWorker(r.Dev, n, a.traceFn)
	stats.NodeTests += a.nodeTests.Load()
	stats.TriTests += a.triTests.Load()
	stats.Phases.Add("traversal", time.Since(start))

	img := &a.img
	if opts.Workload == Workload1 {
		// Intersection-only picture: white where rays hit.
		start = time.Now()
		dpp.For(r.Dev, numPixels, a.hitsFn)
		stats.Phases.Add("accumulate", time.Since(start))
		stats.ActivePixels = img.ActivePixels()
		return img, stats, nil
	}

	// Live-ray index list, stream compacted. Every shaded workload
	// compacts; Workload3 times it and fills its occlusion and shadow
	// terms with their identity.
	start = time.Now()
	dpp.For(r.Dev, n, a.flagsFn)
	a.live = a.compact.CompactIndices(a.flags)
	if opts.Workload == Workload3 {
		stats.Phases.Add("compact", time.Since(start))
		dpp.For(r.Dev, n, a.initFn)

		a.aoDist = aoReach * r.BVH.Mesh.Bounds().Diagonal().Length()
		if a.aoDist == 0 {
			a.aoDist = 1
		}
		start = time.Now()
		dpp.For(r.Dev, len(a.live), a.aoFn)
		stats.Phases.Add("ao", time.Since(start))

		start = time.Now()
		dpp.For(r.Dev, len(a.live), a.shadowFn)
		stats.Phases.Add("shadow", time.Since(start))
	}

	// Shading: Blinn-Phong over interpolated normals and color-mapped
	// scalars, modulated by AO and shadow terms.
	start = time.Now()
	shadeFn := a.shadeFn
	if a.shadeQuads {
		shadeFn = a.shadeQuadFn
	}
	dpp.For(r.Dev, len(a.live), shadeFn)
	stats.Phases.Add("shade", time.Since(start))

	// Accumulate into the framebuffer; with supersampling this is the
	// anti-aliasing gather over each pixel's samples.
	start = time.Now()
	dpp.For(r.Dev, numPixels, a.accumFn)
	stats.Phases.Add("accumulate", time.Since(start))
	stats.TotalRays += a.castRays.Load()
	stats.ActivePixels = img.ActivePixels()
	return img, stats, nil
}

// raygenKernel fills the SoA with primary ray directions in morton
// order; ray i is sample i&(spp-1) of pixel i>>log2(spp).
func (a *frameArena) raygenKernel(lo, hi int) {
	log2, mask := a.log2, a.spp-1
	for i := lo; i < hi; i++ {
		p := a.xy[i>>log2]
		j := jitterTable[i&mask]
		ray := a.raygen.Ray(float64(p.X), float64(p.Y), j[0], j[1])
		a.rays.dx[i], a.rays.dy[i], a.rays.dz[i] = ray.Dir.X, ray.Dir.Y, ray.Dir.Z
	}
}

// traceKernel intersects primary rays against the BVH on the worker's
// Tracer. With quads it hands them to IntersectClosest4 four at a time,
// in groups aligned to multiples of four in the frame's Morton order (a
// 2x2 pixel quad, or one pixel's four supersamples); without, it traces
// them one by one. Either way every ray gets IntersectClosest's hit and
// counts.
func (a *frameArena) traceKernel(worker, lo, hi int) {
	rays := &a.rays
	b := a.r.BVH
	tr := &a.packets[worker].tr
	var localNode, localTri int
	if a.quads {
		for base := lo; base < hi; {
			end := min(base-base%4+4, hi)
			for k := 0; k < end-base; k++ {
				tr.SetRay(k, a.origin, rays.dir(base+k))
			}
			b.IntersectClosest4(tr, end-base, 1e-9, math.Inf(1))
			for k := 0; k < end-base; k++ {
				localNode += tr.NodeTests[k]
				localTri += tr.TriTests[k]
				rays.setHit(base+k, tr.Hit[k])
			}
			base = end
		}
	} else {
		for i := lo; i < hi; i++ {
			hit, nt, tt := b.IntersectClosestScratch(a.origin, rays.dir(i), 1e-9, math.Inf(1), tr)
			localNode += nt
			localTri += tt
			rays.setHit(i, hit)
		}
	}
	a.nodeTests.Add(int64(localNode))
	a.triTests.Add(int64(localTri))
}

// flagsKernel marks rays that hit geometry for stream compaction.
func (a *frameArena) flagsKernel(lo, hi int) {
	for i := lo; i < hi; i++ {
		a.flags[i] = a.rays.hitPrim[i] >= 0
	}
}

// initKernel resets Workload3's per-ray occlusion and shadow terms to
// their identity. Reused buffers make this reset mandatory: stale terms
// from the previous frame must never leak into the current one.
func (a *frameArena) initKernel(lo, hi int) {
	for i := lo; i < hi; i++ {
		a.occlusion[i] = 1
		a.shadow[i] = 1
	}
}

// hitsKernel paints the Workload1 hit-mask image.
func (a *frameArena) hitsKernel(lo, hi int) {
	for q := lo; q < hi; q++ {
		if a.rays.hitPrim[q] < 0 {
			continue
		}
		p := a.xy[q]
		a.img.Set(int(p.X), int(p.Y), 0.8, 0.8, 0.8, 1, float32(a.rays.hitT[q]))
	}
}

// aoKernel casts hemisphere rays around every live hit. Sample directions
// come from a per-ray deterministic hash stream, so renders are
// reproducible across devices and schedules.
func (a *frameArena) aoKernel(lo, hi int) {
	m := a.r.Mesh
	rays := &a.rays
	var localCast int64
	for li := lo; li < hi; li++ {
		i := int(a.live[li])
		prim := rays.hitPrim[i]
		nrm, _ := interpolateHit(m, prim, rays.hitU[i], rays.hitV[i])
		view := rays.dir(i)
		if nrm.Dot(view) > 0 {
			nrm = nrm.Neg()
		}
		pos := a.origin.Add(view.Scale(rays.hitT[i])).Add(nrm.Scale(1e-6 * a.aoDist))
		t1, t2 := tangentFrame(nrm)
		seed := uint64(i)*0x9e3779b97f4a7c15 + 0x1234
		blocked := 0
		for s := 0; s < aoSamples; s++ {
			u1 := hashFloat(&seed)
			u2 := hashFloat(&seed)
			dir := cosineHemisphere(nrm, t1, t2, u1, u2)
			localCast++
			if a.r.BVH.IntersectAny(pos, dir, 1e-9, a.aoDist) {
				blocked++
			}
		}
		a.occlusion[i] = 1 - float64(blocked)/float64(aoSamples)
	}
	a.castRays.Add(localCast)
}

// shadowKernel tests visibility from every live hit to the light.
func (a *frameArena) shadowKernel(lo, hi int) {
	rays := &a.rays
	var localCast int64
	for li := lo; li < hi; li++ {
		i := int(a.live[li])
		pos := a.origin.Add(rays.dir(i).Scale(rays.hitT[i]))
		toLight := a.light.Position.Sub(pos)
		dist := toLight.Length()
		if dist == 0 {
			continue
		}
		dir := toLight.Scale(1 / dist)
		localCast++
		if a.r.BVH.IntersectAny(pos.Add(dir.Scale(1e-6*dist)), dir, 1e-9, dist*(1-1e-6)) {
			a.shadow[i] = 0.35
		}
	}
	a.castRays.Add(localCast)
}

// shadeKernel evaluates Blinn-Phong over interpolated normals and
// color-mapped scalars. Workload3 modulates it by the AO and shadow
// terms for accumulate to average; with one ray per pixel it is the
// pixel's color, written into the image's RGB words (accumulate adds
// alpha and depth).
func (a *frameArena) shadeKernel(lo, hi int) {
	for li := lo; li < hi; li++ {
		i := int(a.live[li])
		a.storeShade(i, a.shadeRay(i))
	}
}

// shadeRay is ray i's Blinn-Phong color.
func (a *frameArena) shadeRay(i int) vecmath.Vec3 {
	rays := &a.rays
	dir := rays.dir(i)
	pos := a.origin.Add(dir.Scale(rays.hitT[i]))
	nrm, scalar := interpolateHit(a.r.Mesh, rays.hitPrim[i], rays.hitU[i], rays.hitV[i])
	base := a.cmap.Sample(a.norm.Normalize(scalar))
	return shade(base, pos, nrm, dir, a.light)
}

// storeShade writes ray i's color c: scaled by its occlusion and shadow
// terms into colors with supersampling, into its pixel's RGB words
// without.
func (a *frameArena) storeShade(i int, c vecmath.Vec3) {
	if a.spp > 1 {
		a.colors[i] = c.Scale(a.occlusion[i] * a.shadow[i])
		return
	}
	p := a.xy[i]
	rgb := a.img.Color[4*(int(p.Y)*a.img.W+int(p.X)):][:3]
	rgb[0], rgb[1], rgb[2] = float32(c.X), float32(c.Y), float32(c.Z)
}

// accumKernel gathers each pixel's samples into the framebuffer.
func (a *frameArena) accumKernel(lo, hi int) {
	rays := &a.rays
	spp := a.spp
	if spp == 1 {
		// One ray per pixel: the average of one sample is the sample,
		// whose color shade already wrote.
		w := a.img.W
		for q := lo; q < hi; q++ {
			if rays.hitPrim[q] < 0 {
				continue
			}
			p := a.xy[q]
			k := int(p.Y)*w + int(p.X)
			a.img.Color[4*k+3] = 1
			a.img.Depth[k] = float32(rays.hitT[q])
		}
		return
	}
	for q := lo; q < hi; q++ {
		var sum vecmath.Vec3
		hits := 0
		minT := math.Inf(1)
		for s := 0; s < spp; s++ {
			i := q*spp + s
			if rays.hitPrim[i] >= 0 {
				hits++
				sum = sum.Add(a.colors[i])
				if rays.hitT[i] < minT {
					minT = rays.hitT[i]
				}
			}
		}
		if hits == 0 {
			continue
		}
		inv := 1 / float64(spp)
		alpha := float32(float64(hits) * inv)
		p := a.xy[q]
		a.img.Set(int(p.X), int(p.Y),
			float32(sum.X*inv), float32(sum.Y*inv), float32(sum.Z*inv),
			alpha, float32(minT))
	}
}

// interpolateHit returns the barycentric-interpolated normal and scalar of
// a hit on triangle prim.
func interpolateHit(m *mesh.TriangleMesh, prim int32, u, v float64) (vecmath.Vec3, float64) {
	i0, i1, i2 := m.Conn[3*prim], m.Conn[3*prim+1], m.Conn[3*prim+2]
	w := 1 - u - v
	nrm := m.Normal(i0).Scale(w).Add(m.Normal(i1).Scale(u)).Add(m.Normal(i2).Scale(v)).Normalize()
	s := m.Scalars[i0]*w + m.Scalars[i1]*u + m.Scalars[i2]*v
	return nrm, s
}

// shade evaluates two-sided Blinn-Phong with linear light attenuation.
func shade(base, pos, nrm, viewDir vecmath.Vec3, light render.Light) vecmath.Vec3 {
	toLight := light.Position.Sub(pos)
	dist := toLight.Length()
	l := toLight.Normalize()
	att := light.Intensity / (1 + 0.1*dist)
	diffuse := math.Abs(nrm.Dot(l))
	h := l.Sub(viewDir).Normalize()
	spec := math.Pow(math.Abs(nrm.Dot(h)), 30) * 0.25
	c := base.Scale(0.15 + 0.85*diffuse*att)
	return c.Add(vecmath.V(spec, spec, spec).Scale(att))
}

// tangentFrame builds an orthonormal basis around unit n.
func tangentFrame(n vecmath.Vec3) (vecmath.Vec3, vecmath.Vec3) {
	a := vecmath.V(1, 0, 0)
	if math.Abs(n.X) > 0.9 {
		a = vecmath.V(0, 1, 0)
	}
	t1 := n.Cross(a).Normalize()
	t2 := n.Cross(t1)
	return t1, t2
}

// cosineHemisphere maps two uniforms to a cosine-weighted direction about n.
func cosineHemisphere(n, t1, t2 vecmath.Vec3, u1, u2 float64) vecmath.Vec3 {
	phi := 2 * math.Pi * u1
	cosT := math.Sqrt(1 - u2)
	sinT := math.Sqrt(u2)
	return t1.Scale(math.Cos(phi) * sinT).
		Add(t2.Scale(math.Sin(phi) * sinT)).
		Add(n.Scale(cosT)).Normalize()
}

// hashFloat advances a splitmix-style stream and returns a float in [0,1).
func hashFloat(seed *uint64) float64 {
	*seed += 0x9e3779b97f4a7c15
	z := *seed
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / float64(1<<53)
}

// PixelXY is one pixel's coordinates; maxSide bounds them.
type PixelXY struct{ X, Y uint16 }

const maxSide = 1 << 16

// mortonCache shares the per-(w,h) pixel orders across all renderers:
// the order depends only on the image size, is immutable once built, and
// the study renders thousands of frames at a handful of sizes.
var (
	mortonMu    sync.Mutex
	mortonCache = map[[2]int][]PixelXY{}
)

// mortonCacheLimit bounds the cache; when exceeded it is dropped
// wholesale (sizes churn only in pathological sweeps).
const mortonCacheLimit = 64

// MortonOrder returns the pixel coordinates of a w x h image (w, h <=
// 65536) in 2-D morton (Z-curve) order, the coherence-friendly traversal
// the paper uses to raise SIMD efficiency. Orders are cached per (w, h);
// the returned slice is shared and must not be mutated.
func MortonOrder(w, h int) []PixelXY {
	key := [2]int{w, h}
	mortonMu.Lock()
	order, ok := mortonCache[key]
	mortonMu.Unlock()
	if ok {
		return order
	}
	order = computeMortonOrder(w, h)
	mortonMu.Lock()
	if len(mortonCache) >= mortonCacheLimit {
		mortonCache = map[[2]int][]PixelXY{}
	}
	mortonCache[key] = order
	mortonMu.Unlock()
	return order
}

func computeMortonOrder(w, h int) []PixelXY {
	side := 1
	for side < w || side < h {
		side <<= 1
	}
	order := make([]PixelXY, 0, w*h)
	total := side * side
	for code := 0; code < total; code++ {
		x := compact1by1(uint64(code))
		y := compact1by1(uint64(code) >> 1)
		if int(x) < w && int(y) < h {
			order = append(order, PixelXY{uint16(x), uint16(y)})
		}
	}
	return order
}

// compact1by1 extracts the even-position bits of v.
func compact1by1(v uint64) uint32 {
	v &= 0x5555555555555555
	v = (v | v>>1) & 0x3333333333333333
	v = (v | v>>2) & 0x0f0f0f0f0f0f0f0f
	v = (v | v>>4) & 0x00ff00ff00ff00ff
	v = (v | v>>8) & 0x0000ffff0000ffff
	v = (v | v>>16) & 0x00000000ffffffff
	return uint32(v)
}
