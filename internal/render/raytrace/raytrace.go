// Package raytrace implements the paper's data-parallel ray tracer
// (Chapter II, Algorithm 1): breadth-first ray processing over
// structure-of-arrays ray state, expressed with map / gather / scatter /
// scan primitives. Primary rays are generated in morton order, traversal
// uses an LBVH, and the full workload adds stream compaction, ambient
// occlusion, shadows, optional specular reflection, and supersampled
// anti-aliasing.
//
// The renderer owns a frame arena: the SoA ray state, the occlusion,
// shadow, and color buffers, the live-ray compactor, the per-worker
// packet scratch, the output image, and the kernel closures themselves
// are built on the first frame and reused afterwards, so a steady-state
// Render performs no heap allocation. The morton pixel order is cached
// per (width, height) across all renderers.
package raytrace

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

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
	// Workload3 enables every feature: ambient occlusion, shadows,
	// stream compaction, and anti-aliasing.
	Workload3 Workload = 3
)

// Options configures one render.
type Options struct {
	Width, Height int
	Camera        render.Camera
	Workload      Workload
	// AOSamples is the hemisphere sample count per hit (default 4).
	AOSamples int
	// AODistance caps occlusion rays; 0 means 5% of the scene diagonal.
	AODistance float64
	// Compaction compacts dead rays before secondary stages (Workload3).
	Compaction bool
	// Supersample traces 4 jittered rays per pixel and gathers an
	// anti-aliased image (Workload3).
	Supersample bool
	// Reflections adds one specular bounce.
	Reflections bool
	// UsePackets traces coherent ray packets of the device's VectorWidth,
	// the vector-unit ("ISPC") backend of the tracer.
	UsePackets bool
	// Light overrides the default headlight.
	Light *render.Light
	// ColorMap overrides the default cool-to-warm map.
	ColorMap *framebuffer.ColorMap
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
type raysSoA struct {
	ox, oy, oz []float64
	dx, dy, dz []float64
	hitT       []float64
	hitU, hitV []float64
	hitPrim    []int32
}

// ensure grows the SoA to n rays, reallocating only on growth.
func (r *raysSoA) ensure(n int) {
	if cap(r.ox) < n {
		r.ox, r.oy, r.oz = make([]float64, n), make([]float64, n), make([]float64, n)
		r.dx, r.dy, r.dz = make([]float64, n), make([]float64, n), make([]float64, n)
		r.hitT, r.hitU, r.hitV = make([]float64, n), make([]float64, n), make([]float64, n)
		r.hitPrim = make([]int32, n)
	}
	r.ox, r.oy, r.oz = r.ox[:n], r.oy[:n], r.oz[:n]
	r.dx, r.dy, r.dz = r.dx[:n], r.dy[:n], r.dz[:n]
	r.hitT, r.hitU, r.hitV = r.hitT[:n], r.hitU[:n], r.hitV[:n]
	r.hitPrim = r.hitPrim[:n]
}

func (r *raysSoA) orig(i int) vecmath.Vec3 { return vecmath.V(r.ox[i], r.oy[i], r.oz[i]) }
func (r *raysSoA) dir(i int) vecmath.Vec3  { return vecmath.V(r.dx[i], r.dy[i], r.dz[i]) }

// jitterTable is the fixed 4-sample supersampling pattern.
var jitterTable = [4][2]float64{{0.5, 0.5}, {0.25, 0.25}, {0.75, 0.25}, {0.5, 0.75}}

// packetScratch is one worker's reusable packet-tracing state. Hoisting
// it out of the chunk loop removes the per-chunk origs/dirs/hits
// allocations the packetized backend used to pay.
type packetScratch struct {
	origs, dirs []vecmath.Vec3
	hits        []bvh.Hit
	trav        bvh.PacketScratch
}

func (p *packetScratch) ensure(width int) {
	if cap(p.origs) < width {
		p.origs = make([]vecmath.Vec3, width)
		p.dirs = make([]vecmath.Vec3, width)
		p.hits = make([]bvh.Hit, width)
	}
	p.origs, p.dirs, p.hits = p.origs[:width], p.dirs[:width], p.hits[:width]
}

// frameArena is the renderer's persistent per-frame state: every buffer
// the pipeline stages share, the per-frame parameters the kernels read,
// and the kernel closures themselves (built once, so launching a kernel
// allocates nothing).
type frameArena struct {
	r *Renderer

	// Per-frame parameters, written by Render before kernels launch.
	opts   Options
	cam    render.Camera
	raygen render.RayGen
	light  render.Light
	cmap   *framebuffer.ColorMap
	norm   render.Normalizer
	spp    int
	n      int
	order  []int32

	rays       raysSoA
	occlusion  []float64
	shadow     []float64
	colors     []vecmath.Vec3
	reflectC   []vecmath.Vec3
	useReflect bool
	flags      []bool
	live       []int32
	compact    dpp.Compactor
	img        framebuffer.Image
	stats      Stats

	nodeTests, triTests, castRays atomic.Int64

	packets []packetScratch

	defaultCmap *framebuffer.ColorMap

	raygenFn, flagsFn, initFn, traceFn func(lo, hi int)
	aoFn, shadowFn, reflectFn          func(lo, hi int)
	shadeFn, accumFn, hitsFn           func(lo, hi int)
	tracePacketFn                      func(worker, lo, hi int)
}

// init wires the arena to its renderer and builds the kernel closures
// exactly once.
func (a *frameArena) init(r *Renderer) {
	if a.r != nil {
		return
	}
	a.r = r
	a.compact.Init(r.Dev)
	a.raygenFn = a.raygenKernel
	a.flagsFn = a.flagsKernel
	a.initFn = a.initKernel
	a.traceFn = a.traceKernel
	a.aoFn = a.aoKernel
	a.shadowFn = a.shadowKernel
	a.reflectFn = a.reflectKernel
	a.shadeFn = a.shadeKernel
	a.accumFn = a.accumKernel
	a.hitsFn = a.hitsKernel
	a.tracePacketFn = a.tracePacketKernel
}

// ensure sizes every per-frame buffer for n rays and w x h output.
func (a *frameArena) ensure(n, w, h int) {
	a.n = n
	a.rays.ensure(n)
	if cap(a.occlusion) < n {
		a.occlusion = make([]float64, n)
		a.shadow = make([]float64, n)
		a.colors = make([]vecmath.Vec3, n)
		a.flags = make([]bool, n)
	}
	a.occlusion = a.occlusion[:n]
	a.shadow = a.shadow[:n]
	a.colors = a.colors[:n]
	a.flags = a.flags[:n]
	a.img.EnsureSize(w, h)
}

// Render executes the configured workload and returns the image and
// stats. Both are owned by the renderer's frame arena and remain valid
// only until the next Render call on this renderer; Clone the image (and
// copy the stats) to retain them across frames.
//
//insitu:arena
func (r *Renderer) Render(opts Options) (*framebuffer.Image, *Stats, error) {
	if opts.Width <= 0 || opts.Height <= 0 {
		return nil, nil, fmt.Errorf("raytrace: invalid image size %dx%d", opts.Width, opts.Height)
	}
	if opts.Workload == 0 {
		opts.Workload = Workload2
	}
	if opts.AOSamples <= 0 {
		opts.AOSamples = 4
	}
	diag := r.BVH.Mesh.Bounds().Diagonal().Length()
	if opts.AODistance <= 0 {
		opts.AODistance = 0.05 * diag
		if opts.AODistance == 0 {
			opts.AODistance = 1
		}
	}

	a := &r.arena
	a.init(r)
	a.opts = opts
	a.cam = opts.Camera.Normalized()
	a.raygen = a.cam.NewRayGen(opts.Width, opts.Height)
	a.light = render.HeadLight(a.cam)
	if opts.Light != nil {
		a.light = *opts.Light
	}
	a.cmap = opts.ColorMap
	if a.cmap == nil {
		if a.defaultCmap == nil {
			a.defaultCmap = framebuffer.CoolToWarm()
		}
		a.cmap = a.defaultCmap
	}
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

	a.spp = 1
	if opts.Workload == Workload3 && opts.Supersample {
		a.spp = 4
	}

	// Primary ray generation in morton order (a map over ray indices).
	start := time.Now()
	a.order = mortonPixelOrder(opts.Width, opts.Height)
	numPixels := len(a.order)
	n := numPixels * a.spp
	a.ensure(n, opts.Width, opts.Height)
	dpp.For(r.Dev, n, a.raygenFn)
	stats.Phases.Add("raygen", time.Since(start))
	stats.PrimaryRays = n
	stats.TotalRays = int64(n)

	// Traversal and intersection.
	start = time.Now()
	if opts.UsePackets && r.Dev.VectorWidth >= 2 {
		a.ensurePackets()
		dpp.ForWorker(r.Dev, n, a.tracePacketFn)
	} else {
		dpp.For(r.Dev, n, a.traceFn)
	}
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

	// Live-ray index list, optionally stream compacted, plus the
	// occlusion/shadow identity fill.
	start = time.Now()
	dpp.For(r.Dev, n, a.flagsFn)
	//insitu:leaselife-ok the arena field is itself frame-scoped; both reset on the next Render
	a.live = a.compact.CompactIndices(a.flags)
	if opts.Workload == Workload3 && opts.Compaction {
		stats.Phases.Add("compact", time.Since(start))
	}
	dpp.For(r.Dev, n, a.initFn)

	if opts.Workload == Workload3 {
		start = time.Now()
		dpp.For(r.Dev, len(a.live), a.aoFn)
		stats.Phases.Add("ao", time.Since(start))

		start = time.Now()
		dpp.For(r.Dev, len(a.live), a.shadowFn)
		stats.Phases.Add("shadow", time.Since(start))
	}
	a.useReflect = false
	if opts.Reflections {
		start = time.Now()
		if cap(a.reflectC) < len(a.live) {
			a.reflectC = make([]vecmath.Vec3, len(a.live))
		}
		a.reflectC = a.reflectC[:len(a.live)]
		dpp.For(r.Dev, len(a.live), a.reflectFn)
		a.useReflect = true
		stats.Phases.Add("reflect", time.Since(start))
	}

	// Shading: Blinn-Phong over interpolated normals and color-mapped
	// scalars, modulated by AO and shadow terms.
	start = time.Now()
	dpp.For(r.Dev, len(a.live), a.shadeFn)
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

// raygenKernel fills the SoA with primary rays in morton order.
//
//insitu:noalloc
func (a *frameArena) raygenKernel(lo, hi int) {
	opts := &a.opts
	spp := a.spp
	for i := lo; i < hi; i++ {
		p := a.order[i/spp]
		px := float64(int(p) % opts.Width)
		py := float64(int(p) / opts.Width)
		j := jitterTable[0]
		if spp > 1 {
			j = jitterTable[i%spp]
		}
		ray := a.raygen.Ray(px, py, j[0], j[1])
		a.rays.ox[i], a.rays.oy[i], a.rays.oz[i] = ray.Orig.X, ray.Orig.Y, ray.Orig.Z
		a.rays.dx[i], a.rays.dy[i], a.rays.dz[i] = ray.Dir.X, ray.Dir.Y, ray.Dir.Z
	}
}

// traceKernel intersects rays against the BVH, scalar path.
//
//insitu:noalloc
func (a *frameArena) traceKernel(lo, hi int) {
	rays := &a.rays
	var localNode, localTri int
	for i := lo; i < hi; i++ {
		hit, nt, tt := a.r.BVH.IntersectClosest(rays.orig(i), rays.dir(i), 1e-9, math.Inf(1))
		localNode += nt
		localTri += tt
		rays.hitPrim[i] = hit.Prim
		rays.hitT[i] = hit.T
		rays.hitU[i] = hit.U
		rays.hitV[i] = hit.V
	}
	a.nodeTests.Add(int64(localNode))
	a.triTests.Add(int64(localTri))
}

// ensurePackets sizes the per-worker packet scratch.
func (a *frameArena) ensurePackets() {
	workers := a.r.Dev.Workers
	if workers < 1 {
		workers = 1
	}
	if len(a.packets) < workers {
		a.packets = make([]packetScratch, workers)
	}
	for i := range a.packets {
		a.packets[i].ensure(a.r.Dev.VectorWidth)
	}
}

// tracePacketKernel is the packetized traversal; worker indexes the
// per-worker scratch, so the inner loop performs no allocation.
//
//insitu:noalloc
func (a *frameArena) tracePacketKernel(worker, lo, hi int) {
	rays := &a.rays
	width := a.r.Dev.VectorWidth
	ps := &a.packets[worker]
	var localNode, localTri int
	for base := lo; base < hi; base += width {
		cnt := width
		if base+cnt > hi {
			cnt = hi - base
		}
		for k := 0; k < cnt; k++ {
			ps.origs[k] = rays.orig(base + k)
			ps.dirs[k] = rays.dir(base + k)
		}
		nt, tt := a.r.BVH.IntersectClosestPacketScratch(ps.origs[:cnt], ps.dirs[:cnt], 1e-9, ps.hits[:cnt], &ps.trav)
		localNode += nt
		localTri += tt
		for k := 0; k < cnt; k++ {
			rays.hitPrim[base+k] = ps.hits[k].Prim
			rays.hitT[base+k] = ps.hits[k].T
			rays.hitU[base+k] = ps.hits[k].U
			rays.hitV[base+k] = ps.hits[k].V
		}
	}
	a.nodeTests.Add(int64(localNode))
	a.triTests.Add(int64(localTri))
}

// flagsKernel marks rays that hit geometry for stream compaction.
//
//insitu:noalloc
func (a *frameArena) flagsKernel(lo, hi int) {
	for i := lo; i < hi; i++ {
		a.flags[i] = a.rays.hitPrim[i] >= 0
	}
}

// initKernel resets the per-ray occlusion and shadow terms to their
// identity. Reused buffers make this reset mandatory: stale terms from
// the previous frame must never leak into the current one.
//
//insitu:noalloc
func (a *frameArena) initKernel(lo, hi int) {
	for i := lo; i < hi; i++ {
		a.occlusion[i] = 1
		a.shadow[i] = 1
	}
}

// hitsKernel paints the Workload1 hit-mask image.
//
//insitu:noalloc
func (a *frameArena) hitsKernel(lo, hi int) {
	w := a.img.W
	spp := a.spp
	for q := lo; q < hi; q++ {
		i := q * spp
		if a.rays.hitPrim[i] < 0 {
			continue
		}
		p := int(a.order[q])
		a.img.Set(p%w, p/w, 0.8, 0.8, 0.8, 1, float32(a.rays.hitT[i]))
	}
}

// aoKernel casts hemisphere rays around every live hit. Sample directions
// come from a per-ray deterministic hash stream, so renders are
// reproducible across devices and schedules.
//
//insitu:noalloc
func (a *frameArena) aoKernel(lo, hi int) {
	m := a.r.Mesh
	rays := &a.rays
	samples := a.opts.AOSamples
	var localCast int64
	for li := lo; li < hi; li++ {
		i := int(a.live[li])
		prim := rays.hitPrim[i]
		nrm, _ := interpolateHit(m, prim, rays.hitU[i], rays.hitV[i])
		view := rays.dir(i)
		if nrm.Dot(view) > 0 {
			nrm = nrm.Neg()
		}
		pos := rays.orig(i).Add(view.Scale(rays.hitT[i])).Add(nrm.Scale(1e-6 * a.opts.AODistance))
		t1, t2 := tangentFrame(nrm)
		seed := uint64(i)*0x9e3779b97f4a7c15 + 0x1234
		blocked := 0
		for s := 0; s < samples; s++ {
			u1 := hashFloat(&seed)
			u2 := hashFloat(&seed)
			dir := cosineHemisphere(nrm, t1, t2, u1, u2)
			localCast++
			if a.r.BVH.IntersectAny(pos, dir, 1e-9, a.opts.AODistance) {
				blocked++
			}
		}
		a.occlusion[i] = 1 - float64(blocked)/float64(samples)
	}
	a.castRays.Add(localCast)
}

// shadowKernel tests visibility from every live hit to the light.
//
//insitu:noalloc
func (a *frameArena) shadowKernel(lo, hi int) {
	rays := &a.rays
	var localCast int64
	for li := lo; li < hi; li++ {
		i := int(a.live[li])
		pos := rays.orig(i).Add(rays.dir(i).Scale(rays.hitT[i]))
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

// reflectKernel traces one specular bounce for every live ray, writing
// bounce colors indexed like live (zero when the bounce misses — written
// unconditionally so reused buffers never carry stale colors).
//
//insitu:noalloc
func (a *frameArena) reflectKernel(lo, hi int) {
	m := a.r.Mesh
	rays := &a.rays
	var localCast int64
	for li := lo; li < hi; li++ {
		i := int(a.live[li])
		var c vecmath.Vec3
		nrm, _ := interpolateHit(m, rays.hitPrim[i], rays.hitU[i], rays.hitV[i])
		view := rays.dir(i)
		if nrm.Dot(view) > 0 {
			nrm = nrm.Neg()
		}
		pos := rays.orig(i).Add(view.Scale(rays.hitT[i]))
		dir := view.Reflect(nrm).Normalize()
		localCast++
		hit, _, _ := a.r.BVH.IntersectClosest(pos.Add(dir.Scale(1e-9)), dir, 1e-9, math.Inf(1))
		if hit.Prim >= 0 {
			bn, bs := interpolateHit(m, hit.Prim, hit.U, hit.V)
			base := a.cmap.Sample(a.norm.Normalize(bs))
			c = shade(base, pos.Add(dir.Scale(hit.T)), bn, dir, a.light)
		}
		a.reflectC[li] = c
	}
	a.castRays.Add(localCast)
}

// shadeKernel evaluates Blinn-Phong over interpolated normals and
// color-mapped scalars, modulated by the AO and shadow terms.
//
//insitu:noalloc
func (a *frameArena) shadeKernel(lo, hi int) {
	m := a.r.Mesh
	rays := &a.rays
	for li := lo; li < hi; li++ {
		i := int(a.live[li])
		prim := rays.hitPrim[i]
		pos := rays.orig(i).Add(rays.dir(i).Scale(rays.hitT[i]))
		nrm, scalar := interpolateHit(m, prim, rays.hitU[i], rays.hitV[i])
		base := a.cmap.Sample(a.norm.Normalize(scalar))
		c := shade(base, pos, nrm, rays.dir(i), a.light)
		c = c.Scale(a.occlusion[i] * a.shadow[i])
		if a.useReflect {
			c = c.Add(a.reflectC[li].Scale(0.2))
		}
		a.colors[i] = c
	}
}

// accumKernel gathers each pixel's samples into the framebuffer.
//
//insitu:noalloc
func (a *frameArena) accumKernel(lo, hi int) {
	rays := &a.rays
	spp := a.spp
	w := a.img.W
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
		p := int(a.order[q])
		a.img.Set(p%w, p/w,
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

// mortonCache shares the per-(w,h) pixel orders across all renderers:
// the order depends only on the image size, is immutable once built, and
// the study renders thousands of frames at a handful of sizes.
var (
	mortonMu    sync.Mutex
	mortonCache = map[[2]int][]int32{}
)

// mortonCacheLimit bounds the cache; when exceeded it is dropped
// wholesale (sizes churn only in pathological sweeps).
const mortonCacheLimit = 64

// mortonPixelOrder returns every pixel index of a w x h image in 2-D
// morton (Z-curve) order, the coherence-friendly traversal the paper uses
// to raise SIMD efficiency. Orders are cached per (w, h); the returned
// slice is shared and must not be mutated.
func mortonPixelOrder(w, h int) []int32 {
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
		mortonCache = map[[2]int][]int32{}
	}
	mortonCache[key] = order
	mortonMu.Unlock()
	return order
}

func computeMortonOrder(w, h int) []int32 {
	side := 1
	for side < w || side < h {
		side <<= 1
	}
	order := make([]int32, 0, w*h)
	total := side * side
	for code := 0; code < total; code++ {
		x := compact1by1(uint64(code))
		y := compact1by1(uint64(code) >> 1)
		if int(x) < w && int(y) < h {
			order = append(order, int32(int(y)*w+int(x)))
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
