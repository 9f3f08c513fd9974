// Package raster implements the paper's data-parallel rasterizer: an
// object-order pipeline that transforms triangles to screen space, culls
// invisible geometry with stream compaction, and rasterizes survivors by
// sampling barycentric coordinates over each triangle's screen bounding
// box into a lock-free packed depth buffer. Its cost model is
// T = c0*O + c1*(VO*PPT) + c2.
package raster

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

// Options configures one rasterization. Every frame is lit by the
// camera's headlight and colored with the cool-to-warm map.
type Options struct {
	Width, Height int
	Camera        render.Camera
}

// Stats reports per-phase timings and the measured model inputs:
// Objects (O), VisibleObjects (VO), and PixelsConsidered (VO*PPT).
type Stats struct {
	Phases           render.Timings
	Objects          int
	VisibleObjects   int
	PixelsConsidered int64
	ActivePixels     int
}

// PPT returns the average pixels considered per visible triangle.
func (s *Stats) PPT() float64 {
	if s.VisibleObjects == 0 {
		return 0
	}
	return float64(s.PixelsConsidered) / float64(s.VisibleObjects)
}

// Renderer rasterizes one triangle mesh. The renderer owns a frame arena
// (projected triangles, visibility flags, the packed depth buffer, the
// output image, and the pipeline kernels), so steady-state frames perform
// no heap allocation; the returned image and stats are valid until the
// next Render call. Rendering only reads Mesh, which may be repointed
// between frames. Not safe for concurrent use.
type Renderer struct {
	Dev  *device.Device
	Mesh *mesh.TriangleMesh

	arena rasterArena
}

// New prepares a rasterizer for the mesh.
func New(dev *device.Device, m *mesh.TriangleMesh) *Renderer {
	m.EnsureNormals()
	if m.ScalarMin == 0 && m.ScalarMax == 0 {
		m.UpdateScalarRange()
	}
	return &Renderer{Dev: dev, Mesh: m}
}

// screenTri is one projected triangle with per-vertex Gouraud colors.
type screenTri struct {
	x, y, z [3]float64 // pixel coords + NDC depth
	c       [3]vecmath.Vec3
}

// rasterArena is the renderer's persistent per-frame state.
type rasterArena struct {
	r *Renderer

	// Per-frame parameters.
	opts   Options
	cam    render.Camera
	light  render.Light
	cmap   *framebuffer.ColorMap
	norm   render.Normalizer
	matrix vecmath.Mat4

	tris    []screenTri
	visible []bool
	vis     []int32
	compact dpp.Compactor
	buf     framebuffer.PackedBuffer
	img     framebuffer.Image
	stats   Stats

	considered atomic.Int64

	transformFn, rasterizeFn func(lo, hi int)
}

func (a *rasterArena) init(r *Renderer) {
	if a.r != nil {
		return
	}
	a.r = r
	a.cmap = framebuffer.CoolToWarm()
	a.compact.Init(r.Dev)
	a.transformFn = a.transformKernel
	a.rasterizeFn = a.rasterizeKernel
}

// Render executes the pipeline and returns the image and stats. Both are
// owned by the renderer's arena and valid until the next Render call;
// Clone the image to retain it across frames.
func (r *Renderer) Render(opts Options) (*framebuffer.Image, *Stats, error) {
	if opts.Width <= 0 || opts.Height <= 0 {
		return nil, nil, fmt.Errorf("raster: invalid image size %dx%d", opts.Width, opts.Height)
	}
	a := &r.arena
	a.init(r)
	a.opts = opts
	a.cam = opts.Camera.Normalized()
	a.light = render.HeadLight(a.cam)
	m := r.Mesh
	n := m.NumTriangles()
	stats := &a.stats
	stats.Phases.Reset()
	stats.Objects = n
	stats.VisibleObjects, stats.PixelsConsidered, stats.ActivePixels = 0, 0, 0
	a.img.EnsureSize(opts.Width, opts.Height)
	img := &a.img
	a.matrix = a.cam.Matrix(opts.Width, opts.Height)
	a.norm = render.Normalizer{Min: m.ScalarMin, Max: m.ScalarMax}
	if cap(a.tris) < n {
		a.tris = make([]screenTri, n)
		a.visible = make([]bool, n)
	}
	a.tris, a.visible = a.tris[:n], a.visible[:n]

	// Transform + cull: project every triangle, flag the on-screen ones.
	start := time.Now()
	dpp.For(r.Dev, n, a.transformFn)
	stats.Phases.Add("transform", time.Since(start))

	// Stream compaction of visible triangles.
	start = time.Now()
	a.vis = a.compact.CompactIndices(a.visible)
	stats.VisibleObjects = len(a.vis)
	stats.Phases.Add("cull", time.Since(start))

	// Rasterize into the packed atomic depth buffer.
	start = time.Now()
	a.buf.EnsureSize(opts.Width, opts.Height)
	a.considered.Store(0)
	dpp.For(r.Dev, len(a.vis), a.rasterizeFn)
	stats.PixelsConsidered = a.considered.Load()
	stats.Phases.Add("rasterize", time.Since(start))

	// Resolve the packed buffer into the float framebuffer.
	start = time.Now()
	a.buf.Resolve(img)
	stats.Phases.Add("resolve", time.Since(start))
	stats.ActivePixels = img.ActivePixels()
	return img, stats, nil
}

// transformKernel projects triangles and flags on-screen ones.
func (a *rasterArena) transformKernel(lo, hi int) {
	m := a.r.Mesh
	w := float64(a.opts.Width)
	h := float64(a.opts.Height)
	for t := lo; t < hi; t++ {
		var st screenTri
		ok := true
		for c := 0; c < 3; c++ {
			vi := m.Conn[3*t+c]
			world := m.Vertex(vi)
			p, pw := a.matrix.TransformPoint(world)
			if pw <= 0 || p.Z < 0 || p.Z > 1 {
				ok = false
				break
			}
			st.x[c], st.y[c], st.z[c] = p.X, p.Y, p.Z
			base := a.cmap.Sample(a.norm.Normalize(m.Scalars[vi]))
			st.c[c] = gouraud(base, world, m.Normal(vi), world.Sub(a.cam.Position).Normalize(), a.light)
		}
		if ok {
			minX := math.Min(st.x[0], math.Min(st.x[1], st.x[2]))
			maxX := math.Max(st.x[0], math.Max(st.x[1], st.x[2]))
			minY := math.Min(st.y[0], math.Min(st.y[1], st.y[2]))
			maxY := math.Max(st.y[0], math.Max(st.y[1], st.y[2]))
			if maxX < 0 || minX >= w || maxY < 0 || minY >= h {
				ok = false
			}
		}
		a.visible[t] = ok
		if ok {
			a.tris[t] = st
		}
	}
}

// rasterizeKernel rasterizes visible triangles into the packed buffer.
func (a *rasterArena) rasterizeKernel(lo, hi int) {
	var localConsidered int64
	for i := lo; i < hi; i++ {
		st := &a.tris[a.vis[i]]
		localConsidered += rasterizeTri(st, &a.buf, a.opts.Width, a.opts.Height)
	}
	a.considered.Add(localConsidered)
}

// rasterizeTri samples barycentric coordinates over the triangle's screen
// bounding box and returns the number of pixels considered.
func rasterizeTri(st *screenTri, buf *framebuffer.PackedBuffer, w, h int) int64 {
	minX := int(math.Floor(math.Min(st.x[0], math.Min(st.x[1], st.x[2]))))
	maxX := int(math.Ceil(math.Max(st.x[0], math.Max(st.x[1], st.x[2]))))
	minY := int(math.Floor(math.Min(st.y[0], math.Min(st.y[1], st.y[2]))))
	maxY := int(math.Ceil(math.Max(st.y[0], math.Max(st.y[1], st.y[2]))))
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
	if minX > maxX || minY > maxY {
		return 0
	}

	x0, y0 := st.x[0], st.y[0]
	x1, y1 := st.x[1], st.y[1]
	x2, y2 := st.x[2], st.y[2]
	area := (x1-x0)*(y2-y0) - (y1-y0)*(x2-x0)
	if area == 0 {
		return int64(maxX-minX+1) * int64(maxY-minY+1)
	}
	inv := 1 / area

	var considered int64
	for py := minY; py <= maxY; py++ {
		fy := float64(py) + 0.5
		for px := minX; px <= maxX; px++ {
			considered++
			fx := float64(px) + 0.5
			// Signed edge functions give barycentric weights; accepting
			// both orientations makes rasterization two-sided like the
			// ray tracer.
			w0 := ((x1-fx)*(y2-fy) - (y1-fy)*(x2-fx)) * inv
			w1 := ((x2-fx)*(y0-fy) - (y2-fy)*(x0-fx)) * inv
			w2 := 1 - w0 - w1
			if w0 < 0 || w1 < 0 || w2 < 0 {
				continue
			}
			depth := w0*st.z[0] + w1*st.z[1] + w2*st.z[2]
			col := st.c[0].Scale(w0).Add(st.c[1].Scale(w1)).Add(st.c[2].Scale(w2))
			buf.Write(py*w+px, float32(depth),
				framebuffer.RGBA8(float32(col.X), float32(col.Y), float32(col.Z), 1))
		}
	}
	return considered
}

// gouraud evaluates per-vertex Blinn-Phong for interpolation.
func gouraud(base, pos, nrm, viewDir vecmath.Vec3, light render.Light) vecmath.Vec3 {
	toLight := light.Position.Sub(pos)
	dist := toLight.Length()
	l := toLight.Normalize()
	att := light.Intensity / (1 + 0.1*dist)
	diffuse := math.Abs(nrm.Dot(l))
	hv := l.Sub(viewDir).Normalize()
	spec := math.Pow(math.Abs(nrm.Dot(hv)), 30) * 0.25
	c := base.Scale(0.15 + 0.85*diffuse*att)
	return c.Add(vecmath.V(spec, spec, spec).Scale(att))
}
