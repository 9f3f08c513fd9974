package baseline

import (
	"math"
	"sort"
	"time"

	"insitu/internal/device"
	"insitu/internal/dpp"
	"insitu/internal/framebuffer"
	"insitu/internal/mesh"
	"insitu/internal/render"
	"insitu/internal/vecmath"
)

// VolStats reports a comparator volume render with the paper's Table 9
// phase split: screen-space transform (SS), sampling (S), compositing (C).
type VolStats struct {
	ScreenSpace time.Duration
	Sampling    time.Duration
	Composite   time.Duration
	Sort        time.Duration // HAVS only
	Total       time.Duration
}

// commonTF is shared by the comparator renderers so pictures match the
// DPP volume renderer's.
func commonTF() *framebuffer.TransferFunction {
	return framebuffer.DefaultTransferFunction()
}

// projectTets transforms tet vertices to screen space with linear depth,
// mirroring the DPP unstructured renderer's projection so the comparators
// sample the same screen-space geometry.
func projectTets(m *mesh.TetMesh, cam render.Camera, w, h int) (sx, sy, sz []float64, ok []bool) {
	matrix := cam.Normalized().Matrix(w, h)
	view := vecmath.LookAt(cam.Normalized().Position, cam.Normalized().LookAt, cam.Normalized().Up)
	n := m.NumVertices()
	sx = make([]float64, n)
	sy = make([]float64, n)
	sz = make([]float64, n)
	ok = make([]bool, n)
	dlo, dhi := math.Inf(1), math.Inf(-1)
	for v := 0; v < n; v++ {
		p, pw := matrix.TransformPoint(m.Vertex(int32(v)))
		vp, _ := view.TransformPoint(m.Vertex(int32(v)))
		if pw <= 0 || vp.Z >= 0 {
			continue
		}
		ok[v] = true
		sx[v], sy[v] = p.X, p.Y
		d := -vp.Z
		sz[v] = d
		dlo = math.Min(dlo, d)
		dhi = math.Max(dhi, d)
	}
	if dhi > dlo {
		inv := 1 / (dhi - dlo)
		for v := 0; v < n; v++ {
			if ok[v] {
				sz[v] = (sz[v] - dlo) * inv
			}
		}
	}
	return sx, sy, sz, ok
}

// HAVS is the hardware-assisted-visibility-sorting analogue: tetrahedra
// are depth-sorted with a GPU-style radix sort (as in the paper, which
// replaced HAVS's CPU sort with a measured GPU radix sort) and splatted
// in visibility order with ordered blending.
type HAVS struct {
	Mesh *mesh.TetMesh
	Dev  *device.Device
}

// Render produces the image and phase timings.
func (hv *HAVS) Render(cam render.Camera, w, h, samplesZ int) (*framebuffer.Image, VolStats, error) {
	var st VolStats
	total := time.Now()
	m := hv.Mesh
	tf := commonTF()
	norm := render.Normalizer{Min: m.ScalarMin, Max: m.ScalarMax}
	img := framebuffer.NewImage(w, h)
	ntets := m.NumTets()
	if ntets == 0 {
		st.Total = time.Since(total)
		return img, st, nil
	}

	start := time.Now()
	sx, sy, sz, okv := projectTets(m, cam, w, h)
	st.ScreenSpace = time.Since(start)

	// Depth sort by centroid with the parallel radix sort.
	start = time.Now()
	keys := make([]uint32, ntets)
	ids := make([]int32, ntets)
	for t := 0; t < ntets; t++ {
		var depth float64
		valid := true
		for c := 0; c < 4; c++ {
			v := m.Conn[4*t+c]
			if !okv[v] {
				valid = false
				break
			}
			depth += sz[v]
		}
		if !valid {
			keys[t] = math.MaxUint32
		} else {
			keys[t] = uint32(depth / 4 * float64(1<<30))
		}
		ids[t] = int32(t)
	}
	dpp.SortPairs32(hv.Dev, keys, ids)
	st.Sort = time.Since(start)

	// Splat in front-to-back order with the under operator; the ordered
	// serial blend is what the k-buffer guarantees in HAVS.
	start = time.Now()
	dz := 1.0 / float64(samplesZ)
	refStep := 1.0 / 200
	accum := img.Color
	for _, id := range ids {
		t := int(id)
		if keys[t] == math.MaxUint32 && false {
			continue
		}
		valid := true
		var xs, ys, zs, ss [4]float64
		for c := 0; c < 4; c++ {
			v := m.Conn[4*t+c]
			if !okv[v] {
				valid = false
				break
			}
			xs[c], ys[c], zs[c], ss[c] = sx[v], sy[v], sz[v], m.Scalars[v]
		}
		if !valid {
			continue
		}
		splatTet(xs, ys, zs, ss, accum, img.Depth, w, h, dz, refStep, tf, norm)
	}
	st.Sampling = time.Since(start)
	st.Composite = 0 // blending is fused into the splat loop
	st.Total = time.Since(total)
	return img, st, nil
}

// splatTet samples one screen-space tet over its bbox, blending into the
// accumulation buffer with the under operator.
func splatTet(xs, ys, zs, ss [4]float64, accum []float32, depth []float32, w, h int, dz, refStep float64, tf *framebuffer.TransferFunction, norm render.Normalizer) {
	minX := max(int(math.Floor(minOf4(xs))), 0)
	maxX := min(int(math.Ceil(maxOf4(xs))), w-1)
	minY := max(int(math.Floor(minOf4(ys))), 0)
	maxY := min(int(math.Ceil(maxOf4(ys))), h-1)
	if minX > maxX || minY > maxY {
		return
	}
	var mm [9]float64
	mm[0], mm[1], mm[2] = xs[1]-xs[0], xs[2]-xs[0], xs[3]-xs[0]
	mm[3], mm[4], mm[5] = ys[1]-ys[0], ys[2]-ys[0], ys[3]-ys[0]
	mm[6], mm[7], mm[8] = zs[1]-zs[0], zs[2]-zs[0], zs[3]-zs[0]
	inv, ok := invert3(mm)
	if !ok {
		return
	}
	zlo := minOf4(zs)
	zhi := maxOf4(zs)
	slo := int(math.Ceil(zlo / dz))
	shi := int(math.Floor(zhi / dz))
	for py := minY; py <= maxY; py++ {
		fy := float64(py) + 0.5
		for px := minX; px <= maxX; px++ {
			p := py*w + px
			a := float64(accum[4*p+3])
			if a >= 0.99 {
				continue
			}
			fx := float64(px) + 0.5
			for s := slo; s <= shi; s++ {
				fz := float64(s) * dz
				rx, ry, rz := fx-xs[0], fy-ys[0], fz-zs[0]
				b1 := inv[0]*rx + inv[1]*ry + inv[2]*rz
				b2 := inv[3]*rx + inv[4]*ry + inv[5]*rz
				b3 := inv[6]*rx + inv[7]*ry + inv[8]*rz
				b0 := 1 - b1 - b2 - b3
				if b0 < 0 || b1 < 0 || b2 < 0 || b3 < 0 {
					continue
				}
				val := b0*ss[0] + b1*ss[1] + b2*ss[2] + b3*ss[3]
				sr, sg, sb, sa := tf.Sample(norm.Normalize(val))
				if sa <= 0 {
					continue
				}
				sa = 1 - math.Pow(1-sa, dz/refStep)
				wgt := (1 - a) * sa
				accum[4*p+0] += float32(wgt * sr)
				accum[4*p+1] += float32(wgt * sg)
				accum[4*p+2] += float32(wgt * sb)
				a += wgt
				if float32(fz) < depth[p] {
					depth[p] = float32(fz)
				}
			}
			accum[4*p+3] = float32(a)
		}
	}
}

// Bunyk is the connectivity ray-caster analogue: a serial unstructured
// ray caster that precomputes tet face adjacency (the preprocessing the
// paper excludes from its timings) and marches rays cell to cell.
type Bunyk struct {
	Mesh *mesh.TetMesh
	// neighbors[4*t+f] is the tet sharing face f of tet t, or -1.
	neighbors []int32
	// boundary lists (tet, face) pairs with no neighbor.
	boundary [][2]int32
	// PreprocessTime is the connectivity build (excluded from renders).
	PreprocessTime time.Duration
}

// tetFaceCorners lists each face's three local corners.
var tetFaceCorners = [4][3]int{{1, 2, 3}, {0, 3, 2}, {0, 1, 3}, {0, 2, 1}}

// NewBunyk builds face connectivity.
func NewBunyk(m *mesh.TetMesh) *Bunyk {
	start := time.Now()
	b := &Bunyk{Mesh: m}
	ntets := m.NumTets()
	b.neighbors = make([]int32, 4*ntets)
	for i := range b.neighbors {
		b.neighbors[i] = -1
	}
	type faceID [3]int32
	canon := func(a, bb, c int32) faceID {
		f := faceID{a, bb, c}
		if f[0] > f[1] {
			f[0], f[1] = f[1], f[0]
		}
		if f[1] > f[2] {
			f[1], f[2] = f[2], f[1]
		}
		if f[0] > f[1] {
			f[0], f[1] = f[1], f[0]
		}
		return f
	}
	seen := make(map[faceID][2]int32, 2*ntets)
	for t := 0; t < ntets; t++ {
		for f := 0; f < 4; f++ {
			fc := tetFaceCorners[f]
			key := canon(m.Conn[4*t+fc[0]], m.Conn[4*t+fc[1]], m.Conn[4*t+fc[2]])
			if prev, ok := seen[key]; ok {
				b.neighbors[4*t+f] = prev[0]
				b.neighbors[4*int(prev[0])+int(prev[1])] = int32(t)
				delete(seen, key)
			} else {
				seen[key] = [2]int32{int32(t), int32(f)}
			}
		}
	}
	for _, tf := range seen {
		b.boundary = append(b.boundary, tf)
	}
	sort.Slice(b.boundary, func(i, j int) bool {
		if b.boundary[i][0] != b.boundary[j][0] {
			return b.boundary[i][0] < b.boundary[j][0]
		}
		return b.boundary[i][1] < b.boundary[j][1]
	})
	b.PreprocessTime = time.Since(start)
	return b
}

// Render ray-casts the mesh serially (the comparator is single threaded,
// as in the paper's study).
func (b *Bunyk) Render(cam render.Camera, w, h, samplesZ int) (*framebuffer.Image, VolStats, error) {
	var st VolStats
	total := time.Now()
	m := b.Mesh
	tf := commonTF()
	norm := render.Normalizer{Min: m.ScalarMin, Max: m.ScalarMax}
	img := framebuffer.NewImage(w, h)
	if m.NumTets() == 0 {
		st.Total = time.Since(total)
		return img, st, nil
	}
	diag := m.Bounds().Diagonal().Length()
	step := diag / float64(samplesZ)
	refStep := diag / 200

	start := time.Now()
	for py := 0; py < h; py++ {
		for px := 0; px < w; px++ {
			ray := cam.Ray(float64(px), float64(py), 0.5, 0.5, w, h)
			b.castRay(ray, img, px, py, step, refStep, tf, norm)
		}
	}
	st.Sampling = time.Since(start)
	st.Total = time.Since(total)
	return img, st, nil
}

// castRay finds the entry tet through the boundary and marches.
func (b *Bunyk) castRay(ray vecmath.Ray, img *framebuffer.Image, px, py int, step, refStep float64, tf *framebuffer.TransferFunction, norm render.Normalizer) {
	m := b.Mesh
	// Entry search over boundary faces (the comparator's known cost).
	bestT := math.Inf(1)
	entry := int32(-1)
	for _, tface := range b.boundary {
		t, f := tface[0], tface[1]
		fc := tetFaceCorners[f]
		a := m.Vertex(m.Conn[4*t+int32(fc[0])])
		bb := m.Vertex(m.Conn[4*t+int32(fc[1])])
		c := m.Vertex(m.Conn[4*t+int32(fc[2])])
		if tt, _, _, ok := bvhIntersectTri(ray.Orig, ray.Dir, a, bb, c); ok && tt > 1e-9 && tt < bestT {
			bestT = tt
			entry = t
		}
	}
	if entry < 0 {
		return
	}
	var cr, cg, cb, ca float64
	firstT := float32(framebuffer.MaxDepth)
	cur := entry
	t := bestT + step/2
	for steps := 0; steps < 100000; steps++ {
		pos := ray.At(t)
		bary, inside := tetBary(m, cur, pos)
		if !inside {
			// Move to the neighbor across the most-violated face.
			worst, wf := 0.0, -1
			for f := 0; f < 4; f++ {
				if bary[f] < worst {
					worst = bary[f]
					wf = f
				}
			}
			if wf < 0 {
				break
			}
			next := b.neighbors[4*cur+int32(wf)]
			if next < 0 {
				break // exited the mesh
			}
			cur = next
			continue
		}
		val := 0.0
		for c := 0; c < 4; c++ {
			val += bary[c] * m.Scalars[m.Conn[4*cur+int32(c)]]
		}
		sr, sg, sb, sa := tf.Sample(norm.Normalize(val))
		if sa > 0 {
			sa = 1 - math.Pow(1-sa, step/refStep)
			wgt := (1 - ca) * sa
			cr += wgt * sr
			cg += wgt * sg
			cb += wgt * sb
			ca += wgt
			if firstT == framebuffer.MaxDepth {
				firstT = float32(t)
			}
			if ca >= 0.99 {
				break
			}
		}
		t += step
	}
	if ca > 0 {
		img.Set(px, py, float32(cr), float32(cg), float32(cb), float32(ca), firstT)
	}
}

// tetBary computes barycentric coordinates of pos in world-space tet t.
func tetBary(m *mesh.TetMesh, t int32, pos vecmath.Vec3) ([4]float64, bool) {
	v0 := m.Vertex(m.Conn[4*t])
	v1 := m.Vertex(m.Conn[4*t+1])
	v2 := m.Vertex(m.Conn[4*t+2])
	v3 := m.Vertex(m.Conn[4*t+3])
	var mm [9]float64
	mm[0], mm[1], mm[2] = v1.X-v0.X, v2.X-v0.X, v3.X-v0.X
	mm[3], mm[4], mm[5] = v1.Y-v0.Y, v2.Y-v0.Y, v3.Y-v0.Y
	mm[6], mm[7], mm[8] = v1.Z-v0.Z, v2.Z-v0.Z, v3.Z-v0.Z
	inv, ok := invert3(mm)
	if !ok {
		return [4]float64{}, false
	}
	rx, ry, rz := pos.X-v0.X, pos.Y-v0.Y, pos.Z-v0.Z
	b1 := inv[0]*rx + inv[1]*ry + inv[2]*rz
	b2 := inv[3]*rx + inv[4]*ry + inv[5]*rz
	b3 := inv[6]*rx + inv[7]*ry + inv[8]*rz
	b0 := 1 - b1 - b2 - b3
	bary := [4]float64{b0, b1, b2, b3}
	const eps = -1e-9
	return bary, b0 >= eps && b1 >= eps && b2 >= eps && b3 >= eps
}

// VisItVR is the sampling comparator: the serial three-phase pipeline
// (screen-space transform, sampling, compositing) with per-phase timing,
// matching Table 9's SS/S/C/TOT columns.
type VisItVR struct {
	Mesh *mesh.TetMesh
}

// Render runs the serial sampling pipeline.
func (vv *VisItVR) Render(cam render.Camera, w, h, samplesZ int) (*framebuffer.Image, VolStats, error) {
	var st VolStats
	total := time.Now()
	m := vv.Mesh
	tf := commonTF()
	norm := render.Normalizer{Min: m.ScalarMin, Max: m.ScalarMax}
	img := framebuffer.NewImage(w, h)
	ntets := m.NumTets()
	if ntets == 0 {
		st.Total = time.Since(total)
		return img, st, nil
	}

	start := time.Now()
	sx, sy, sz, okv := projectTets(m, cam, w, h)
	st.ScreenSpace = time.Since(start)

	// Sampling into a full-depth sample buffer (VisIt holds all samples,
	// distributing them over nodes; serially that is one big buffer).
	start = time.Now()
	samples := make([]float32, w*h*samplesZ)
	for i := range samples {
		samples[i] = float32(math.NaN())
	}
	dz := 1.0 / float64(samplesZ)
	for t := 0; t < ntets; t++ {
		valid := true
		var xs, ys, zs, ss [4]float64
		for c := 0; c < 4; c++ {
			v := m.Conn[4*t+c]
			if !okv[v] {
				valid = false
				break
			}
			xs[c], ys[c], zs[c], ss[c] = sx[v], sy[v], sz[v], m.Scalars[v]
		}
		if !valid {
			continue
		}
		sampleTetInto(xs, ys, zs, ss, samples, w, h, samplesZ, dz)
	}
	st.Sampling = time.Since(start)

	// Compositing.
	start = time.Now()
	refStep := 1.0 / 200
	for p := 0; p < w*h; p++ {
		var cr, cg, cb, ca float64
		firstZ := float32(framebuffer.MaxDepth)
		for s := 0; s < samplesZ; s++ {
			v := samples[p*samplesZ+s]
			if v != v { // NaN
				continue
			}
			sr, sg, sb, sa := tf.Sample(norm.Normalize(float64(v)))
			if sa <= 0 {
				continue
			}
			sa = 1 - math.Pow(1-sa, dz/refStep)
			wgt := (1 - ca) * sa
			cr += wgt * sr
			cg += wgt * sg
			cb += wgt * sb
			ca += wgt
			if firstZ == framebuffer.MaxDepth {
				firstZ = float32(float64(s) * dz)
			}
			if ca >= 0.99 {
				break
			}
		}
		if ca > 0 {
			img.Set(p%w, p/w, float32(cr), float32(cg), float32(cb), float32(ca), firstZ)
		}
	}
	st.Composite = time.Since(start)
	st.Total = time.Since(total)
	return img, st, nil
}

// sampleTetInto writes a tet's samples into the full-depth buffer.
func sampleTetInto(xs, ys, zs, ss [4]float64, samples []float32, w, h, samplesZ int, dz float64) {
	minX := max(int(math.Floor(minOf4(xs))), 0)
	maxX := min(int(math.Ceil(maxOf4(xs))), w-1)
	minY := max(int(math.Floor(minOf4(ys))), 0)
	maxY := min(int(math.Ceil(maxOf4(ys))), h-1)
	if minX > maxX || minY > maxY {
		return
	}
	var mm [9]float64
	mm[0], mm[1], mm[2] = xs[1]-xs[0], xs[2]-xs[0], xs[3]-xs[0]
	mm[3], mm[4], mm[5] = ys[1]-ys[0], ys[2]-ys[0], ys[3]-ys[0]
	mm[6], mm[7], mm[8] = zs[1]-zs[0], zs[2]-zs[0], zs[3]-zs[0]
	inv, ok := invert3(mm)
	if !ok {
		return
	}
	slo := max(int(math.Ceil(minOf4(zs)/dz)), 0)
	shi := min(int(math.Floor(maxOf4(zs)/dz)), samplesZ-1)
	for py := minY; py <= maxY; py++ {
		fy := float64(py) + 0.5
		for px := minX; px <= maxX; px++ {
			fx := float64(px) + 0.5
			for s := slo; s <= shi; s++ {
				fz := float64(s) * dz
				rx, ry, rz := fx-xs[0], fy-ys[0], fz-zs[0]
				b1 := inv[0]*rx + inv[1]*ry + inv[2]*rz
				b2 := inv[3]*rx + inv[4]*ry + inv[5]*rz
				b3 := inv[6]*rx + inv[7]*ry + inv[8]*rz
				b0 := 1 - b1 - b2 - b3
				if b0 < 0 || b1 < 0 || b2 < 0 || b3 < 0 {
					continue
				}
				samples[(py*w+px)*samplesZ+s] = float32(b0*ss[0] + b1*ss[1] + b2*ss[2] + b3*ss[3])
			}
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

// bvhIntersectTri adapts the shared Moller-Trumbore test.
func bvhIntersectTri(orig, dir, a, b, c vecmath.Vec3) (float64, float64, float64, bool) {
	return intersectTriangle(orig, dir, a, b, c)
}

func intersectTriangle(orig, dir, a, b, c vecmath.Vec3) (t, u, v float64, ok bool) {
	const eps = 1e-12
	e1 := b.Sub(a)
	e2 := c.Sub(a)
	p := dir.Cross(e2)
	det := e1.Dot(p)
	if det > -eps && det < eps {
		return 0, 0, 0, false
	}
	inv := 1 / det
	s := orig.Sub(a)
	u = s.Dot(p) * inv
	if u < 0 || u > 1 {
		return 0, 0, 0, false
	}
	q := s.Cross(e1)
	v = dir.Dot(q) * inv
	if v < 0 || u+v > 1 {
		return 0, 0, 0, false
	}
	return e2.Dot(q) * inv, u, v, true
}

func minOf4(v [4]float64) float64 {
	return math.Min(math.Min(v[0], v[1]), math.Min(v[2], v[3]))
}

func maxOf4(v [4]float64) float64 {
	return math.Max(math.Max(v[0], v[1]), math.Max(v[2], v[3]))
}
