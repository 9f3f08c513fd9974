package raytrace

import (
	"math"
	"testing"
	"unsafe"

	"insitu/internal/bvh"
	"insitu/internal/device"
	"insitu/internal/framebuffer"
	"insitu/internal/render"
	"insitu/internal/vecmath"
)

// referenceRender is the frame arena path before the lean arena, run
// serially with the scalar traversal: per-ray origins, float64 colors
// and occlusion/shadow terms on every shaded workload, and pixel
// coordinates from the morton index by division. The arena must
// reproduce its frames and counters bit for bit.
func referenceRender(r *Renderer, opts Options) (*framebuffer.Image, Stats) {
	w, h := opts.Width, opts.Height
	cam := opts.Camera.Normalized()
	raygen := cam.NewRayGen(w, h)
	light := render.HeadLight(cam)
	norm := render.Normalizer{Min: r.Mesh.ScalarMin, Max: r.Mesh.ScalarMax}
	cmap := framebuffer.CoolToWarm()
	spp := 1
	if opts.Workload == Workload3 {
		spp = 4
	}
	order := make([]int32, w*h)
	for q, p := range MortonOrder(w, h) {
		order[q] = int32(int(p.Y)*w + int(p.X))
	}
	n := len(order) * spp
	orig := make([]vecmath.Vec3, n)
	dir := make([]vecmath.Vec3, n)
	hits := make([]bvh.Hit, n)
	for i := 0; i < n; i++ {
		p := order[i/spp]
		j := jitterTable[0]
		if spp > 1 {
			j = jitterTable[i%spp]
		}
		ray := raygen.Ray(float64(int(p)%w), float64(int(p)/w), j[0], j[1])
		orig[i], dir[i] = ray.Orig, ray.Dir
	}
	st := Stats{Objects: r.Mesh.NumTriangles(), PrimaryRays: n, TotalRays: int64(n)}
	var tr bvh.Tracer
	for i := 0; i < n; i++ {
		hit, nt, tt := r.BVH.IntersectClosestScratch(orig[i], dir[i], 1e-9, math.Inf(1), &tr)
		hits[i] = hit
		st.NodeTests += int64(nt)
		st.TriTests += int64(tt)
	}
	img := framebuffer.NewImage(w, h)
	if opts.Workload == Workload1 {
		for q := range order {
			i := q * spp
			if hits[i].Prim < 0 {
				continue
			}
			p := int(order[q])
			img.Set(p%w, p/w, 0.8, 0.8, 0.8, 1, float32(hits[i].T))
		}
		st.ActivePixels = img.ActivePixels()
		return img, st
	}
	var live []int
	occlusion := make([]float64, n)
	shadow := make([]float64, n)
	for i := range hits {
		if hits[i].Prim >= 0 {
			live = append(live, i)
		}
		occlusion[i], shadow[i] = 1, 1
	}
	if opts.Workload == Workload3 {
		aoDist := aoReach * r.BVH.Mesh.Bounds().Diagonal().Length()
		if aoDist == 0 {
			aoDist = 1
		}
		for _, i := range live {
			nrm, _ := interpolateHit(r.Mesh, hits[i].Prim, hits[i].U, hits[i].V)
			if nrm.Dot(dir[i]) > 0 {
				nrm = nrm.Neg()
			}
			pos := orig[i].Add(dir[i].Scale(hits[i].T)).Add(nrm.Scale(1e-6 * aoDist))
			t1, t2 := tangentFrame(nrm)
			seed := uint64(i)*0x9e3779b97f4a7c15 + 0x1234
			blocked := 0
			for s := 0; s < aoSamples; s++ {
				u1 := hashFloat(&seed)
				u2 := hashFloat(&seed)
				st.TotalRays++
				if r.BVH.IntersectAny(pos, cosineHemisphere(nrm, t1, t2, u1, u2), 1e-9, aoDist) {
					blocked++
				}
			}
			occlusion[i] = 1 - float64(blocked)/float64(aoSamples)
		}
		for _, i := range live {
			pos := orig[i].Add(dir[i].Scale(hits[i].T))
			toLight := light.Position.Sub(pos)
			dist := toLight.Length()
			if dist == 0 {
				continue
			}
			d := toLight.Scale(1 / dist)
			st.TotalRays++
			if r.BVH.IntersectAny(pos.Add(d.Scale(1e-6*dist)), d, 1e-9, dist*(1-1e-6)) {
				shadow[i] = 0.35
			}
		}
	}
	colors := make([]vecmath.Vec3, n)
	for _, i := range live {
		pos := orig[i].Add(dir[i].Scale(hits[i].T))
		nrm, scalar := interpolateHit(r.Mesh, hits[i].Prim, hits[i].U, hits[i].V)
		base := cmap.Sample(norm.Normalize(scalar))
		colors[i] = shade(base, pos, nrm, dir[i], light).Scale(occlusion[i] * shadow[i])
	}
	for q := range order {
		var sum vecmath.Vec3
		nhit := 0
		minT := math.Inf(1)
		for s := 0; s < spp; s++ {
			i := q*spp + s
			if hits[i].Prim >= 0 {
				nhit++
				sum = sum.Add(colors[i])
				if hits[i].T < minT {
					minT = hits[i].T
				}
			}
		}
		if nhit == 0 {
			continue
		}
		inv := 1 / float64(spp)
		p := int(order[q])
		img.Set(p%w, p/w, float32(sum.X*inv), float32(sum.Y*inv), float32(sum.Z*inv),
			float32(float64(nhit)*inv), float32(minT))
	}
	st.ActivePixels = img.ActivePixels()
	return img, st
}

// counters is the comparable part of Stats: everything but the timings.
type counters struct {
	objects, primary, active   int
	total, nodeTests, triTests int64
}

func countersOf(s *Stats) counters {
	return counters{s.Objects, s.PrimaryRays, s.ActivePixels, s.TotalRays, s.NodeTests, s.TriTests}
}

// TestLeanArenaMatchesReference renders every workload, in an order that
// reuses each buffer across workloads and sizes, on the packet and the
// scalar device, and wants the pixels, depths and counters of
// referenceRender bit for bit.
func TestLeanArenaMatchesReference(t *testing.T) {
	m := testScene(t, 16)
	devs := map[string]*device.Device{"cpu": device.CPU(), "scalar": device.CPU()}
	devs["scalar"].Scalar = true
	for name, dev := range devs {
		r := New(dev, m)
		for _, c := range []struct {
			wl   Workload
			w, h int
		}{{Workload2, 96, 72}, {Workload3, 64, 48}, {Workload2, 64, 48}, {Workload1, 96, 72}, {Workload3, 33, 17}, {Workload2, 1, 1}} {
			opts := Options{Width: c.w, Height: c.h, Camera: render.OrbitCamera(m.Bounds(), 30, 20, 1.1), Workload: c.wl}
			img, st, err := r.Render(opts)
			if err != nil {
				t.Fatal(err)
			}
			want, wst := referenceRender(r, opts)
			for i := range want.Color {
				if math.Float32bits(img.Color[i]) != math.Float32bits(want.Color[i]) {
					t.Fatalf("%s W%d %dx%d: color word %d = %v, reference %v", name, c.wl, c.w, c.h, i, img.Color[i], want.Color[i])
				}
			}
			for i := range want.Depth {
				if math.Float32bits(img.Depth[i]) != math.Float32bits(want.Depth[i]) {
					t.Fatalf("%s W%d %dx%d: depth %d = %v, reference %v", name, c.wl, c.w, c.h, i, img.Depth[i], want.Depth[i])
				}
			}
			if got, want := countersOf(st), countersOf(&wst); got != want {
				t.Errorf("%s W%d %dx%d: counters %+v, reference %+v", name, c.wl, c.w, c.h, got, want)
			}
		}
	}
}

// TestWorkload2ArenaBytesPerRay bounds the frame arena's footprint: the
// capacities of every buffer a 256² Workload2 frame leaves in the arena,
// per primary ray.
func TestWorkload2ArenaBytesPerRay(t *testing.T) {
	m := testScene(t, 16)
	r := New(device.CPU(), m)
	const side = 256
	if _, _, err := r.Render(Options{Width: side, Height: side, Camera: render.OrbitCamera(m.Bounds(), 30, 20, 1.0), Workload: Workload2}); err != nil {
		t.Fatal(err)
	}
	a := &r.arena
	rs := &a.rays
	bytes := 8*(cap(rs.dx)+cap(rs.dy)+cap(rs.dz)+cap(rs.hitT)+cap(rs.hitU)+cap(rs.hitV)) +
		4*cap(rs.hitPrim) + cap(a.flags) + 4*cap(a.live) +
		8*(cap(a.occlusion)+cap(a.shadow)) + int(unsafe.Sizeof(vecmath.Vec3{}))*cap(a.colors) +
		4*(cap(a.img.Color)+cap(a.img.Depth)) + int(unsafe.Sizeof(packetScratch{}))*cap(a.packets)
	perRay := float64(bytes) / (side * side)
	t.Logf("Workload2 arena at %d²: %d bytes, %.1f B per primary ray", side, bytes, perRay)
	if perRay > 100 {
		t.Errorf("Workload2 arena holds %.1f B per primary ray, want <= 100", perRay)
	}
}
