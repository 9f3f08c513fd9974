package bvh_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"insitu/internal/bvh"
	"insitu/internal/device"
	"insitu/internal/mesh"
	"insitu/internal/render"
	"insitu/internal/render/raytrace"
	"insitu/internal/vecmath"
)

// mortonRays returns a w x h frame's pixel-center primary rays in the
// order the raytracer traces them: the orbit camera's, in Morton order.
func mortonRays(m *mesh.TriangleMesh, w, h int, azimuth, elevation, zoom float64) []vecmath.Ray {
	gen := render.OrbitCamera(m.Bounds(), azimuth, elevation, zoom).Normalized().NewRayGen(w, h)
	order := raytrace.MortonOrder(w, h)
	rays := make([]vecmath.Ray, len(order))
	for i, p := range order {
		rays[i] = gen.Ray(float64(p.X), float64(p.Y), 0.5, 0.5)
	}
	return rays
}

// slabPlaneRays returns axis-parallel rays whose origins lie on a face
// plane of one of the tree's boxes, where HitRay computes 0 * Inf = NaN
// and takes its general fold. In every third packet of four the planes
// may be the root box's own faces; in the others they lie inside it, so
// the NaN meets the kernel below the root. The fourth ray of each
// packet is a ray of the frame, so packets mix the two.
func slabPlaneRays(b *bvh.BVH, frame []vecmath.Ray, n int, seed int64) []vecmath.Ray {
	rng := rand.New(rand.NewSource(seed))
	world := b.Nodes[0].Bounds
	rays := make([]vecmath.Ray, n)
	for i := range rays {
		if i%4 == 3 {
			rays[i] = frame[rng.Intn(len(frame))]
			continue
		}
		for {
			box := b.Nodes[rng.Intn(len(b.Nodes))].Bounds
			c := box.Center()
			orig, dir, onRoot := vecmath.V(world.Min.X-1, c.Y, c.Z), vecmath.V(1, 0, 0), false
			switch rng.Intn(3) {
			case 0:
				orig.Y = box.Min.Y
				onRoot = orig.Y == world.Min.Y || orig.Y == world.Max.Y
			case 1:
				orig.Z = box.Max.Z
				onRoot = orig.Z == world.Min.Z || orig.Z == world.Max.Z
			default:
				orig, dir = vecmath.V(c.X, box.Min.Y, world.Max.Z+1), vecmath.V(0, 0, -1)
				onRoot = orig.Y == world.Min.Y || orig.Y == world.Max.Y
			}
			if !onRoot || i/4%3 == 0 {
				rays[i] = vecmath.Ray{Orig: orig, Dir: dir}
				break
			}
		}
	}
	return rays
}

// checkPackets traces rays four at a time through IntersectClosest4 (the
// raytracer's path with packets on) and one by one through
// IntersectClosestScratch (packets forced off), and requires each ray's
// Hit bits and box and triangle tests to equal IntersectClosest's. It
// returns the packet tracer's counters.
func checkPackets(t *testing.T, name string, b *bvh.BVH, rays []vecmath.Ray) (packets, resumed int64) {
	t.Helper()
	var on, off bvh.Tracer
	hits := 0
	for base := 0; base < len(rays); base += 4 {
		n := min(4, len(rays)-base)
		for k := 0; k < n; k++ {
			on.SetRay(k, rays[base+k].Orig, rays[base+k].Dir)
		}
		b.IntersectClosest4(&on, n, 1e-9, math.Inf(1))
		for k := 0; k < n; k++ {
			r := rays[base+k]
			want, wn, wt := b.IntersectClosest(r.Orig, r.Dir, 1e-9, math.Inf(1))
			if got, gn, gt := on.Hit[k], on.NodeTests[k], on.TriTests[k]; !sameHit(got, want) || gn != wn || gt != wt {
				t.Fatalf("%s ray %d (%v), packets on: hit %+v, %d box, %d triangle tests; scalar %+v, %d, %d", name, base+k, r, got, gn, gt, want, wn, wt)
			}
			if got, gn, gt := b.IntersectClosestScratch(r.Orig, r.Dir, 1e-9, math.Inf(1), &off); !sameHit(got, want) || gn != wn || gt != wt {
				t.Fatalf("%s ray %d (%v), packets off: hit %+v, %d box, %d triangle tests; scalar %+v, %d, %d", name, base+k, r, got, gn, gt, want, wn, wt)
			}
			if want.Prim >= 0 {
				hits++
			}
		}
	}
	t.Logf("%s: %d rays, %d hits, %d packets, %d resumed on the scalar loop", name, len(rays), hits, on.Packets, on.Resumed)
	return on.Packets, on.Resumed
}

// TestPrimaryPacketsMatchScalar is the packet kernel's oracle: over
// Morton-ordered frames of the served scenes at seeded cameras, at sizes
// whose quads are whole (128², 256²), broken (61x37) and a lone ray
// (1x1), and over rays lying on slab planes, every ray's hit and counts
// equal the scalar loop's with packets on and forced off. Where the
// host runs the kernel, its counters show that packets ran, that some
// parted ways and that others stayed in lockstep to the end.
func TestPrimaryPacketsMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var packets, resumed int64
	for _, sim := range []string{"kripke", "lulesh"} {
		m := simSurface(t, sim, 16)
		b := bvh.Build(device.CPU(), m, bvh.LBVH)
		for _, size := range [][2]int{{128, 128}, {256, 256}, {61, 37}, {1, 1}} {
			az, el, zoom := rng.Float64()*360, rng.Float64()*120-60, 0.5+rng.Float64()*2.5
			name := fmt.Sprintf("%s %dx%d azimuth %.0f elevation %.0f zoom %.2f", sim, size[0], size[1], az, el, zoom)
			p, r := checkPackets(t, name, b, mortonRays(m, size[0], size[1], az, el, zoom))
			packets, resumed = packets+p, resumed+r
			if size[0]*size[1] == 1 && r != 0 {
				t.Errorf("%s: a lone ray's packet parted ways, but its other lanes trace copies of it", name)
			}
		}
		p, r := checkPackets(t, sim+" slab planes", b, slabPlaneRays(b, mortonRays(m, 64, 64, 33, 20, 1), 4000, 32))
		packets, resumed = packets+p, resumed+r
	}
	if !bvh.Packets() {
		t.Log("no packet kernel on this host: IntersectClosest4 ran the scalar loop")
		return
	}
	if packets == 0 || resumed == 0 || resumed == packets {
		t.Errorf("%d packets, %d resumed: want packets that part ways and packets that stay in lockstep", packets, resumed)
	}
}

// primaryStep returns one step of the raytracer's primary traversal of
// a 128x128 kripke frame (the orbit camera at azimuth 33), in Morton
// order: the next four rays through IntersectClosest4, or with packets
// forced off through IntersectClosestScratch one by one.
func primaryStep(tb testing.TB, packets bool) func() {
	m := simSurface(tb, "kripke", 16)
	b := bvh.Build(device.CPU(), m, bvh.LBVH)
	rays := mortonRays(m, 128, 128, 33, 20, 1)
	var tr bvh.Tracer
	i := 0
	return func() {
		if packets {
			for k := 0; k < 4; k++ {
				tr.SetRay(k, rays[i+k].Orig, rays[i+k].Dir)
			}
			b.IntersectClosest4(&tr, 4, 1e-9, math.Inf(1))
			benchSink += tr.NodeTests[0]
		} else {
			for k := 0; k < 4; k++ {
				_, nodeTests, _ := b.IntersectClosestScratch(rays[i+k].Orig, rays[i+k].Dir, 1e-9, math.Inf(1), &tr)
				benchSink += nodeTests
			}
		}
		i = (i + 4) % len(rays)
	}
}

// BenchmarkPrimaryTraversal times primaryStep with packets on and
// forced off, in ns per ray.
func BenchmarkPrimaryTraversal(b *testing.B) {
	for _, c := range []struct {
		name    string
		packets bool
	}{{"packets", true}, {"scalar", false}} {
		b.Run(c.name, func(b *testing.B) {
			benchStep(b, primaryStep(b, c.packets))
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(4*b.N), "ns/ray")
		})
	}
}
