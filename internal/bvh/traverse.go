package bvh

import (
	"math"

	"insitu/internal/vecmath"
)

// Hit describes the closest intersection found along a ray.
type Hit struct {
	Prim int32   // triangle index, -1 if none
	T    float64 // distance along the (unit) ray direction
	U, V float64 // barycentric coordinates at the hit
}

// IntersectTriangle is the Moller-Trumbore ray/triangle test. It returns
// the hit distance and barycentric coordinates, or ok=false on a miss.
// Back faces count as hits (scientific visualization shades two-sided).
func IntersectTriangle(orig, dir, a, b, c vecmath.Vec3) (t, u, v float64, ok bool) {
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
	t = e2.Dot(q) * inv
	return t, u, v, true
}

// stackEntry is a deferred subtree: a node whose box the ray is known to
// enter at distance entry.
type stackEntry struct {
	node  int32
	entry float64
}

// IntersectClosest finds the nearest triangle hit along the ray between
// tmin and tmax, traversing children front to back. It returns a Hit with
// Prim == -1 when nothing is hit, along with the number of box and
// triangle tests performed (the workload counters behind the model's
// AP*log2(O) term).
//
// Every box is tested exactly once, by its parent: a visited interior
// node tests both children against the current best distance, descends
// into the nearer one (the left on a tie) and defers the farther with its
// entry distance. A deferred node is dropped on pop when entry > best —
// its exit already cleared the slab test, so that compare is the whole
// re-test against the shrunken interval. Visit order and the strict
// t < best tie-break decide which of two equidistant triangles wins, and
// so are part of the result.
//
//insitu:noalloc
func (b *BVH) IntersectClosest(orig, dir vecmath.Vec3, tmin, tmax float64) (Hit, int, int) {
	hit := Hit{Prim: -1, T: math.Inf(1)}
	if len(b.Nodes) == 0 {
		return hit, 0, 0
	}
	inv := vecmath.V(1/dir.X, 1/dir.Y, 1/dir.Z)
	nodes := b.Nodes
	best := tmax
	if _, _, ok := nodes[0].Bounds.HitRay(orig, inv, tmin, best); !ok {
		return hit, 1, 0
	}
	nodeTests, triTests := 1, 0

	var stack [64]stackEntry
	sp := 0
	ni := int32(0)
	for {
		node := &nodes[ni]
		if node.Count > 0 {
			tris := b.Tris[node.Start : node.Start+node.Count]
			triTests += len(tris)
			for i := range tris {
				tri := &tris[i]
				if t, u, v, ok := IntersectTriangle(orig, dir, tri.A, tri.B, tri.C); ok && t > tmin && t < best {
					best = t
					hit = Hit{Prim: b.PrimIDs[int(node.Start)+i], T: t, U: u, V: v}
				}
			}
		} else {
			l, r := node.Left, node.Right
			lt, _, lok := nodes[l].Bounds.HitRay(orig, inv, tmin, best)
			rt, _, rok := nodes[r].Bounds.HitRay(orig, inv, tmin, best)
			nodeTests += 2
			if lok && rok {
				if lt > rt {
					l, r = r, l
					lt, rt = rt, lt
				}
				stack[sp] = stackEntry{node: r, entry: rt}
				sp++
				ni = l
				continue
			}
			if lok {
				ni = l
				continue
			}
			if rok {
				ni = r
				continue
			}
		}
		for {
			if sp == 0 {
				return hit, nodeTests, triTests
			}
			sp--
			if stack[sp].entry <= best {
				break
			}
		}
		ni = stack[sp].node
	}
}

// IntersectAny reports whether any triangle is hit in (tmin, tmax), the
// early-out query used for shadow and ambient-occlusion rays.
//
//insitu:noalloc
func (b *BVH) IntersectAny(orig, dir vecmath.Vec3, tmin, tmax float64) bool {
	if len(b.Nodes) == 0 {
		return false
	}
	inv := vecmath.V(1/dir.X, 1/dir.Y, 1/dir.Z)
	nodes := b.Nodes
	var stack [64]int32
	sp := 0
	stack[sp] = 0
	sp++
	for sp > 0 {
		sp--
		node := &nodes[stack[sp]]
		if _, _, ok := node.Bounds.HitRay(orig, inv, tmin, tmax); !ok {
			continue
		}
		if node.Count > 0 {
			tris := b.Tris[node.Start : node.Start+node.Count]
			for i := range tris {
				tri := &tris[i]
				if t, _, _, ok := IntersectTriangle(orig, dir, tri.A, tri.B, tri.C); ok && t > tmin && t < tmax {
					return true
				}
			}
			continue
		}
		stack[sp] = node.Left
		sp++
		stack[sp] = node.Right
		sp++
	}
	return false
}

// PacketScratch is the reusable per-worker state of packet traversal:
// reciprocal directions and per-ray best distances. Hoisting it out of
// the per-packet call is what makes the packetized inner loop
// allocation-free.
type PacketScratch struct {
	inv  []vecmath.Vec3
	best []float64
}

// Ensure grows the scratch to hold width rays.
//
//insitu:noalloc
func (s *PacketScratch) Ensure(width int) {
	if cap(s.inv) < width {
		//insitu:noalloc-ok capacity-guarded arena growth: first frame only, steady state reuses
		s.inv = make([]vecmath.Vec3, width)
		//insitu:noalloc-ok capacity-guarded arena growth: first frame only, steady state reuses
		s.best = make([]float64, width)
	}
}

// IntersectClosestPacket traces a bundle of coherent rays through the tree
// together, amortizing node visits across the packet: a node is descended
// if any ray's interval hits it. This is the vector-unit ("ISPC") backend
// of the tracer; with VectorWidth 1 it degenerates to per-ray traversal.
func (b *BVH) IntersectClosestPacket(orig, dir []vecmath.Vec3, tmin float64, hits []Hit) {
	var scratch PacketScratch
	b.IntersectClosestPacketScratch(orig, dir, tmin, hits, &scratch)
}

// IntersectClosestPacketScratch is IntersectClosestPacket with
// caller-owned scratch, for steady-state loops that trace many packets.
// It returns the box and triangle tests executed, counted per ray like
// IntersectClosest's.
//
//insitu:noalloc
func (b *BVH) IntersectClosestPacketScratch(orig, dir []vecmath.Vec3, tmin float64, hits []Hit, scratch *PacketScratch) (int, int) {
	n := len(orig)
	for i := range hits {
		hits[i] = Hit{Prim: -1, T: math.Inf(1)}
	}
	if len(b.Nodes) == 0 || n == 0 {
		return 0, 0
	}
	scratch.Ensure(n)
	inv := scratch.inv[:n]
	best := scratch.best[:n]
	for i := 0; i < n; i++ {
		inv[i] = vecmath.V(1/dir[i].X, 1/dir[i].Y, 1/dir[i].Z)
		best[i] = math.Inf(1)
	}
	nodes := b.Nodes
	nodeTests, triTests := 0, 0
	var stack [64]int32
	sp := 0
	stack[sp] = 0
	sp++
	for sp > 0 {
		sp--
		node := &nodes[stack[sp]]
		any := false
		for i := 0; i < n; i++ {
			nodeTests++
			if _, _, ok := node.Bounds.HitRay(orig[i], inv[i], tmin, best[i]); ok {
				any = true
				break
			}
		}
		if !any {
			continue
		}
		if node.Count > 0 {
			tris := b.Tris[node.Start : node.Start+node.Count]
			triTests += len(tris) * n
			for pi := range tris {
				tri := &tris[pi]
				for i := 0; i < n; i++ {
					if t, u, v, ok := IntersectTriangle(orig[i], dir[i], tri.A, tri.B, tri.C); ok && t > tmin && t < best[i] {
						best[i] = t
						hits[i] = Hit{Prim: b.PrimIDs[int(node.Start)+pi], T: t, U: u, V: v}
					}
				}
			}
			continue
		}
		stack[sp] = node.Left
		sp++
		stack[sp] = node.Right
		sp++
	}
	return nodeTests, triTests
}

// Depth returns the maximum leaf depth, a tree-quality diagnostic.
func (b *BVH) Depth() int {
	if len(b.Nodes) == 0 {
		return 0
	}
	var walk func(n int32) int
	walk = func(n int32) int {
		node := &b.Nodes[n]
		if node.Count > 0 {
			return 1
		}
		l, r := walk(node.Left), walk(node.Right)
		if l > r {
			return l + 1
		}
		return r + 1
	}
	return walk(0)
}
