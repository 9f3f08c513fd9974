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

// stackDepth bounds the traversal stack: one deferred sibling per level.
const stackDepth = 64

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
func (b *BVH) IntersectClosest(orig, dir vecmath.Vec3, tmin, tmax float64) (Hit, int, int) {
	var stack [stackDepth]stackEntry
	return b.closest(orig, dir, tmin, tmax, &stack)
}

// IntersectClosestScratch is IntersectClosest on the worker's Tracer
// stack instead of a fresh one, which Go would zero on every call.
func (b *BVH) IntersectClosestScratch(orig, dir vecmath.Vec3, tmin, tmax float64, tr *Tracer) (Hit, int, int) {
	return b.closest(orig, dir, tmin, tmax, &tr.stack)
}

func (b *BVH) closest(orig, dir vecmath.Vec3, tmin, tmax float64, stack *[stackDepth]stackEntry) (Hit, int, int) {
	hit := Hit{Prim: -1, T: math.Inf(1)}
	if len(b.Nodes) == 0 {
		return hit, 0, 0
	}
	inv := vecmath.V(1/dir.X, 1/dir.Y, 1/dir.Z)
	if _, _, ok := b.Nodes[0].Bounds.HitRay(orig, inv, tmin, tmax); !ok {
		return hit, 1, 0
	}
	return b.walk(orig, dir, inv, tmin, tmax, hit, 0, stack, 0, 1, 0)
}

// walk is IntersectClosest's loop after the root test, run from any
// point of it: visit node ni, or with ni < 0 pop stack[:sp] first,
// holding best, hit and the counts so far. IntersectClosest starts it
// at the root; IntersectClosest4's lanes resume in it where the packet
// kernel hands them off.
func (b *BVH) walk(orig, dir, inv vecmath.Vec3, tmin, best float64, hit Hit, ni int32, stack *[stackDepth]stackEntry, sp, nodeTests, triTests int) (Hit, int, int) {
	nodes := b.Nodes
	for {
		if ni >= 0 {
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
				if ni, sp = descend(l, r, lt, rt, lok, rok, stack, sp); ni >= 0 {
					continue
				}
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

// descend is an interior visit's choice, given its children l and r's
// slab results: the nearer hit child (the left on a tie) is visited next
// and, when both are hit, the farther is pushed with its entry distance.
// It returns the node to visit next, -1 to pop, and the new stack depth.
func descend(l, r int32, lt, rt float64, lok, rok bool, stack *[stackDepth]stackEntry, sp int) (int32, int) {
	if lok && rok {
		if lt > rt {
			l, r = r, l
			lt, rt = rt, lt
		}
		stack[sp] = stackEntry{node: r, entry: rt}
		return l, sp + 1
	}
	if lok {
		return l, sp
	}
	if rok {
		return r, sp
	}
	return -1, sp
}

// IntersectAny reports whether any triangle is hit in (tmin, tmax), the
// early-out query used for shadow and ambient-occlusion rays.
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
