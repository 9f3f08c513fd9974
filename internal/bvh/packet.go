package bvh

import (
	"math"

	"insitu/internal/vecmath"
)

// lanes is one float64 per packet lane.
type lanes = [4]float64

// closest4's results.
const (
	packetDone    = iota // the lanes finished together, or none entered the root
	packetHandoff        // the lanes stopped where q says, to finish one by one
	packetFold           // a root slab value is NaN: the lanes never started
)

// quad is the packet kernel's state, read and written through the field
// offsets go_asm.h gives the assembly. SetRay fills the rays; the kernel
// fills the reciprocal directions, the root test's lanes, the hit
// lanes, the counts and the stack, and on a hand-off leaves where the
// lanes stood: the node ni, the stack depth sp and split.
type quad struct {
	ox, oy, oz, dx, dy, dz lanes
	ix, iy, iz             lanes // 1/dx, 1/dy, 1/dz, as IntersectClosest computes them
	tmin                   lanes
	best, u, v             lanes
	tri                    [4]int64 // the Tris index of each lane's hit, -1 for none
	live                   int64    // the lanes whose ray enters the root box, one bit each
	ni, sp                 int64
	nodeTests, triTests    int64 // every live lane's counts after the root test

	// split is -1 when a hand-off leaves node ni to be visited (or, with
	// ni = -1, the stack to be popped). When the lanes part ways on ni's
	// children, it holds the lanes that hit the left child in bits 0-3
	// and the right child in bits 4-7, and lt and rt the children's entry
	// distances: the box tests are done and counted.
	split  int64
	lt, rt lanes

	node  [stackDepth]int32
	entry [stackDepth]lanes
}

func (q *quad) orig(k int) vecmath.Vec3 { return vecmath.V(q.ox[k], q.oy[k], q.oz[k]) }
func (q *quad) dir(k int) vecmath.Vec3  { return vecmath.V(q.dx[k], q.dy[k], q.dz[k]) }

// Tracer is one worker's reusable primary-ray traversal state: the
// scalar loop's stack, which IntersectClosest would zero on every call,
// and the packet kernel's lanes. IntersectClosest4 traces the rays
// SetRay loaded and writes its results to Hit, NodeTests and TriTests.
type Tracer struct {
	q     quad
	stack [stackDepth]stackEntry

	Hit                 [4]Hit
	NodeTests, TriTests [4]int

	// Packets counts the IntersectClosest4 calls that ran the packet
	// kernel past the root, and Resumed those of them that handed their
	// lanes to the scalar loop before the end.
	Packets, Resumed int64
}

// SetRay loads ray k (0 to 3) for the next IntersectClosest4.
func (tr *Tracer) SetRay(k int, orig, dir vecmath.Vec3) {
	q := &tr.q
	q.ox[k], q.oy[k], q.oz[k] = orig.X, orig.Y, orig.Z
	q.dx[k], q.dy[k], q.dz[k] = dir.X, dir.Y, dir.Z
}

// Packets reports whether IntersectClosest4 runs the AVX2 packet kernel
// on this host; where it does not, it runs IntersectClosest ray by ray.
func Packets() bool { return hasPackets }

// IntersectClosest4 runs IntersectClosest for rays 0 to n-1 (n is 1 to
// 4) that tr.SetRay loaded and writes each one's Hit and box and
// triangle test counts to tr: ray by ray the same bits and counts as
// IntersectClosest, on any host.
//
// With the packet kernel, the rays that enter the root box run
// IntersectClosest's visit protocol in lockstep, one lane each: every
// lane computes HitRay's fast path and IntersectTriangle in their own
// expression order, with no fused multiply-add, and the lanes share the
// node, the stack's nodes and the counts while all of them make the
// same choice at every interior node (which children are hit, and which
// is nearer) and every pop (keep or drop). Lanes without a ray of their
// own trace a copy of a live one, so they never disagree. At the first
// disagreement each lane takes its own branch, and when a lane's slab
// values hold a NaN (HitRay's general fold) the lanes stop before the
// node; either way every lane then finishes on the scalar loop from its
// own state: node, stack of (node, entry), best, hit and counts. The
// disagreeing choice and everything after it are therefore the scalar
// loop's own.
func (b *BVH) IntersectClosest4(tr *Tracer, n int, tmin, tmax float64) {
	q := &tr.q
	status := packetFold
	if hasPackets && len(b.Nodes) > 0 && tmin <= tmax {
		q.tmin = lanes{tmin, tmin, tmin, tmin}
		q.best = lanes{tmax, tmax, tmax, tmax}
		q.tri = [4]int64{-1, -1, -1, -1}
		status = closest4(&b.Nodes[0], &b.Tris[0], q, n)
	}
	if status == packetFold {
		for k := 0; k < n; k++ {
			tr.Hit[k], tr.NodeTests[k], tr.TriTests[k] = b.closest(q.orig(k), q.dir(k), tmin, tmax, &tr.stack)
		}
		return
	}
	if q.live != 0 {
		tr.Packets++
	}
	if status == packetHandoff {
		tr.Resumed++
	}
	for k := 0; k < n; k++ {
		if q.live>>k&1 == 0 {
			tr.Hit[k], tr.NodeTests[k], tr.TriTests[k] = Hit{Prim: -1, T: math.Inf(1)}, 1, 0
			continue
		}
		hit := Hit{Prim: -1, T: math.Inf(1)}
		if i := q.tri[k]; i >= 0 {
			hit = Hit{Prim: b.PrimIDs[i], T: q.best[k], U: q.u[k], V: q.v[k]}
		}
		nodeTests, triTests := 1+int(q.nodeTests), int(q.triTests)
		if status == packetHandoff {
			sp := int(q.sp)
			for i := 0; i < sp; i++ {
				tr.stack[i] = stackEntry{node: q.node[i], entry: q.entry[i][k]}
			}
			ni := int32(q.ni)
			if q.split >= 0 {
				node := &b.Nodes[ni]
				ni, sp = descend(node.Left, node.Right, q.lt[k], q.rt[k], q.split>>k&1 != 0, q.split>>(4+k)&1 != 0, &tr.stack, sp)
			}
			inv := vecmath.V(q.ix[k], q.iy[k], q.iz[k])
			hit, nodeTests, triTests = b.walk(q.orig(k), q.dir(k), inv, tmin, q.best[k], hit, ni, &tr.stack, sp, nodeTests, triTests)
		}
		tr.Hit[k], tr.NodeTests[k], tr.TriTests[k] = hit, nodeTests, triTests
	}
}
