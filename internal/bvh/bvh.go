// Package bvh builds and traverses bounding volume hierarchies over
// triangle meshes. The default builder is the linear BVH (morton-code
// radix sort + top-down splits at the highest differing bit), the O(n)
// structure behind the paper's ray-tracing performance model; a
// binned-SAH builder is provided for the architecture-tuned baselines and
// ablation benches.
//
// Layout. A tree is three flat arrays. Nodes holds 64-byte nodes (box,
// two child indices, leaf range), root at index 0. PrimIDs is the mesh's
// triangle indices permuted so every leaf owns one contiguous run. Tris
// mirrors PrimIDs with the triangles' corner positions copied out of the
// mesh (72 bytes each), so a leaf's intersection loop streams one run of
// memory instead of chasing PrimIDs -> Conn -> X/Y/Z per corner; PrimIDs
// is read only to name the winning triangle in a Hit.
//
// Traversal is exact-math: the kernels in traverse.go may do less work
// than a textbook loop but never different arithmetic, because rendered
// frames are compared byte for byte across devices, shards and commits.
// IntersectClosest documents the visit protocol; vecmath.AABB.HitRay the
// slab test's NaN and signed-zero contract.
//
// Primary rays take IntersectClosest4 (packet.go), four coherent rays at
// a time. On amd64 hosts with AVX2 and OS-enabled YMM state
// (device.HasAVX2) an assembly kernel runs the visit protocol for the
// four in lockstep, each lane computing the scalar expressions in their
// order, until the lanes disagree at a node or a pop or meet a NaN slab
// value; each lane then finishes on the scalar loop from its own state.
// Every ray's Hit and counts therefore equal IntersectClosest's. Other
// hosts run the scalar loop ray by ray; Packets reports which.
package bvh

import (
	"fmt"
	"math"
	"time"

	"insitu/internal/device"
	"insitu/internal/dpp"
	"insitu/internal/mesh"
	"insitu/internal/vecmath"
)

// Node is one flat-array BVH node. Leaves have Count > 0 and reference
// PrimIDs[Start : Start+Count] (and the same range of Tris); inner nodes
// reference children by index.
type Node struct {
	Bounds       vecmath.AABB
	Left, Right  int32
	Start, Count int32
}

// Triangle is the corner positions of one mesh triangle, copied out of
// the mesh's structure-of-arrays layout.
type Triangle struct {
	A, B, C vecmath.Vec3
}

// BVH is a flattened hierarchy over a triangle mesh.
type BVH struct {
	Nodes   []Node
	PrimIDs []int32
	// Tris[i] holds the corners of mesh triangle PrimIDs[i], so a leaf's
	// triangles are the contiguous run Tris[Start : Start+Count].
	Tris []Triangle
	Mesh *mesh.TriangleMesh
	// BuildTime records wall-clock construction cost; the ray-tracing
	// model's c0*O + c1 term is fitted against it.
	BuildTime time.Duration
	// MaxLeafSize used during the build.
	MaxLeafSize int
}

// Builder selects the construction algorithm.
type Builder int

const (
	// LBVH is the morton-sort linear BVH (O(n) build).
	LBVH Builder = iota
	// SAH is a binned surface-area-heuristic build (slowest, best trees).
	SAH
)

func (b Builder) String() string {
	switch b {
	case LBVH:
		return "lbvh"
	case SAH:
		return "sah"
	}
	return fmt.Sprintf("builder(%d)", int(b))
}

// Build constructs a BVH over the mesh with the given builder.
func Build(d *device.Device, m *mesh.TriangleMesh, builder Builder) *BVH {
	start := time.Now()
	n := m.NumTriangles()
	b := &BVH{Mesh: m, MaxLeafSize: 8}
	if n == 0 {
		b.BuildTime = time.Since(start)
		return b
	}

	bounds := make([]vecmath.AABB, n)
	centroids := make([]vecmath.Vec3, n)
	dpp.For(d, n, func(lo, hi int) {
		for t := lo; t < hi; t++ {
			bounds[t] = m.TriBounds(t)
			centroids[t] = m.Centroid(t)
		}
	})
	// AABB union is a componentwise min/max — commutative and exactly
	// associative — so the parallel chunked reduction is bit-identical to
	// the serial fold on every device profile.
	world := dpp.Reduce(d, bounds, vecmath.EmptyAABB(),
		func(a, c vecmath.AABB) vecmath.AABB { return a.Union(c) })

	ids := make([]int32, n)
	dpp.For(d, n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ids[i] = int32(i)
		}
	})

	switch builder {
	case LBVH:
		codes := make([]uint64, n)
		diag := world.Diagonal()
		inv := vecmath.V(safeInv(diag.X), safeInv(diag.Y), safeInv(diag.Z))
		dpp.For(d, n, func(lo, hi int) {
			for t := lo; t < hi; t++ {
				p := centroids[t].Sub(world.Min).Mul(inv)
				codes[t] = Morton3(p.X, p.Y, p.Z)
			}
		})
		dpp.SortPairs64(d, codes, ids)
		b.PrimIDs = ids
		b.buildLBVH(d, codes, bounds)
	case SAH:
		// Pre-size to the binary-tree bound (2n-1 nodes) so recursion
		// never regrows the array.
		b.Nodes = make([]Node, 0, 2*n)
		b.PrimIDs = ids
		b.buildSAHRange(bounds, centroids, 0, n)
	}
	b.Tris = make([]Triangle, n)
	dpp.For(d, n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			t := &b.Tris[i]
			t.A, t.B, t.C = m.TriVerts(int(b.PrimIDs[i]))
		}
	})
	b.BuildTime = time.Since(start)
	return b
}

// lbvhParallelCutoff is the subtree size below which the LBVH topology
// build stays serial: smaller ranges are cheaper to build than to
// dispatch.
const lbvhParallelCutoff = 4096

// buildLBVH constructs the morton-split topology over the sorted codes.
// On multi-worker devices the build is parallel and deterministic: a
// serial descent from the root carves the code range into subtree spans
// (the "spine"), the subtrees are built concurrently into private node
// arrays, and a parallel stitch copies them into one pre-sized array with
// child-index fixups. The resulting tree is identical in topology to the
// serial build; only the node numbering differs (spine first, then
// subtrees in range order), which traversal never observes.
func (b *BVH) buildLBVH(d *device.Device, codes []uint64, bounds []vecmath.AABB) {
	n := len(codes)
	workers := d.Workers
	if workers < 1 {
		workers = 1
	}
	cutoff := n / (4 * workers)
	if cutoff < lbvhParallelCutoff {
		cutoff = lbvhParallelCutoff
	}
	if workers == 1 || n <= cutoff {
		b.Nodes = make([]Node, 0, 2*n)
		b.buildMortonInto(&b.Nodes, codes, bounds, 0, n, 0)
		return
	}

	// Spine descent. Placeholder children are encoded as ^rangeIndex.
	type span struct{ start, end, bit int }
	var spine []Node
	var ranges []span
	var descend func(start, end, bit int) int32
	descend = func(start, end, bit int) int32 {
		count := end - start
		if count <= cutoff || count <= b.MaxLeafSize || bit >= 30 {
			ranges = append(ranges, span{start, end, bit})
			return ^int32(len(ranges) - 1)
		}
		split := mortonSplit(codes, start, end, bit)
		if split == start || split == end {
			// All codes share this bit: descend without splitting.
			return descend(start, end, bit+1)
		}
		idx := int32(len(spine))
		spine = append(spine, Node{})
		left := descend(start, split, bit+1)
		right := descend(split, end, bit+1)
		spine[idx].Left, spine[idx].Right = left, right
		return idx
	}
	root := descend(0, n, 0)

	// Build every subtree concurrently into its own array.
	subs := make([][]Node, len(ranges))
	dpp.ForEach(d, len(ranges), func(i int) {
		r := ranges[i]
		local := make([]Node, 0, 2*(r.end-r.start))
		b.buildMortonInto(&local, codes, bounds, r.start, r.end, r.bit)
		subs[i] = local
	})

	if root < 0 {
		// The whole range was one span (degenerate codes): no spine.
		b.Nodes = subs[0]
		return
	}

	// Stitch: spine nodes first, then each subtree at its offset.
	offs := make([]int32, len(ranges))
	total := int32(len(spine))
	for i := range subs {
		offs[i] = total
		total += int32(len(subs[i]))
	}
	nodes := make([]Node, total)
	copy(nodes, spine)
	dpp.ForEach(d, len(ranges), func(i int) {
		off := offs[i]
		dst := nodes[off : int(off)+len(subs[i])]
		for j, nd := range subs[i] {
			if nd.Count == 0 {
				nd.Left += off
				nd.Right += off
			}
			dst[j] = nd
		}
	})
	// Resolve placeholder children, then fill spine bounds bottom-up.
	// Spine nodes are in pre-order, so children always have higher
	// indices than their parent and a reverse sweep sees children first.
	for i := len(spine) - 1; i >= 0; i-- {
		nd := &nodes[i]
		if nd.Left < 0 {
			nd.Left = offs[^nd.Left]
		}
		if nd.Right < 0 {
			nd.Right = offs[^nd.Right]
		}
		nd.Bounds = nodes[nd.Left].Bounds.Union(nodes[nd.Right].Bounds)
	}
	b.Nodes = nodes
}

// mortonSplit returns the first position in the sorted [start, end) range
// whose code has the (29-bit)th bit set, found by binary search.
func mortonSplit(codes []uint64, start, end, bit int) int {
	mask := uint64(1) << uint(29-bit)
	lo, hi := start, end
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if codes[mid]&mask == 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func safeInv(v float64) float64 {
	if v == 0 {
		return 0
	}
	return 1 / v
}

// Morton3 interleaves 10 bits per normalized coordinate into a 30-bit
// morton code.
func Morton3(x, y, z float64) uint64 {
	return expandBits(quantize10(x))<<2 | expandBits(quantize10(y))<<1 | expandBits(quantize10(z))
}

func quantize10(v float64) uint32 {
	q := int(v * 1024)
	if q < 0 {
		q = 0
	}
	if q > 1023 {
		q = 1023
	}
	return uint32(q)
}

// expandBits spreads the low 10 bits of v so they occupy every third bit.
func expandBits(v uint32) uint64 {
	x := uint64(v) & 0x3ff
	x = (x | x<<16) & 0x30000ff
	x = (x | x<<8) & 0x300f00f
	x = (x | x<<4) & 0x30c30c3
	x = (x | x<<2) & 0x9249249
	return x
}

// rangeBounds unions the primitive bounds of PrimIDs[start:end].
func (b *BVH) rangeBounds(bounds []vecmath.AABB, start, end int) vecmath.AABB {
	box := vecmath.EmptyAABB()
	for i := start; i < end; i++ {
		box = box.Union(bounds[b.PrimIDs[i]])
	}
	return box
}

// buildMortonInto recursively splits the sorted morton range at the
// highest differing code bit, appending the subtree's nodes to *nodes
// (local indices) and returning its root index. Codes were sorted with
// PrimIDs as payload, so codes[i] corresponds to position i in PrimIDs;
// leaf Start/Count reference the global PrimIDs array, which is what lets
// subtrees build concurrently into private arrays and stitch without
// touching primitive indices.
func (b *BVH) buildMortonInto(nodes *[]Node, codes []uint64, bounds []vecmath.AABB, start, end, bit int) int32 {
	idx := int32(len(*nodes))
	*nodes = append(*nodes, Node{})
	count := end - start
	if count <= b.MaxLeafSize || bit >= 30 {
		(*nodes)[idx] = Node{
			Bounds: b.rangeBounds(bounds, start, end),
			Start:  int32(start), Count: int32(count),
		}
		return idx
	}
	split := mortonSplit(codes, start, end, bit)
	if split == start || split == end {
		// All codes share this bit: descend without splitting.
		*nodes = (*nodes)[:idx] // rebuild node at same position after recursion
		return b.buildMortonInto(nodes, codes, bounds, start, end, bit+1)
	}
	left := b.buildMortonInto(nodes, codes, bounds, start, split, bit+1)
	right := b.buildMortonInto(nodes, codes, bounds, split, end, bit+1)
	(*nodes)[idx] = Node{
		Bounds: (*nodes)[left].Bounds.Union((*nodes)[right].Bounds),
		Left:   left, Right: right,
	}
	return idx
}

// buildSAHRange builds SAH splits over PrimIDs[start:end], falling back
// to the centroid median where no SAH split is found.
func (b *BVH) buildSAHRange(bounds []vecmath.AABB, centroids []vecmath.Vec3, start, end int) int32 {
	idx := int32(len(b.Nodes))
	b.Nodes = append(b.Nodes, Node{})
	count := end - start
	box := b.rangeBounds(bounds, start, end)
	if count <= b.MaxLeafSize {
		b.Nodes[idx] = Node{Bounds: box, Start: int32(start), Count: int32(count)}
		return idx
	}

	cbox := vecmath.EmptyAABB()
	for i := start; i < end; i++ {
		cbox = cbox.ExpandPoint(centroids[b.PrimIDs[i]])
	}
	axis := longestAxis(cbox.Diagonal())
	split := start + count/2

	if s, ok := b.sahSplit(bounds, centroids, cbox, start, end, axis); ok {
		split = s
	} else {
		b.partitionMedian(centroids, start, end, axis, split)
	}
	if split <= start || split >= end {
		split = start + count/2
	}

	left := b.buildSAHRange(bounds, centroids, start, split)
	right := b.buildSAHRange(bounds, centroids, split, end)
	b.Nodes[idx] = Node{
		Bounds: b.Nodes[left].Bounds.Union(b.Nodes[right].Bounds),
		Left:   left, Right: right,
	}
	return idx
}

// partitionMedian nth-element partitions PrimIDs[start:end] around the kth
// centroid along axis (quickselect).
func (b *BVH) partitionMedian(centroids []vecmath.Vec3, start, end, axis, k int) {
	ids := b.PrimIDs
	key := func(i int) float64 { return axisValue(centroids[ids[i]], axis) }
	lo, hi := start, end-1
	for lo < hi {
		pivot := key((lo + hi) / 2)
		i, j := lo, hi
		for i <= j {
			for key(i) < pivot {
				i++
			}
			for key(j) > pivot {
				j--
			}
			if i <= j {
				ids[i], ids[j] = ids[j], ids[i]
				i++
				j--
			}
		}
		if k <= j {
			hi = j
		} else if k >= i {
			lo = i
		} else {
			break
		}
	}
}

// sahSplit bins centroids along axis and picks the minimum-cost split.
// Returns the partition point and whether a useful split was found.
func (b *BVH) sahSplit(bounds []vecmath.AABB, centroids []vecmath.Vec3, cbox vecmath.AABB, start, end, axis int) (int, bool) {
	const nbins = 8
	lo := axisValue(cbox.Min, axis)
	hi := axisValue(cbox.Max, axis)
	if hi-lo < 1e-12 {
		return 0, false
	}
	scale := nbins / (hi - lo)
	type bin struct {
		count int
		box   vecmath.AABB
	}
	bins := [nbins]bin{}
	for i := range bins {
		bins[i].box = vecmath.EmptyAABB()
	}
	binOf := func(p int32) int {
		k := int((axisValue(centroids[p], axis) - lo) * scale)
		if k < 0 {
			k = 0
		}
		if k >= nbins {
			k = nbins - 1
		}
		return k
	}
	for i := start; i < end; i++ {
		p := b.PrimIDs[i]
		k := binOf(p)
		bins[k].count++
		bins[k].box = bins[k].box.Union(bounds[p])
	}
	// Sweep to find the cheapest split boundary.
	var leftBox, rightBox [nbins]vecmath.AABB
	var leftCount, rightCount [nbins]int
	acc := vecmath.EmptyAABB()
	cnt := 0
	for i := 0; i < nbins; i++ {
		acc = acc.Union(bins[i].box)
		cnt += bins[i].count
		leftBox[i], leftCount[i] = acc, cnt
	}
	acc = vecmath.EmptyAABB()
	cnt = 0
	for i := nbins - 1; i >= 0; i-- {
		acc = acc.Union(bins[i].box)
		cnt += bins[i].count
		rightBox[i], rightCount[i] = acc, cnt
	}
	bestCost := math.Inf(1)
	bestBin := -1
	for i := 0; i < nbins-1; i++ {
		if leftCount[i] == 0 || rightCount[i+1] == 0 {
			continue
		}
		cost := leftBox[i].SurfaceArea()*float64(leftCount[i]) +
			rightBox[i+1].SurfaceArea()*float64(rightCount[i+1])
		if cost < bestCost {
			bestCost = cost
			bestBin = i
		}
	}
	if bestBin < 0 {
		return 0, false
	}
	// Partition PrimIDs by bin.
	mid := start
	for i := start; i < end; i++ {
		if binOf(b.PrimIDs[i]) <= bestBin {
			b.PrimIDs[mid], b.PrimIDs[i] = b.PrimIDs[i], b.PrimIDs[mid]
			mid++
		}
	}
	return mid, mid > start && mid < end
}

func axisValue(v vecmath.Vec3, axis int) float64 {
	switch axis {
	case 0:
		return v.X
	case 1:
		return v.Y
	default:
		return v.Z
	}
}

func longestAxis(d vecmath.Vec3) int {
	if d.X >= d.Y && d.X >= d.Z {
		return 0
	}
	if d.Y >= d.Z {
		return 1
	}
	return 2
}
