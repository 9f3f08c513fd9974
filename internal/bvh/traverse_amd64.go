package bvh

import (
	"unsafe"

	"insitu/internal/device"
)

// hasPackets reports whether closest4 can run: the CPU has AVX2 and the
// OS saves its YMM state.
var hasPackets = device.HasAVX2()

// closest4 addresses node i at nodes + i<<6.
var _ [64]byte = [unsafe.Sizeof(Node{})]byte{}

// closest4 runs IntersectClosest for q's lanes below n in lockstep:
// it computes their reciprocal directions, tests the root box, and
// walks the tree from the root's children. It returns packetDone with
// q's hit lanes and counts final, packetHandoff with q holding where
// each lane resumes, or packetFold, having done nothing else, when a
// root slab value is NaN. See IntersectClosest4.
//
//go:noescape
func closest4(nodes *Node, tris *Triangle, q *quad, n int) int
