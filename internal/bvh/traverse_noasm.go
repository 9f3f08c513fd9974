//go:build !amd64

package bvh

// hasPackets is false off amd64: IntersectClosest4 runs ray by ray.
const hasPackets = false

func closest4(*Node, *Triangle, *quad, int) int { panic("bvh: no packet kernel on this GOARCH") }
