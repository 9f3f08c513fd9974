package raytrace

import (
	"math"

	"insitu/internal/vecmath"
)

// The raygen and shade phases' four-lane kernels. On a frame that takes
// packet traversal (the arena's quads), raygen4 computes RayGen.Ray for
// four rays at a time and shade4 shades four live rays at a time. Each
// lane evaluates the scalar kernel's expressions in the scalar kernel's
// order, with no fused multiply-add, so a frame's bits do not depend on
// which path drew it; raygenKernel and shadeKernel stay the scalar path
// and the oracle.

// lanes is one float64 per kernel lane.
type lanes = [4]float64

func splat(x float64) lanes { return lanes{x, x, x, x} }

// raygenFrame is RayGen.Ray's frame as raygen4 reads it, every value
// splatted to four lanes so the kernel takes it as a memory operand,
// and the jitter of each lane's sample.
type raygenFrame struct {
	fx, fy, fz, rx, ry, rz, ux, uy, uz lanes // forward, right, up
	w, h, tanF, aspect                 lanes
	jx, jy                             lanes
}

// shadeFrame is what shade4 reads of the frame, splatted likewise: the
// rays' origin, the light, the scalar normalizer (flat holds all-ones
// bits when its range is empty and Normalize returns 0.5), and a
// three-stop color map's positions, segment spans, stop colors and
// per-segment color differences.
type shadeFrame struct {
	ox, oy, oz            lanes
	lx, ly, lz, intensity lanes
	normMin, normSpan     lanes
	flat                  lanes
	p0, p1, p2            lanes
	span1, span2          lanes
	c0x, c0y, c0z         lanes
	c1x, c1y, c1z         lanes
	c2x, c2y, c2z         lanes
	d1x, d1y, d1z         lanes // c1 - c0
	d2x, d2y, d2z         lanes // c2 - c1
}

// shadeQuad is one call's four hits, as gatherShade loads them from the
// ray state and the mesh: distance, barycentrics, direction, and the
// hit triangle's corner normals and scalars. shade4 writes the lanes'
// colors to r, g, b.
type shadeQuad struct {
	t, u, v, dx, dy, dz lanes
	n0x, n0y, n0z       lanes
	n1x, n1y, n1z       lanes
	n2x, n2y, n2z       lanes
	s0, s1, s2          lanes
	r, g, b             lanes
}

// setQuadFrames fills the kernels' frames from the arena's per-frame
// parameters and reports whether shade4 can shade this frame: whether
// the mesh has normals. shade4 takes the cool-to-warm map's three stops
// and positive spans as given.
func (a *frameArena) setQuadFrames() bool {
	right, up, fwd, tanF, aspect, w, h := a.raygen.Frame()
	rf := &a.rgFrame
	rf.fx, rf.fy, rf.fz = splat(fwd.X), splat(fwd.Y), splat(fwd.Z)
	rf.rx, rf.ry, rf.rz = splat(right.X), splat(right.Y), splat(right.Z)
	rf.ux, rf.uy, rf.uz = splat(up.X), splat(up.Y), splat(up.Z)
	rf.w, rf.h, rf.tanF, rf.aspect = splat(w), splat(h), splat(tanF), splat(aspect)
	for k := range 4 {
		j := jitterTable[k&(a.spp-1)]
		rf.jx[k], rf.jy[k] = j[0], j[1]
	}

	if a.r.Mesh.NX == nil {
		return false
	}
	pos, cols := a.cmap.Stops()
	sf := &a.shFrame
	sf.ox, sf.oy, sf.oz = splat(a.origin.X), splat(a.origin.Y), splat(a.origin.Z)
	lp := a.light.Position
	sf.lx, sf.ly, sf.lz, sf.intensity = splat(lp.X), splat(lp.Y), splat(lp.Z), splat(a.light.Intensity)
	sf.normMin, sf.normSpan, sf.flat = splat(a.norm.Min), splat(a.norm.Max-a.norm.Min), lanes{}
	if a.norm.Max <= a.norm.Min {
		sf.flat = splat(math.Float64frombits(^uint64(0)))
	}
	sf.p0, sf.p1, sf.p2 = splat(pos[0]), splat(pos[1]), splat(pos[2])
	sf.span1, sf.span2 = splat(pos[1]-pos[0]), splat(pos[2]-pos[1])
	d1, d2 := cols[1].Sub(cols[0]), cols[2].Sub(cols[1])
	sf.c0x, sf.c0y, sf.c0z = splat(cols[0].X), splat(cols[0].Y), splat(cols[0].Z)
	sf.c1x, sf.c1y, sf.c1z = splat(cols[1].X), splat(cols[1].Y), splat(cols[1].Z)
	sf.c2x, sf.c2y, sf.c2z = splat(cols[2].X), splat(cols[2].Y), splat(cols[2].Z)
	sf.d1x, sf.d1y, sf.d1z = splat(d1.X), splat(d1.Y), splat(d1.Z)
	sf.d2x, sf.d2y, sf.d2z = splat(d2.X), splat(d2.Y), splat(d2.Z)
	return true
}

// raygenQuadKernel is raygenKernel with the rays from the first multiple
// of four to the last generated by raygen4: four pixels per call at one
// sample per pixel, one pixel's four samples at four.
func (a *frameArena) raygenQuadKernel(lo, hi int) {
	head := min((lo+3)&^3, hi)
	tail := max(hi&^3, head)
	a.raygenKernel(lo, head)
	if tail > head {
		rays := &a.rays
		stride := 16 // bytes of xy per iteration: four pixels
		if a.spp > 1 {
			stride = 4 // one pixel
		}
		xy := a.xy[head>>a.log2 : (tail-1)>>a.log2+1]
		dx, dy, dz := rays.dx[head:tail], rays.dy[head:tail], rays.dz[head:tail]
		raygen4(&a.rgFrame, &xy[0], &dx[0], &dy[0], &dz[0], (tail-head)/4, stride)
	}
	a.raygenKernel(tail, hi)
}

// shadeQuadKernel is shadeKernel four live rays at a time. A lane whose
// specular power shade4 leaves to math.Pow is shaded again by shadeRay.
func (a *frameArena) shadeQuadKernel(lo, hi int) {
	var q shadeQuad
	for base := lo; base < hi; base += 4 {
		live := a.live[base:min(base+4, hi)]
		a.gatherShade(&q, live)
		fall := shade4(&a.shFrame, &q)
		for k, i := range live {
			k &= 3
			c := vecmath.V(q.r[k], q.g[k], q.b[k])
			if fall&(1<<k) != 0 {
				c = a.shadeRay(int(i))
			}
			a.storeShade(int(i), c)
		}
	}
}

// gatherShade loads the hits of rays live (at most four) into q's lanes.
// Lanes past len(live) keep what they held: shade4 computes them, and
// the caller ignores them.
func (a *frameArena) gatherShade(q *shadeQuad, live []int32) {
	m := a.r.Mesh
	rays := &a.rays
	for k, i := range live {
		k &= 3
		q.t[k], q.u[k], q.v[k] = rays.hitT[i], rays.hitU[i], rays.hitV[i]
		q.dx[k], q.dy[k], q.dz[k] = rays.dx[i], rays.dy[i], rays.dz[i]
		c := m.Conn[3*rays.hitPrim[i]:][:3]
		i0, i1, i2 := c[0], c[1], c[2]
		q.n0x[k], q.n0y[k], q.n0z[k] = m.NX[i0], m.NY[i0], m.NZ[i0]
		q.n1x[k], q.n1y[k], q.n1z[k] = m.NX[i1], m.NY[i1], m.NZ[i1]
		q.n2x[k], q.n2y[k], q.n2z[k] = m.NX[i2], m.NY[i2], m.NZ[i2]
		q.s0[k], q.s1[k], q.s2[k] = m.Scalars[i0], m.Scalars[i1], m.Scalars[i2]
	}
}
