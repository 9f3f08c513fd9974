package volume

import (
	"math"
	"unsafe"

	"insitu/internal/framebuffer"
)

// lanes is one float64 per packet lane.
type lanes = [4]float64

// rayPacket is one worker's four-ray packet: the lanes' rays and first
// and last sample distances in, their composited color, first-sample
// depth and sample counts out. marchPacket reads and writes it through
// the field offsets go_asm.h gives the assembly.
type rayPacket struct {
	ox, oy, oz, dx, dy, dz lanes
	t, t1                  lanes // the next sample's distance; the exit distance
	cr, cg, cb, ca         lanes
	depth                  lanes // float64(float32(t)) of the first composited sample
	samples                [4]int64
	pix                    [4]int

	// The segments the packet's last looked-up sample used, as byte
	// offsets in the splatted tables. A sample whose live lanes all lie
	// in them takes them without counting; otherwise it counts, and if
	// its lanes counted different segments it gathers each lane's own
	// into alphaTmp and colorTmp.
	alphaOff, colorOff uintptr
	alphaTmp           alphaLanes
	colorTmp           colorLanes

	// One sample's grid terms, computed before the previous sample is
	// composited so that its corner loads overlap that work.
	slots [2]packetSlot
}

// packetSlot is what marchPacket computes for a sample before
// compositing it: the cell fractions, the eight corner values (v000,
// v100, v010, v110, v001, v101, v011, v111) and the lanes that loaded
// them, t < t1 and inside the grid.
type packetSlot struct {
	f    [3]lanes
	c    [8]lanes
	load lanes
}

// alphaLanes and colorLanes are tfTable segments as marchPacket reads
// them: splatted, with the span > 0 test as a lane mask. below is the
// upper stop of the segment before (-Inf for the first): stops are
// sorted, so a tn lies in this segment — it counts this segment's index
// of upper stops below it — exactly when below < tn <= hi.
type alphaLanes struct {
	below, hi, lo, span, spanPos, base, delta lanes
}

type colorLanes struct {
	below, hi, lo, span, spanPos lanes
	base, delta                  [3]lanes
}

// packetParams is the frame as marchPacket reads it: the uniform grid's
// corner bases and per-axis terms, and the tfTable, with every scalar
// splatted to four lanes so the kernel takes it as a memory operand.
type packetParams struct {
	v, vy, vz, vyz *float64    // vals at point offsets 0, sy, sz and sy+sz
	org, inv, lim  [3]lanes    // per axis: origin, inverse spacing, far-face tolerance
	cmax           [3][4]int32 // per axis: N-2, the far-face clamp
	sy, sz         [4]int32    // point-index strides of j and k
	step           lanes
	normMin        lanes
	normSpan       lanes
	first          lanes // tfTable.first
	one            lanes
	opaque         lanes // 0.99, early termination
	maxDepth       lanes // framebuffer.MaxDepth, "no sample composited yet"

	alpha                    *alphaLanes
	color                    *colorLanes
	nAlpha, nColor           int      // segments below the +Inf one, the ones counted
	alphaStride, colorStride [4]int64 // segment sizes in float64s
}

// splat returns x in every lane.
func splat(x float64) lanes { return lanes{x, x, x, x} }

// splatMask returns all-ones lanes if b, else zeros.
func splatMask(b bool) lanes {
	if !b {
		return lanes{}
	}
	return splat(math.Float64frombits(^uint64(0)))
}

func splat32(x int) [4]int32 {
	v := int32(x)
	return [4]int32{v, v, v, v}
}

// preparePackets reports whether this frame can take the packet kernel
// and, if so, fills the packet parameters and sizes the per-worker
// packets. The kernel computes castRay's uniform-grid, unit-exponent,
// table path only, on an AVX2 host with 32-bit corner indices and a
// device that is not Scalar; every other frame runs castRay.
func (a *structuredArena) preparePackets() bool {
	s := a.r.Scene.sampler
	tab := &a.tfTab
	if !hasPackets || a.r.Dev.Scalar || !s.uniform || a.step/a.refStep != 1 || tab.flat ||
		len(s.vals) > math.MaxInt32 {
		return false
	}
	pp := &a.pp
	pp.v, pp.vy, pp.vz, pp.vyz = &s.vals[0], &s.vals[s.sy], &s.vals[s.sz], &s.vals[s.sy+s.sz]
	pp.org = [3]lanes{splat(s.origin.X), splat(s.origin.Y), splat(s.origin.Z)}
	pp.inv = [3]lanes{splat(s.invSpace.X), splat(s.invSpace.Y), splat(s.invSpace.Z)}
	pp.lim = [3]lanes{splat(s.lim.X), splat(s.lim.Y), splat(s.lim.Z)}
	pp.cmax = [3][4]int32{splat32(s.nx - 2), splat32(s.ny - 2), splat32(s.nz - 2)}
	pp.sy, pp.sz = splat32(s.sy), splat32(s.sz)
	pp.step = splat(a.step)
	pp.normMin, pp.normSpan, pp.first = splat(tab.normMin), splat(tab.normSpan), splat(tab.first)
	pp.one, pp.opaque, pp.maxDepth = splat(1), splat(0.99), splat(float64(framebuffer.MaxDepth))
	below := math.Inf(-1)
	a.alphaLanes = a.alphaLanes[:0]
	for _, g := range tab.alpha {
		a.alphaLanes = append(a.alphaLanes, alphaLanes{
			below: splat(below), hi: splat(g.hi), lo: splat(g.lo), span: splat(g.span), spanPos: splatMask(g.span > 0),
			base: splat(g.base), delta: splat(g.delta),
		})
		below = g.hi
	}
	below = math.Inf(-1)
	a.colorLanes = a.colorLanes[:0]
	for _, g := range tab.color {
		a.colorLanes = append(a.colorLanes, colorLanes{
			below: splat(below), hi: splat(g.hi), lo: splat(g.lo), span: splat(g.span), spanPos: splatMask(g.span > 0),
			base:  [3]lanes{splat(g.base.X), splat(g.base.Y), splat(g.base.Z)},
			delta: [3]lanes{splat(g.delta.X), splat(g.delta.Y), splat(g.delta.Z)},
		})
		below = g.hi
	}
	pp.alpha, pp.nAlpha = &a.alphaLanes[0], len(a.alphaLanes)-1
	pp.color, pp.nColor = &a.colorLanes[0], len(a.colorLanes)-1
	as, cs := int64(unsafe.Sizeof(alphaLanes{})/8), int64(unsafe.Sizeof(colorLanes{})/8)
	pp.alphaStride, pp.colorStride = [4]int64{as, as, as, as}, [4]int64{cs, cs, cs, cs}

	workers := max(a.r.Dev.Workers, 1)
	if len(a.packets) < workers {
		a.packets = make([]rayPacket, workers)
	}
	return true
}

// castPackets ray-casts one pixel range four rays at a time. It collects
// the range's grid-hitting rays into the worker's packet and marches
// each full packet, and the last partial one, with marchPacket. A packet
// that bails re-casts its rays with castRay.
func (a *structuredArena) castPackets(worker, plo, phi int) {
	pk := &a.packets[worker]
	width := a.opts.Width
	half := a.step / 2
	var samples, marched, bailed int64
	n := 0
	for p := plo; p < phi; p++ {
		ray := a.raygen.Ray(float64(p%width), float64(p/width), 0.5, 0.5)
		t0, t1, ok := a.bounds.HitRay(ray.Orig, ray.InvDir(), 0, math.Inf(1))
		if !ok {
			continue
		}
		pk.ox[n], pk.oy[n], pk.oz[n] = ray.Orig.X, ray.Orig.Y, ray.Orig.Z
		pk.dx[n], pk.dy[n], pk.dz[n] = ray.Dir.X, ray.Dir.Y, ray.Dir.Z
		pk.t[n], pk.t1[n], pk.pix[n] = t0+half, t1, p
		if n++; n == len(pk.pix) {
			s, b := a.march(pk, n)
			samples, bailed, marched = samples+s, bailed+b, marched+1
			n = 0
		}
	}
	if n > 0 {
		s, b := a.march(pk, n)
		samples, bailed, marched = samples+s, bailed+b, marched+1
	}
	a.totalSamples.Add(samples)
	a.packetsMarched.Add(marched)
	a.packetsBailed.Add(bailed)
}

// march runs the packet's first n lanes (the rest never start) through
// marchPacket and writes their pixels, or re-casts them with castRay if
// the kernel bailed. It returns the lanes' samples, and 1 if the kernel
// bailed.
func (a *structuredArena) march(pk *rayPacket, n int) (samples, bailed int64) {
	for l := n; l < len(pk.pix); l++ {
		pk.ox[l], pk.oy[l], pk.oz[l], pk.dx[l], pk.dy[l], pk.dz[l] = 0, 0, 0, 0, 0, 0
		pk.t[l], pk.t1[l] = 0, 0
	}
	pk.cr, pk.cg, pk.cb, pk.ca = lanes{}, lanes{}, lanes{}, lanes{}
	pk.alphaOff, pk.colorOff = 0, 0
	pk.slots[0].load = lanes{} // the sample before the first loads nothing
	pk.depth = splat(float64(framebuffer.MaxDepth))
	if !marchPacket(&a.pp, pk) {
		for _, p := range pk.pix[:n] {
			samples += a.castRay(p)
		}
		return samples, 1
	}
	width := a.opts.Width
	for l, p := range pk.pix[:n] {
		samples += pk.samples[l]
		if pk.ca[l] > 0 {
			a.img.Set(p%width, p/width, float32(pk.cr[l]), float32(pk.cg[l]), float32(pk.cb[l]), float32(pk.ca[l]), float32(pk.depth[l]))
		}
	}
	return samples, 0
}
