// Package composite implements sort-last parallel image compositing, the
// IceT analogue: radix-k partition exchange (with binary swap and direct
// send as special factorizations), a z-test operator for opaque surface
// renders, and a visibility-ordered blend operator for volume renders.
package composite

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"insitu/internal/comm"
	"insitu/internal/framebuffer"
)

// Op selects the per-pixel merge operator.
type Op int

const (
	// DepthOp keeps the nearer fragment (opaque geometry). Commutative,
	// so no ordering information is required.
	DepthOp Op = iota
	// BlendOp composites with the over operator in visibility order
	// (transparent volumes). Requires a per-task ordering.
	BlendOp
)

// Stats describes one compositing operation.
type Stats struct {
	Elapsed time.Duration
	Rounds  int
}

// Compositor merges the per-task sub-images of one frame into a complete
// image delivered at rank 0 (other ranks return nil).
//
// A Compositor owns reusable per-rank scratch — the working image copy,
// the encode buffer (safe to reuse between sends because comm.Send
// copies), the decoded fragment strips, and the root's assembled output —
// all grown on demand and pre-sized after the first frame, so
// steady-state compositing rounds allocate only inside the comm layer's
// network-copy semantics. Scratch is keyed by rank, so one Compositor may
// be shared across the ranks of a simulated MPI world and reused across
// frames (as study.runTask does); concurrent Composite calls from the
// SAME rank are not supported. The image returned at rank 0 is owned by
// the compositor and valid until that rank's next Composite call.
type Compositor struct {
	// Factors is the radix-k factorization of the task count per round.
	// nil means "factor automatically into the smallest primes", which
	// yields binary swap on power-of-two counts.
	Factors []int

	mu      sync.Mutex
	scratch map[int]*compScratch
}

// compScratch is one rank's reusable compositing state.
type compScratch struct {
	cur       framebuffer.Image
	out       framebuffer.Image
	myStrip   framebuffer.Image
	sendBuf   []float32
	gatherBuf []float32
	frags     []fragment
	fragImgs  []*framebuffer.Image
}

// scratchFor returns rank's scratch, creating it on first use.
func (k *Compositor) scratchFor(rank int) *compScratch {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.scratch == nil {
		k.scratch = make(map[int]*compScratch)
	}
	s := k.scratch[rank]
	if s == nil {
		s = &compScratch{}
		k.scratch[rank] = s
	}
	return s
}

// BinarySwap returns a compositor using radix-2 rounds.
func BinarySwap() *Compositor { return &Compositor{} }

// DirectSend returns a compositor using one round of task-count radix,
// which is exactly the direct-send partition exchange.
func DirectSend(tasks int) *Compositor { return &Compositor{Factors: []int{tasks}} }

// RadixK returns a compositor with explicit round factors; the product
// must equal the task count.
func RadixK(factors ...int) *Compositor { return &Compositor{Factors: factors} }

// pixelsPerWord is the float32 payload per pixel: RGBA + depth.
const pixelsPerWord = 5

// Composite merges img across the world. order gives the visibility
// permutation for BlendOp: order[i] is the rank whose block is i-th
// closest to the camera; it may be nil for DepthOp. The composited image
// is returned at rank 0.
func (k *Compositor) Composite(c *comm.Comm, img *framebuffer.Image, op Op, order []int) (*framebuffer.Image, *Stats, error) {
	start := time.Now()
	n := c.Size()
	stats := &Stats{}
	if op == BlendOp && order == nil {
		return nil, nil, fmt.Errorf("composite: BlendOp requires a visibility order")
	}
	if op == BlendOp && len(order) != n {
		return nil, nil, fmt.Errorf("composite: order has %d entries for %d tasks", len(order), n)
	}
	// My position in the visibility order (front = 0).
	pos := c.Rank()
	if op == BlendOp {
		pos = -1
		for i, r := range order {
			if r == c.Rank() {
				pos = i
				break
			}
		}
		if pos < 0 {
			return nil, nil, fmt.Errorf("composite: rank %d missing from order %v", c.Rank(), order)
		}
	}

	factors := k.Factors
	if factors == nil {
		factors = primeFactors(n)
	}
	if product(factors) != n {
		return nil, nil, fmt.Errorf("composite: factors %v do not multiply to %d tasks", factors, n)
	}

	// The exchange pattern runs over VIRTUAL ids. For the ordered blend
	// operator, virtual id = visibility position, so every exchange group
	// is contiguous in visibility order and pairwise merges stay
	// associative across rounds (IceT's rank reordering). For the
	// commutative depth operator, virtual id = rank.
	virt := c.Rank()
	toActual := func(v int) int { return v }
	if op == BlendOp {
		virt = pos
		toActual = func(v int) int { return order[v] }
	}

	npix := img.W * img.H
	lo, hi := 0, npix
	sc := k.scratchFor(c.Rank())
	sc.cur.CopyFrom(img)
	cur := &sc.cur

	// Each round splits the owned range into f parts and exchanges them
	// within a group of f tasks.
	stride := 1
	for _, f := range factors {
		if f < 2 {
			stride *= f
			continue
		}
		stats.Rounds++
		me := (virt / stride) % f
		groupBase := virt - me*stride

		// Send part j to group member j; keep part me. partRange avoids
		// materializing the split: parts are derived arithmetically.
		for j := 0; j < f; j++ {
			if j == me {
				continue
			}
			peer := toActual(groupBase + j*stride)
			plo, phi := partRange(lo, hi, f, j)
			c.Send(peer, tagFor(stride, j), sc.encodeRange(cur, plo, phi, virt))
		}
		// Receive every other member's fragment of my part and merge.
		myLo, myHi := partRange(lo, hi, f, me)
		sc.frags = sc.frags[:0]
		cur.SubRangeInto(myLo, myHi, &sc.myStrip)
		sc.frags = append(sc.frags, fragment{pos: virt, img: &sc.myStrip})
		for j := 0; j < f; j++ {
			if j == me {
				continue
			}
			peer := toActual(groupBase + j*stride)
			data := c.Recv(peer, tagFor(stride, me))
			frag, fragPos, err := decodeInto(data, myHi-myLo, sc.fragImg(j))
			if err != nil {
				return nil, nil, err
			}
			sc.frags = append(sc.frags, fragment{pos: fragPos, img: frag})
		}
		merged, err := mergeFragments(sc.frags, op)
		if err != nil {
			return nil, nil, err
		}
		cur.WriteRange(myLo, merged)
		lo, hi = myLo, myHi
		stride *= f
	}

	// Gather the owned ranges at rank 0.
	final := sc.gatherRanges(c, cur, lo, hi, npix)
	stats.Elapsed = time.Since(start)
	if c.Rank() != 0 {
		return nil, stats, nil
	}
	return final, stats, nil
}

// fragImg returns the j-th reusable decode strip.
func (sc *compScratch) fragImg(j int) *framebuffer.Image {
	for len(sc.fragImgs) <= j {
		sc.fragImgs = append(sc.fragImgs, &framebuffer.Image{})
	}
	return sc.fragImgs[j]
}

// fragment pairs a strip with its owner's visibility position.
type fragment struct {
	pos int
	img *framebuffer.Image
}

// mergeFragments folds fragments with the selected operator. For BlendOp
// the fragments are sorted front to back and folded with the under
// operator; for DepthOp order is irrelevant.
func mergeFragments(frags []fragment, op Op) (*framebuffer.Image, error) {
	if op == BlendOp {
		sort.Slice(frags, func(i, j int) bool { return frags[i].pos < frags[j].pos })
	}
	acc := frags[0].img
	for _, f := range frags[1:] {
		var err error
		if op == DepthOp {
			err = acc.DepthCompositeFrom(f.img)
		} else {
			err = acc.BlendUnder(f.img)
		}
		if err != nil {
			return nil, err
		}
	}
	return acc, nil
}

// gatherRanges collects every task's owned [lo,hi) range at rank 0 and
// assembles the full image into the compositor's reusable output.
func (sc *compScratch) gatherRanges(c *comm.Comm, cur *framebuffer.Image, lo, hi, npix int) *framebuffer.Image {
	n := hi - lo
	need := 2 + pixelsPerWord*n
	if cap(sc.gatherBuf) < need {
		sc.gatherBuf = make([]float32, need)
	}
	payload := sc.gatherBuf[:need]
	payload[0], payload[1] = float32(lo), float32(hi)
	copy(payload[2:2+4*n], cur.Color[4*lo:4*hi])
	copy(payload[2+4*n:], cur.Depth[lo:hi])
	parts := c.Gather(0, payload)
	if c.Rank() != 0 {
		return nil
	}
	sc.out.EnsureSize(cur.W, cur.H)
	out := &sc.out
	for _, p := range parts {
		plo := int(p[0])
		phi := int(p[1])
		pn := phi - plo
		copy(out.Color[4*plo:4*phi], p[2:2+4*pn])
		copy(out.Depth[plo:phi], p[2+4*pn:])
	}
	return out
}

// encodeRange packs a pixel range plus the sender's visibility position
// into the compositor's reusable send buffer. comm.Send copies its
// payload (network semantics), so the buffer may be reused by the very
// next send.
func (sc *compScratch) encodeRange(img *framebuffer.Image, lo, hi, pos int) []float32 {
	n := hi - lo
	need := 1 + pixelsPerWord*n
	if cap(sc.sendBuf) < need {
		sc.sendBuf = make([]float32, need)
	}
	buf := sc.sendBuf[:need]
	buf[0] = float32(pos)
	copy(buf[1:1+4*n], img.Color[4*lo:4*hi])
	copy(buf[1+4*n:], img.Depth[lo:hi])
	return buf
}

// decodeInto unpacks a fragment into the reusable strip dst.
func decodeInto(data []float32, n int, dst *framebuffer.Image) (*framebuffer.Image, int, error) {
	if len(data) != 1+pixelsPerWord*n {
		return nil, 0, fmt.Errorf("composite: fragment has %d words, want %d", len(data), 1+pixelsPerWord*n)
	}
	pos := int(data[0])
	body := data[1:]
	if cap(dst.Color) < 4*n {
		dst.Color = make([]float32, 4*n)
		dst.Depth = make([]float32, n)
	}
	dst.W, dst.H = n, 1
	dst.Color = dst.Color[:4*n]
	dst.Depth = dst.Depth[:n]
	copy(dst.Color, body[:4*n])
	copy(dst.Depth, body[4*n:])
	return dst, pos, nil
}

// partRange returns the j-th of f near-equal contiguous parts of [lo, hi).
func partRange(lo, hi, f, j int) (int, int) {
	n := hi - lo
	return lo + j*n/f, lo + (j+1)*n/f
}

// tagFor derives a distinct message tag per (round stride, destination
// slot) pair so rounds cannot cross-talk.
func tagFor(stride, slot int) int { return 1000 + stride*64 + slot }

// primeFactors factors n into ascending primes (binary swap on powers of
// two). n = 1 yields an empty factorization.
func primeFactors(n int) []int {
	var f []int
	for p := 2; p*p <= n; p++ {
		for n%p == 0 {
			f = append(f, p)
			n /= p
		}
	}
	if n > 1 {
		f = append(f, n)
	}
	return f
}

func product(f []int) int {
	p := 1
	for _, v := range f {
		p *= v
	}
	return p
}

// VisibilityOrder sorts ranks front to back by their blocks' camera-space
// distance; blockDepth[r] is the distance of rank r's block centroid from
// the camera. Used to drive BlendOp compositing of distributed volumes.
func VisibilityOrder(blockDepth []float64) []int {
	order := make([]int, len(blockDepth))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		da, db := blockDepth[order[a]], blockDepth[order[b]]
		if math.IsNaN(da) {
			return false
		}
		if math.IsNaN(db) {
			return true
		}
		return da < db
	})
	return order
}
