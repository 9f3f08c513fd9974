package dpp

import "insitu/internal/device"

// ScanExclusive writes the exclusive prefix combination of in into out and
// returns the total. op must be associative and id its identity. in and out
// may alias. The parallel scheme is the standard two-pass chunked scan:
// per-chunk totals, a serial scan of the totals, then a per-chunk sweep.
func ScanExclusive[T any](d *device.Device, in, out []T, id T, op func(a, b T) T) T {
	n := len(in)
	if n == 0 {
		return id
	}
	ch := chunksFor(d, n)
	sums := make([]T, ch.num)
	For(d, ch.num, func(clo, chi int) {
		for c := clo; c < chi; c++ {
			lo, hi := ch.bounds(c)
			acc := id
			for i := lo; i < hi; i++ {
				acc = op(acc, in[i])
			}
			sums[c] = acc
		}
	})
	prefix := make([]T, ch.num)
	running := id
	for c := 0; c < ch.num; c++ {
		prefix[c] = running
		running = op(running, sums[c])
	}
	total := running
	For(d, ch.num, func(clo, chi int) {
		for c := clo; c < chi; c++ {
			lo, hi := ch.bounds(c)
			acc := prefix[c]
			for i := lo; i < hi; i++ {
				v := in[i]
				out[i] = acc
				acc = op(acc, v)
			}
		}
	})
	return total
}

// Compactor is the paper's stream compaction: CompactIndices returns the
// indices of the set flags, in ascending order, by the reduce + exclusive
// scan + reverse-index sequence fused into a two-pass emit. The
// per-chunk count scratch, the output index buffer, and the two kernel
// closures are built once and reused across calls, so stream compaction
// inside a steady-state frame loop costs no heap allocation. A Compactor
// is not safe for concurrent use.
type Compactor struct {
	d      *device.Device
	flags  []bool
	ch     chunking
	counts []int32
	out    []int32
	countF func(lo, hi int)
	emitF  func(lo, hi int)
}

// Init (re)binds the Compactor to a device; useful for embedding a
// Compactor by value inside a larger arena.
func (c *Compactor) Init(d *device.Device) {
	c.d = d
	if c.countF == nil {
		c.countF = c.countRange
		c.emitF = c.emitRange
	}
}

func (c *Compactor) countRange(clo, chi int) {
	for k := clo; k < chi; k++ {
		lo, hi := c.ch.bounds(k)
		n := int32(0)
		for i := lo; i < hi; i++ {
			if c.flags[i] {
				n++
			}
		}
		c.counts[k] = n
	}
}

func (c *Compactor) emitRange(clo, chi int) {
	for k := clo; k < chi; k++ {
		lo, hi := c.ch.bounds(k)
		cur := c.counts[k]
		for i := lo; i < hi; i++ {
			if c.flags[i] {
				c.out[cur] = int32(i)
				cur++
			}
		}
	}
}

// CompactIndices returns the indices of the set flags in ascending order.
// The returned slice is owned by the Compactor and valid until the next
// call; callers that need to retain it must copy.
func (c *Compactor) CompactIndices(flags []bool) []int32 {
	c.ch = chunksFor(c.d, len(flags))
	if c.ch.num == 0 {
		return nil
	}
	c.flags = flags
	if cap(c.counts) < c.ch.num {
		c.counts = make([]int32, c.ch.num)
	}
	c.counts = c.counts[:c.ch.num]
	For(c.d, c.ch.num, c.countF)
	total := int32(0)
	for k := range c.counts {
		n := c.counts[k]
		c.counts[k] = total
		total += n
	}
	if cap(c.out) < int(total) {
		c.out = make([]int32, total)
	}
	c.out = c.out[:total]
	For(c.d, c.ch.num, c.emitF)
	c.flags = nil
	return c.out
}
