package dpp

import "insitu/internal/device"

// SortPairs64 sorts keys ascending, permuting vals identically, using a
// parallel least-significant-digit radix sort (8-bit digits, 8 passes).
// It is the primitive behind morton-code sorting for LBVH construction and
// the GPU-style radix sort used in the HAVS comparison.
func SortPairs64(d *device.Device, keys []uint64, vals []int32) {
	n := len(keys)
	if n != len(vals) {
		panic("dpp: SortPairs64 length mismatch")
	}
	if n < 2 {
		return
	}
	tmpK := make([]uint64, n)
	tmpV := make([]int32, n)
	srcK, srcV := keys, vals
	dstK, dstV := tmpK, tmpV
	const radix = 256
	ch := chunksFor(d, n)
	hist := make([][]int32, ch.num)
	for pass := 0; pass < 8; pass++ {
		shift := uint(pass * 8)
		For(d, ch.num, func(clo, chi int) {
			for c := clo; c < chi; c++ {
				h := hist[c]
				if h == nil {
					h = make([]int32, radix)
					hist[c] = h
				} else {
					for b := range h {
						h[b] = 0
					}
				}
				lo, hi := ch.bounds(c)
				for i := lo; i < hi; i++ {
					h[(srcK[i]>>shift)&0xff]++
				}
			}
		})
		// Exclusive scan in bucket-major, chunk-minor order so each chunk
		// scatters into a private, stable range.
		var running int32
		for b := 0; b < radix; b++ {
			for c := 0; c < ch.num; c++ {
				count := hist[c][b]
				hist[c][b] = running
				running += count
			}
		}
		For(d, ch.num, func(clo, chi int) {
			for c := clo; c < chi; c++ {
				cursors := hist[c]
				lo, hi := ch.bounds(c)
				for i := lo; i < hi; i++ {
					b := (srcK[i] >> shift) & 0xff
					pos := cursors[b]
					cursors[b] = pos + 1
					dstK[pos] = srcK[i]
					dstV[pos] = srcV[i]
				}
			}
		})
		srcK, dstK = dstK, srcK
		srcV, dstV = dstV, srcV
	}
	// Eight passes is even, so the result is back in keys/vals.
}

// SortPairs32 sorts 32-bit keys ascending with an identically permuted
// payload (4 radix passes).
func SortPairs32(d *device.Device, keys []uint32, vals []int32) {
	n := len(keys)
	if n != len(vals) {
		panic("dpp: SortPairs32 length mismatch")
	}
	if n < 2 {
		return
	}
	wide := make([]uint64, n)
	For(d, n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			wide[i] = uint64(keys[i])
		}
	})
	SortPairs64(d, wide, vals)
	For(d, n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			keys[i] = uint32(wide[i])
		}
	})
}
