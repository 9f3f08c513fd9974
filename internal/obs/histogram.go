package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// Bucket layout: log-spaced with subCount sub-buckets per power of two.
// Values 0..subCount-1 get their own exact buckets (index == value); a
// larger value v with exponent e = floor(log2 v) lands in bucket
// subCount + (e-subBits)*subCount + m, where m is the top subBits
// mantissa bits after the leading one. The layout is exhaustive and
// monotone over all of int64, so Observe is a few integer ops and one
// atomic add — no bounds search, no lock, no allocation.
const (
	subBits  = 2
	subCount = 1 << subBits // sub-buckets per octave

	// NumBuckets covers nanosecond values up to 2^63-1 (exponents
	// subBits..62 above the subCount exact low buckets).
	NumBuckets = subCount + (63-subBits)*subCount
)

// bucketIndex maps a non-negative nanosecond value to its bucket.
func bucketIndex(v int64) int {
	if v < subCount {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 1
	m := int(v>>(uint(e)-subBits)) & (subCount - 1)
	return subCount + (e-subBits)*subCount + m
}

// BucketBounds returns bucket i's value range [lo, hi): the bucket
// counts observations with lo <= v < hi.
func BucketBounds(i int) (lo, hi int64) {
	if i < subCount {
		return int64(i), int64(i) + 1
	}
	e := uint(i-subCount)/subCount + subBits
	m := int64(i-subCount) % subCount
	width := int64(1) << (e - subBits)
	lo = int64(1)<<e + m*width
	if e >= 62 && m == subCount-1 {
		return lo, math.MaxInt64
	}
	return lo, lo + width
}

// Histogram is a lock-free fixed-bucket latency histogram over
// nanoseconds. The zero value is ready to use; all methods are safe for
// concurrent use, and Observe performs no heap allocation.
type Histogram struct {
	counts [NumBuckets]atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Int64 // total nanoseconds
}

// Observe records one nanosecond measurement (negative values clamp to
// the zero bucket).
func (h *Histogram) Observe(ns int64) {
	h.counts[bucketIndex(ns)].Add(1)
	h.count.Add(1)
	if ns > 0 {
		h.sum.Add(ns)
	}
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Snapshot copies the current counts. Buckets are read without a global
// lock, so a snapshot taken concurrently with Observe may be torn by a
// handful of in-flight observations — fine for telemetry, by design.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
		s.Count += s.Counts[i]
	}
	s.SumNanos = h.sum.Load()
	return s
}

// HistogramSnapshot is one point-in-time copy of a Histogram, mergeable
// with snapshots of other histograms sharing the layout.
type HistogramSnapshot struct {
	Counts   [NumBuckets]uint64
	Count    uint64
	SumNanos int64
}

// Merge adds o's counts into s.
func (s *HistogramSnapshot) Merge(o *HistogramSnapshot) {
	for i := range s.Counts {
		s.Counts[i] += o.Counts[i]
	}
	s.Count += o.Count
	s.SumNanos += o.SumNanos
}

// Quantile returns the q-quantile (0 <= q <= 1) in nanoseconds, linearly
// interpolated inside the covering bucket — exact at bucket boundaries,
// within the bucket's relative width (<= 1/subCount) elsewhere.
func (s *HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// Prometheus histogram_quantile convention: the q-quantile is the
	// value whose cumulative count first reaches rank = q*N, so high
	// quantiles over few observations land in the bucket of the larger
	// observations rather than snapping down (p95 of {6µs, 67ms} must
	// read ~67ms, not 6µs).
	rank := q * float64(s.Count)
	var cum uint64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		if float64(cum+c) >= rank {
			lo, hi := BucketBounds(i)
			within := (rank - float64(cum)) / float64(c)
			return float64(lo) + within*float64(hi-lo)
		}
		cum += c
	}
	lo, _ := BucketBounds(NumBuckets - 1)
	return float64(lo)
}

// Mean returns the mean observation in nanoseconds.
func (s *HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.SumNanos) / float64(s.Count)
}

// HistogramJSON is the wire form of a latency histogram: summary
// quantiles in seconds plus the non-empty buckets. Field names are an
// API (golden-tested by cmd/renderd); renames break dashboards.
type HistogramJSON struct {
	Count      uint64       `json:"count"`
	SumSeconds float64      `json:"sum_seconds"`
	P50Seconds float64      `json:"p50_seconds"`
	P95Seconds float64      `json:"p95_seconds"`
	P99Seconds float64      `json:"p99_seconds"`
	Buckets    []BucketJSON `json:"buckets,omitempty"`
}

// BucketJSON is one non-empty histogram bucket: the count of
// observations with value <= LeSeconds (upper bound, non-cumulative).
type BucketJSON struct {
	LeSeconds float64 `json:"le_seconds"`
	Count     uint64  `json:"count"`
}

// JSON renders the snapshot's wire form.
func (s *HistogramSnapshot) JSON() HistogramJSON {
	out := HistogramJSON{
		Count:      s.Count,
		SumSeconds: float64(s.SumNanos) / 1e9,
		P50Seconds: s.Quantile(0.50) / 1e9,
		P95Seconds: s.Quantile(0.95) / 1e9,
		P99Seconds: s.Quantile(0.99) / 1e9,
	}
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		_, hi := BucketBounds(i)
		out.Buckets = append(out.Buckets, BucketJSON{LeSeconds: float64(hi) / 1e9, Count: c})
	}
	return out
}
