package main

import (
	"math"
	"sort"
)

// Exact-sample statistics. obs.Histogram's four buckets per octave
// resolve a quantile to about 19 %, which is wider than the regression
// bounds, so the benchmark keeps every sample and sorts.

// quantile is the nearest-rank q-quantile of xs (which it sorts in
// place); 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	return xs[rank-1]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailPermilles are the percentiles a tail may be reported at, in
// thousandths so the ten-samples rule is exact integer arithmetic.
var tailPermilles = []int{500, 750, 900, 950, 990, 999}

// tailPercent is the highest of p50, p75, p90, p95, p99, p99.9 that
// still has at least ten of n samples beyond it — the furthest into the
// tail the sample supports. Fewer than 40 samples leave the median.
func tailPercent(n int) float64 {
	best := tailPermilles[0]
	for _, pm := range tailPermilles {
		if n*(1000-pm) >= 10*1000 {
			best = pm
		}
	}
	return float64(best) / 10
}

// rate is events per second between the first and the last of the
// completion times (seconds): frames delivered over the time it took to
// deliver them. (A median over blocks of the window was tried and was no
// steadier: this host's speed drifts over minutes, not inside a run.)
func rate(done []float64) float64 {
	if len(done) < 2 {
		return 0
	}
	sort.Float64s(done)
	return float64(len(done)-1) / (done[len(done)-1] - done[0])
}
