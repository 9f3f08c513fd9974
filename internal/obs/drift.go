package obs

import "sync/atomic"

// driftBounds are the fixed signed relative-error bucket boundaries for
// (predicted − measured) / measured. Bucket i counts residuals r with
// driftBounds[i-1] <= r < driftBounds[i]; bucket 0 is the underflow
// bucket (r < driftBounds[0]) and the last bucket the overflow. A
// well-fitted model piles everything into the ±2–5% center; a stale one
// slides toward an edge long before deadline misses climb.
var driftBounds = [...]float64{
	-1, -0.5, -0.3, -0.2, -0.1, -0.05, -0.02,
	0.02, 0.05, 0.1, 0.2, 0.3, 0.5, 1, 2, 5,
}

// NumDriftBuckets is the number of drift buckets (len(driftBounds)+1,
// for the under- and overflow edges).
const NumDriftBuckets = len(driftBounds) + 1

// driftIndex maps a signed relative error to its bucket.
func driftIndex(r float64) int {
	// Linear scan: 16 comparisons, branch-predictable, no allocation —
	// cheaper in practice than binary search at this size.
	for i, b := range driftBounds {
		if r < b {
			return i
		}
	}
	return NumDriftBuckets - 1
}

// DriftBucketBounds returns bucket i's residual range [lo, hi). The
// underflow bucket reports lo = -inf as -1e18; overflow hi likewise.
func DriftBucketBounds(i int) (lo, hi float64) {
	const inf = 1e18
	if i <= 0 {
		return -inf, driftBounds[0]
	}
	if i >= NumDriftBuckets-1 {
		return driftBounds[len(driftBounds)-1], inf
	}
	return driftBounds[i-1], driftBounds[i]
}

// DriftHistogram buckets signed relative prediction errors. The zero
// value is ready; Observe is lock-free and allocation-free.
type DriftHistogram struct {
	counts [NumDriftBuckets]atomic.Uint64
	count  atomic.Uint64
	// sum and sumAbs are residual totals scaled by 1e6 (fixed-point),
	// so the mean and mean-absolute error survive atomic accumulation.
	sum    atomic.Int64
	sumAbs atomic.Int64
}

// Observe records one residual (predicted − measured) / measured.
func (d *DriftHistogram) Observe(r float64) {
	d.counts[driftIndex(r)].Add(1)
	d.count.Add(1)
	s := int64(r * 1e6)
	d.sum.Add(s)
	if s < 0 {
		s = -s
	}
	d.sumAbs.Add(s)
}

// ObservePair computes and records the residual for one
// predicted/measured pair, ignoring non-positive measurements.
func (d *DriftHistogram) ObservePair(predicted, measured float64) {
	if measured <= 0 {
		return
	}
	d.Observe((predicted - measured) / measured)
}

// Count returns the number of recorded residuals.
func (d *DriftHistogram) Count() uint64 { return d.count.Load() }

// Snapshot copies the current counts (same tearing caveat as
// Histogram.Snapshot).
func (d *DriftHistogram) Snapshot() DriftSnapshot {
	var s DriftSnapshot
	for i := range d.counts {
		s.Counts[i] = d.counts[i].Load()
		s.Count += s.Counts[i]
	}
	s.Sum = float64(d.sum.Load()) / 1e6
	s.SumAbs = float64(d.sumAbs.Load()) / 1e6
	return s
}

// DriftSnapshot is one point-in-time copy of a DriftHistogram.
type DriftSnapshot struct {
	Counts [NumDriftBuckets]uint64
	Count  uint64
	Sum    float64
	SumAbs float64
}

// Merge adds o's counts into s.
func (s *DriftSnapshot) Merge(o *DriftSnapshot) {
	for i := range s.Counts {
		s.Counts[i] += o.Counts[i]
	}
	s.Count += o.Count
	s.Sum += o.Sum
	s.SumAbs += o.SumAbs
}

// MeanError returns the mean signed residual — the model's bias.
func (s *DriftSnapshot) MeanError() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// MeanAbsError returns the mean |residual| — the model's spread.
func (s *DriftSnapshot) MeanAbsError() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.SumAbs / float64(s.Count)
}

// DriftJSON is the wire form of a drift distribution. Field names are
// an API (golden-tested by cmd/renderd).
type DriftJSON struct {
	Backend   string            `json:"backend"`
	Term      string            `json:"term"`
	Count     uint64            `json:"count"`
	MeanError float64           `json:"mean_error"`
	MeanAbs   float64           `json:"mean_abs_error"`
	Buckets   []DriftBucketJSON `json:"buckets,omitempty"`
}

// DriftBucketJSON is one non-empty drift bucket: residuals r with
// r < Lt (and >= the previous bucket's Lt).
type DriftBucketJSON struct {
	Lt    float64 `json:"lt"`
	Count uint64  `json:"count"`
}

// JSON renders the snapshot's wire form for one backend × term.
func (s *DriftSnapshot) JSON(backend, term string) DriftJSON {
	out := DriftJSON{
		Backend:   backend,
		Term:      term,
		Count:     s.Count,
		MeanError: s.MeanError(),
		MeanAbs:   s.MeanAbsError(),
	}
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		_, hi := DriftBucketBounds(i)
		out.Buckets = append(out.Buckets, DriftBucketJSON{Lt: hi, Count: c})
	}
	return out
}

// ResidualKey identifies one drift series: which backend's model, and
// which model term (e.g. "render", "composite") the prediction was for.
type ResidualKey struct {
	Backend string
	Term    string
}

// Residuals is a fixed registry of drift histograms, one per
// backend × term, built once at construction so steady-state Observe
// calls are read-only map lookups — no lock, no allocation.
type Residuals struct {
	m    map[ResidualKey]*DriftHistogram
	keys []ResidualKey // construction order, for stable export
}

// NewResiduals builds the registry for the given keys. Keys not listed
// here are silently dropped by Observe — the set of modeled terms is
// known at server construction, and a fixed registry is what keeps the
// hot path allocation-free.
func NewResiduals(keys []ResidualKey) *Residuals {
	r := &Residuals{m: make(map[ResidualKey]*DriftHistogram, len(keys))}
	for _, k := range keys {
		if _, dup := r.m[k]; dup {
			continue
		}
		r.m[k] = &DriftHistogram{}
		r.keys = append(r.keys, k)
	}
	return r
}

// Observe records one predicted/measured pair for a backend × term.
// Unknown keys and non-positive measurements are ignored.
func (r *Residuals) Observe(backend, term string, predicted, measured float64) {
	if r == nil {
		return
	}
	d := r.m[ResidualKey{Backend: backend, Term: term}]
	if d == nil {
		return
	}
	d.ObservePair(predicted, measured)
}

// JSON renders every non-empty series in construction order.
func (r *Residuals) JSON() []DriftJSON {
	if r == nil {
		return nil
	}
	var out []DriftJSON
	for _, k := range r.keys {
		s := r.m[k].Snapshot()
		if s.Count == 0 {
			continue
		}
		out = append(out, s.JSON(k.Backend, k.Term))
	}
	return out
}
