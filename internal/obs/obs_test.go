package obs

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestBucketLayout proves the bucket map is exhaustive and monotone:
// every value lands in exactly the bucket whose bounds contain it.
func TestBucketLayout(t *testing.T) {
	probes := []int64{0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 100, 1000, 1 << 20,
		1<<40 + 12345, math.MaxInt64 - 1, math.MaxInt64, -5}
	for _, v := range probes {
		i := bucketIndex(v)
		if i < 0 || i >= NumBuckets {
			t.Fatalf("bucketIndex(%d) = %d out of range", v, i)
		}
		lo, hi := BucketBounds(i)
		want := v
		if want < 0 {
			want = 0
		}
		// The final bucket's hi of MaxInt64 stands in for +Inf, so it
		// is closed on the right.
		if want < lo || (want >= hi && i != NumBuckets-1) {
			t.Errorf("value %d in bucket %d but bounds [%d,%d)", v, i, lo, hi)
		}
	}
	// Monotone and gap-free across the whole layout.
	prevHi := int64(0)
	for i := 0; i < NumBuckets; i++ {
		lo, hi := BucketBounds(i)
		if lo != prevHi {
			t.Fatalf("bucket %d starts at %d, previous ended at %d", i, lo, prevHi)
		}
		if hi <= lo {
			t.Fatalf("bucket %d empty: [%d,%d)", i, lo, hi)
		}
		prevHi = hi
	}
	if prevHi != math.MaxInt64 {
		t.Fatalf("layout ends at %d, want MaxInt64", prevHi)
	}
}

// TestHistogramQuantiles checks interpolated quantiles stay within one
// bucket's relative width of the true values.
func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	for i := 1; i <= 10000; i++ {
		h.Observe(int64(i) * 1000) // 1µs .. 10ms, uniform
	}
	s := h.Snapshot()
	if s.Count != 10000 {
		t.Fatalf("count = %d, want 10000", s.Count)
	}
	for _, tc := range []struct{ q, want float64 }{
		{0.50, 5000e3}, {0.95, 9500e3}, {0.99, 9900e3},
	} {
		got := s.Quantile(tc.q)
		if rel := math.Abs(got-tc.want) / tc.want; rel > 1.0/subCount {
			t.Errorf("q%.2f = %.0f, want %.0f (rel err %.3f)", tc.q, got, tc.want, rel)
		}
	}
	if mean := s.Mean(); math.Abs(mean-5000500)/5000500 > 1e-9 {
		t.Errorf("mean = %f, want 5000500", mean)
	}
}

// TestHistogramQuantileSmallCount: high quantiles over few observations
// must land in the bucket of the larger observations — a service that
// rendered one slow frame and one cache hit has a p95 near the slow
// frame, not the hit.
func TestHistogramQuantileSmallCount(t *testing.T) {
	var h Histogram
	h.Observe(6_000)      // a ~6µs cache hit
	h.Observe(67_000_000) // a ~67ms render
	s := h.Snapshot()
	for _, q := range []float64{0.95, 0.99} {
		if got := s.Quantile(q); got < 30e6 {
			t.Errorf("q%.2f = %.0fns, want in the slow frame's bucket (>=30ms)", q, got)
		}
	}
	if p50 := s.Quantile(0.50); p50 > 10_000 {
		t.Errorf("p50 = %.0fns, want in the fast observation's bucket", p50)
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b Histogram
	for i := 0; i < 100; i++ {
		a.Observe(1000)
		b.Observe(1000000)
	}
	sa, sb := a.Snapshot(), b.Snapshot()
	sa.Merge(&sb)
	if sa.Count != 200 {
		t.Fatalf("merged count = %d, want 200", sa.Count)
	}
	if p50 := sa.Quantile(0.5); p50 < 1000 || p50 > 1000000 {
		t.Errorf("merged p50 = %f, want between the two modes", p50)
	}
	j := sa.JSON()
	if j.Count != 200 || len(j.Buckets) != 2 {
		t.Errorf("JSON count=%d buckets=%d, want 200/2", j.Count, len(j.Buckets))
	}
}

func TestDriftHistogram(t *testing.T) {
	var d DriftHistogram
	d.ObservePair(1.1, 1.0) // +10%
	d.ObservePair(0.9, 1.0) // -10%
	d.ObservePair(1.0, 0)   // ignored: measured <= 0
	d.ObservePair(5.0, 1.0) // +400%
	s := d.Snapshot()
	if s.Count != 3 {
		t.Fatalf("count = %d, want 3", s.Count)
	}
	if me := s.MeanError(); math.Abs(me-4.0/3) > 1e-3 {
		t.Errorf("mean error = %f, want %.3f", me, 4.0/3)
	}
	if ma := s.MeanAbsError(); math.Abs(ma-4.2/3) > 1e-3 {
		t.Errorf("mean abs error = %f, want %.3f", ma, 4.2/3)
	}
	// Bounds cover the whole real line monotonically.
	prevHi := -1e18
	for i := 0; i < NumDriftBuckets; i++ {
		lo, hi := DriftBucketBounds(i)
		if lo != prevHi {
			t.Fatalf("drift bucket %d starts at %g, previous ended at %g", i, lo, prevHi)
		}
		prevHi = hi
	}
}

func TestResidualsRegistry(t *testing.T) {
	r := NewResiduals([]ResidualKey{
		{Backend: "raytrace", Term: "render"},
		{Backend: "raytrace", Term: "composite"},
	})
	r.Observe("raytrace", "render", 1.2, 1.0)
	r.Observe("volume", "render", 1.2, 1.0) // unknown key: dropped
	out := r.JSON()
	if len(out) != 1 {
		t.Fatalf("JSON series = %d, want 1", len(out))
	}
	if out[0].Backend != "raytrace" || out[0].Term != "render" || out[0].Count != 1 {
		t.Errorf("series = %+v", out[0])
	}
	var nilR *Residuals
	nilR.Observe("x", "y", 1, 1) // nil registry must be a no-op
}

func TestFrameTraceSpans(t *testing.T) {
	epoch := time.Unix(100, 0)
	var tr FrameTrace
	tr.Backend = "raytrace"
	tr.Begin(epoch)
	tr.Span(StageAdmit, epoch, 2*time.Millisecond)
	tr.Span(StageRender, epoch.Add(5*time.Millisecond), 40*time.Millisecond)
	tr.SpanNanos(StageRankRender, int64(6*time.Millisecond), int64(30*time.Millisecond))
	tr.Finish(epoch.Add(50 * time.Millisecond))

	if !tr.Has(StageAdmit) || !tr.Has(StageRender) || !tr.Has(StageRankRender) {
		t.Fatal("recorded stages not reported by Has")
	}
	if tr.Has(StageEncode) {
		t.Fatal("unrecorded stage reported present")
	}
	if d := tr.Dur(StageRender); d != 40*time.Millisecond {
		t.Errorf("render dur = %s", d)
	}
	if off := tr.StartOffset(StageRender); off != 5*time.Millisecond {
		t.Errorf("render offset = %s", off)
	}
	if tr.Wall() != 50*time.Millisecond {
		t.Errorf("wall = %s", tr.Wall())
	}
	j := tr.JSON()
	if len(j.Spans) != 3 || j.WallSeconds != 0.05 || j.Backend != "raytrace" {
		t.Errorf("JSON = %+v", j)
	}
}

func TestTracerRingAndLast(t *testing.T) {
	tr := NewTracer(2, 4) // 8 slots total
	epoch := time.Unix(0, 0)
	for i := 0; i < 20; i++ {
		var ft FrameTrace
		ft.Seq = tr.NextSeq()
		ft.Begin(epoch.Add(time.Duration(i) * time.Second))
		ft.Span(StageRender, epoch, time.Millisecond)
		ft.Finish(epoch.Add(time.Duration(i)*time.Second + time.Millisecond))
		tr.Commit(&ft)
	}
	last := tr.Last(5)
	if len(last) != 5 {
		t.Fatalf("Last(5) = %d traces", len(last))
	}
	for i := 1; i < len(last); i++ {
		if last[i].Seq <= last[i-1].Seq {
			t.Fatalf("Last not ordered by seq: %d then %d", last[i-1].Seq, last[i].Seq)
		}
	}
	if last[len(last)-1].Seq != 20 {
		t.Errorf("newest seq = %d, want 20", last[len(last)-1].Seq)
	}
	// Asking for more than retained returns what the rings hold.
	if got := len(tr.Last(1000)); got != 8 {
		t.Errorf("Last(1000) = %d, want ring capacity 8", got)
	}
	var nilTr *Tracer
	nilTr.Commit(&FrameTrace{}) // nil tracer must be a no-op
	if nilTr.Last(3) != nil {
		t.Error("nil tracer Last != nil")
	}
}

func TestChromeTraceExport(t *testing.T) {
	tr := NewTracer(1, 4)
	epoch := time.Unix(1, 0)
	var ft FrameTrace
	ft.Seq = tr.NextSeq()
	ft.Backend = "volume"
	ft.Begin(epoch)
	ft.Span(StageRender, epoch, 3*time.Millisecond)
	ft.Span(StageEncode, epoch.Add(3*time.Millisecond), time.Millisecond)
	ft.Finish(epoch.Add(4 * time.Millisecond))
	tr.Commit(&ft)

	var sb strings.Builder
	if err := WriteChromeTrace(&sb, tr.Last(10)); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{`"ph":"X"`, `"name":"render"`, `"name":"encode"`, `"backend":"volume"`} {
		if !strings.Contains(out, want) {
			t.Errorf("chrome trace missing %s in:\n%s", want, out)
		}
	}
}

func TestStageLatency(t *testing.T) {
	var l StageLatency
	epoch := time.Unix(0, 0)
	for i := 0; i < 10; i++ {
		var ft FrameTrace
		ft.Begin(epoch)
		ft.Span(StageRender, epoch, 2*time.Millisecond)
		ft.Span(StageEncode, epoch.Add(2*time.Millisecond), time.Millisecond)
		ft.Finish(epoch.Add(3 * time.Millisecond))
		l.ObserveTrace(&ft)
	}
	if got := l.Stage(StageRender).Count(); got != 10 {
		t.Errorf("render count = %d", got)
	}
	if got := l.Total().Count(); got != 10 {
		t.Errorf("total count = %d", got)
	}
	j := l.JSON()
	if len(j.Stages) != 2 || j.Total.Count != 10 {
		t.Errorf("JSON stages=%d total=%d", len(j.Stages), j.Total.Count)
	}
}

func TestValidatePromText(t *testing.T) {
	if err := ValidatePromText("good_metric{a=\"b\"} 1\n# comment\nplain 2.5\n"); err != nil {
		t.Errorf("valid exposition rejected: %v", err)
	}
	for _, bad := range []string{"", "9starts_with_digit 1\n", "name{a=b} 1\n", "name one\n"} {
		if err := ValidatePromText(bad); err == nil {
			t.Errorf("invalid exposition %q accepted", bad)
		}
	}
}

func TestWriteProm(t *testing.T) {
	type inner struct {
		Hits   int64   `json:"hits"`
		Rate   float64 `json:"rate"`
		State  string  `json:"state"`
		hidden int
	}
	type op struct {
		Backend string  `json:"backend"`
		Seconds float64 `json:"seconds"`
	}
	type Counts struct {
		Frames uint64 `json:"frames"`
	}
	type Tagged struct {
		N int64 `json:"n"`
	}
	type top struct {
		Counts
		Tagged  `json:"tagged"`
		Uptime  float64          `json:"uptime_seconds"`
		Live    bool             `json:"live"`
		Cache   inner            `json:"cache"`
		Ops     []op             `json:"ops"`
		ByRank  map[string]int64 `json:"by_rank"`
		Lat     HistogramJSON    `json:"latency_seconds"`
		Drift   []DriftJSON      `json:"model_drift"`
		Skipped *inner           `json:"skipped"`
	}
	var h Histogram
	h.Observe(1500)
	h.Observe(2500)
	var d DriftHistogram
	d.Observe(0.07)
	dsnap := d.Snapshot()
	hsnap := h.Snapshot()
	hj := hsnap.JSON()
	v := top{
		Counts: Counts{Frames: 4}, Tagged: Tagged{N: 6},
		Uptime: 12.5, Live: true,
		Cache:  inner{Hits: 3, Rate: 0.75, State: "warm", hidden: 9},
		Ops:    []op{{Backend: "raytrace", Seconds: 0.01}, {Backend: "volume", Seconds: 0.02}},
		ByRank: map[string]int64{"1": 5, "2": 7},
		Lat:    hj,
		Drift:  []DriftJSON{dsnap.JSON("raytrace", "render")},
	}
	var sb strings.Builder
	if err := WriteProm(&sb, "renderd", v); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"renderd_frames 4",
		"renderd_tagged_n 6",
		"renderd_uptime_seconds 12.5",
		"renderd_live 1",
		"renderd_cache_hits 3",
		`renderd_cache_state{value="warm"} 1`,
		`renderd_ops_seconds{backend="raytrace"} 0.01`,
		`renderd_ops_seconds{backend="volume"} 0.02`,
		`renderd_by_rank{key="1"} 5`,
		`renderd_latency_seconds_bucket{le="+Inf"} 2`,
		"renderd_latency_seconds_count 2",
		`renderd_model_drift_bucket{backend="raytrace",term="render",le="0.1"} 1`,
		`renderd_model_drift_count{backend="raytrace",term="render"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q in:\n%s", want, out)
		}
	}
	if strings.Contains(out, "skipped") {
		t.Error("nil pointer field should be skipped")
	}
	if strings.Contains(out, "hidden") {
		t.Error("unexported field should be skipped")
	}
	if strings.Contains(out, "counts") {
		t.Error("untagged embedded struct should add no name segment")
	}
	// Histogram buckets must be cumulative.
	var cum []uint64
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "renderd_latency_seconds_bucket{le=") && !strings.Contains(line, "+Inf") {
			var v uint64
			fmt.Sscanf(line[strings.LastIndex(line, " ")+1:], "%d", &v)
			cum = append(cum, v)
		}
	}
	for i := 1; i < len(cum); i++ {
		if cum[i] < cum[i-1] {
			t.Errorf("buckets not cumulative: %v", cum)
		}
	}
	if err := ValidatePromText(out); err != nil {
		t.Errorf("exposition fails validator: %v", err)
	}
}

func TestLoadCounters(t *testing.T) {
	type block struct {
		A uint64 `json:"a"`
		B int64  `json:"b"`
	}
	var live block
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				atomic.AddUint64(&live.A, 1)
				atomic.AddInt64(&live.B, -1)
				_ = LoadCounters(&live)
			}
		}()
	}
	wg.Wait()
	if got := LoadCounters(&live); got != (block{A: 4000, B: -4000}) {
		t.Errorf("LoadCounters = %+v", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("a non-counter field should panic")
		}
	}()
	LoadCounters(&struct{ S string }{})
}
