package obs

import (
	"testing"
	"time"
)

// histogramObserveStep returns one Observe into a fresh histogram, a
// different value each call.
func histogramObserveStep() func() {
	var h Histogram
	i := 0
	return func() {
		h.Observe(int64(i)*37 + 1000)
		i++
	}
}

// traceSpanStep returns a full trace lifecycle — begin, spans, finish,
// commit into the ring, fold into the stage histograms.
func traceSpanStep() func() {
	tr := NewTracer(4, 256)
	var lat StageLatency
	epoch := time.Unix(0, 0)
	return func() {
		var ft FrameTrace
		ft.Seq = tr.NextSeq()
		ft.Backend = "raytrace"
		ft.Begin(epoch)
		ft.Span(StageAdmit, epoch, 10*time.Microsecond)
		ft.Span(StageQueueWait, epoch.Add(10*time.Microsecond), 5*time.Microsecond)
		ft.Span(StageRender, epoch.Add(15*time.Microsecond), 2*time.Millisecond)
		ft.SpanNanos(StageRankRender, int64(15*time.Microsecond), int64(1500*time.Microsecond))
		ft.Span(StageEncode, epoch.Add(2015*time.Microsecond), 100*time.Microsecond)
		ft.Finish(epoch.Add(2200 * time.Microsecond))
		tr.Commit(&ft)
		lat.ObserveTrace(&ft)
	}
}

// driftObserveStep returns one residual observation.
func driftObserveStep() func() {
	r := NewResiduals([]ResidualKey{{Backend: "raytrace", Term: "render"}})
	return func() { r.Observe("raytrace", "render", 1.05, 1.0) }
}

// The three benchmarks below run on every frame's hot path and must
// stay 0 allocs/op; TestZeroAlloc asserts that over the same steps.

func BenchmarkHistogramObserve(b *testing.B) { benchStep(b, histogramObserveStep()) }

func BenchmarkTraceSpan(b *testing.B) { benchStep(b, traceSpanStep()) }

func BenchmarkDriftObserve(b *testing.B) { benchStep(b, driftObserveStep()) }

func benchStep(b *testing.B, step func()) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// TestZeroAlloc pins the three hot-path benchmarks' steps at 0
// allocs/op. 20 runs truncate a one-off allocation to 0; one allocation
// per call fails.
func TestZeroAlloc(t *testing.T) {
	for name, step := range map[string]func(){
		"HistogramObserve": histogramObserveStep(),
		"TraceSpan":        traceSpanStep(),
		"DriftObserve":     driftObserveStep(),
	} {
		t.Run(name, func(t *testing.T) {
			if n := testing.AllocsPerRun(20, step); n != 0 {
				t.Errorf("%.0f allocs/op, want 0", n)
			}
		})
	}
}
