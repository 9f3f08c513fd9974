package advisor

import (
	"fmt"
	"testing"
)

// BenchmarkAdvisorPredict measures prediction throughput over a registry
// holding every paper architecture: one repeated configuration, a
// rotating working set larger than a single request, batches, and
// parallel callers.
func BenchmarkAdvisorPredict(b *testing.B) {
	b.ReportAllocs()
	renderers := []string{"raytracer", "rasterizer", "volume"}
	mkReqs := func(n int) []PredictRequest {
		reqs := make([]PredictRequest, n)
		for i := range reqs {
			reqs[i] = PredictRequest{
				Arch:     paperArchs[i%len(paperArchs)],
				Renderer: renderers[i%len(renderers)],
				N:        16 + 8*(i%10),
				Tasks:    1 << (i % 6),
				Width:    256 + 128*(i%8),
			}
		}
		return reqs
	}

	b.Run("single/hot", func(b *testing.B) {
		e, _, _ := testEngine(b, paperArchs)
		req := mkReqs(1)[0]
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := e.Predict(req); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("single/rotating", func(b *testing.B) {
		e, _, _ := testEngine(b, paperArchs)
		reqs := mkReqs(240)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := e.Predict(reqs[i%len(reqs)]); err != nil {
				b.Fatal(err)
			}
		}
	})

	for _, size := range []int{16, 128} {
		b.Run(fmt.Sprintf("batch/%d", size), func(b *testing.B) {
			e, _, _ := testEngine(b, paperArchs)
			reqs := mkReqs(size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				items := e.PredictBatch(reqs)
				for _, it := range items {
					if it.Error != "" {
						b.Fatal(it.Error)
					}
				}
			}
		})
	}

	b.Run("parallel", func(b *testing.B) {
		e, _, _ := testEngine(b, paperArchs)
		reqs := mkReqs(240)
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				if _, err := e.Predict(reqs[i%len(reqs)]); err != nil {
					// Fatal would Goexit a worker goroutine, which the
					// testing package forbids inside RunParallel.
					b.Error(err)
					return
				}
				i++
			}
		})
	})
}
