package cluster

import (
	"context"
	"fmt"
	"testing"

	"insitu/internal/core"
)

// BenchmarkClusterThroughput measures steady-state sharded frames/s
// through the full router path — placement, dispatch, collective
// render, binary-swap composite, result transfer — with hot scene and
// runner caches, plus the wire cost per composited frame.
func BenchmarkClusterThroughput(b *testing.B) {
	for _, shards := range []int{2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			cl := testCluster(b, 4)
			job := Job{
				Backend: string(core.Volume), Sim: "kripke", Arch: "serial",
				N: 12, Width: 128, Height: 128, Shards: shards, Azimuth: 30, Zoom: 1,
			}
			ctx := context.Background()
			if _, err := cl.Render(ctx, job); err != nil {
				b.Fatal(err)
			}
			startBytes := cl.Stats().BytesSent
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cl.Render(ctx, job); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "frames/s")
			b.ReportMetric(float64(cl.Stats().BytesSent-startBytes)/float64(b.N), "wire-B/frame")
		})
	}
}
