// Package baseline implements the comparator renderers of the paper's
// studies. The proprietary systems (Intel Embree, NVIDIA OptiX Prime) are
// simulated by architecture-tuned tracers that shed the data-parallel
// abstraction — fused traversal loops, SAH trees, packetized scheduling —
// so the "gap" experiments (Tables 3-5) measure the same thing the paper
// measures: hardware-agnostic DPP code against specialized code on the
// same machine. The community volume renderers (Bunyk-style connectivity
// ray casting, HAVS-style sort+blend, VisIt-style sampling) back the
// Chapter III comparisons (Figures 6-7, Table 9).
package baseline

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"insitu/internal/bvh"
	"insitu/internal/device"
	"insitu/internal/mesh"
	"insitu/internal/render"
)

// TraceResult reports a Workload-1 style intersection benchmark.
type TraceResult struct {
	Elapsed time.Duration
	Rays    int
	Hits    int
}

// MRaysPerSec returns the headline rate.
func (r TraceResult) MRaysPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Rays) / r.Elapsed.Seconds() / 1e6
}

// FastRT is the Embree analogue: a CPU-tuned single-ray tracer over a
// binned-SAH BVH with a fused traversal loop (no per-primitive callbacks,
// no primitive-id indirection beyond the leaf list) and static row
// chunking per worker.
type FastRT struct {
	bvh     *bvh.BVH
	workers int
}

// NewFastRT builds the tuned tracer. Construction (SAH) is slower than
// the DPP tracer's LBVH — exactly the trade the vendors make.
func NewFastRT(m *mesh.TriangleMesh, workers int) *FastRT {
	d := device.New("fastrt", workers)
	return &FastRT{bvh: bvh.Build(d, m, bvh.SAH), workers: workers}
}

// BuildTime returns the acceleration construction time.
func (f *FastRT) BuildTime() time.Duration { return f.bvh.BuildTime }

// Trace intersects one primary ray per pixel and returns the rate.
func (f *FastRT) Trace(cam render.Camera, w, h int) TraceResult {
	start := time.Now()
	var hits int64
	var wg sync.WaitGroup
	rows := (h + f.workers - 1) / f.workers
	for wk := 0; wk < f.workers; wk++ {
		y0 := wk * rows
		y1 := min(y0+rows, h)
		if y0 >= y1 {
			continue
		}
		wg.Add(1)
		go func(y0, y1 int) {
			defer wg.Done()
			local := 0
			for y := y0; y < y1; y++ {
				for x := 0; x < w; x++ {
					ray := cam.Ray(float64(x), float64(y), 0.5, 0.5, w, h)
					if hit, _, _ := f.bvh.IntersectClosest(ray.Orig, ray.Dir, 1e-9, math.Inf(1)); hit.Prim >= 0 {
						local++
					}
				}
			}
			atomic.AddInt64(&hits, int64(local))
		}(y0, y1)
	}
	wg.Wait()
	return TraceResult{Elapsed: time.Since(start), Rays: w * h, Hits: int(hits)}
}

// QueueRT is the OptiX Prime analogue: persistent workers pull fixed-size
// tiles from a shared queue (the GPU's persistent-threads scheduling) and
// trace each tile's 2x2 pixel quads as four-ray packets through an SAH
// tree (bvh.IntersectClosest4).
type QueueRT struct {
	bvh     *bvh.BVH
	workers int
}

// NewQueueRT builds the queue-scheduled tracer.
func NewQueueRT(m *mesh.TriangleMesh, workers int) *QueueRT {
	d := device.New("queuert", workers)
	return &QueueRT{bvh: bvh.Build(d, m, bvh.SAH), workers: workers}
}

// BuildTime returns the acceleration construction time.
func (q *QueueRT) BuildTime() time.Duration { return q.bvh.BuildTime }

// Trace intersects one primary ray per pixel using tile-queue scheduling
// and packet traversal.
func (q *QueueRT) Trace(cam render.Camera, w, h int) TraceResult {
	const tile = 8 // 8x8 pixel tiles, traced as 16 quads of 2x2 rays
	start := time.Now()
	tilesX := (w + tile - 1) / tile
	tilesY := (h + tile - 1) / tile
	total := tilesX * tilesY
	var next int64
	var hits int64
	var wg sync.WaitGroup
	for wk := 0; wk < q.workers; wk++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var tr bvh.Tracer
			local := 0
			for {
				t := int(atomic.AddInt64(&next, 1)) - 1
				if t >= total {
					break
				}
				tx := (t % tilesX) * tile
				ty := (t / tilesX) * tile
				for y := ty; y < min(ty+tile, h); y += 2 {
					for x := tx; x < min(tx+tile, w); x += 2 {
						n := 0
						for _, p := range [4][2]int{{x, y}, {x + 1, y}, {x, y + 1}, {x + 1, y + 1}} {
							if p[0] < w && p[1] < h {
								r := cam.Ray(float64(p[0]), float64(p[1]), 0.5, 0.5, w, h)
								tr.SetRay(n, r.Orig, r.Dir)
								n++
							}
						}
						q.bvh.IntersectClosest4(&tr, n, 1e-9, math.Inf(1))
						for k := 0; k < n; k++ {
							if tr.Hit[k].Prim >= 0 {
								local++
							}
						}
					}
				}
			}
			atomic.AddInt64(&hits, int64(local))
		}()
	}
	wg.Wait()
	return TraceResult{Elapsed: time.Since(start), Rays: w * h, Hits: int(hits)}
}
