package serve

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"insitu/internal/advisor"
	"insitu/internal/core"
)

// benchServer builds a serving stack that does not log.
func benchServer(tb testing.TB) *Server {
	tb.Helper()
	s := New(advisor.New(testRegistry(tb)), Config{Arch: "serial", Logf: func(string, ...any) {}})
	tb.Cleanup(s.Close)
	return s
}

// frameCacheHitStep renders one frame into s's cache and returns the
// steady-state step that serves it again: admission memo + frame cache
// hit, end to end through Server.Render.
func frameCacheHitStep(tb testing.TB, s *Server) func() {
	tb.Helper()
	req := FrameRequest{Backend: core.RayTrace, Sim: "kripke", N: 8, Width: 64, DeadlineMillis: 1000}
	if _, err := s.Render(req); err != nil {
		tb.Fatal(err)
	}
	return func() {
		res, err := s.Render(req)
		if err != nil {
			tb.Fatal(err)
		}
		if !res.CacheHit {
			tb.Fatal("steady state missed the cache")
		}
	}
}

// BenchmarkRenderdFrameCacheHit is the acceptance benchmark for the
// steady-state frame path (frameCacheHitStep). It must report 0
// allocs/op — the render path's zero-allocation discipline surviving
// the serving layer, also asserted by TestHitPathsAllocateNothing — and
// the frames/s metric shows the cache-hit ceiling (far beyond the 100
// frames/s bar for small frames).
func BenchmarkRenderdFrameCacheHit(b *testing.B) {
	step := frameCacheHitStep(b, benchServer(b))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "frames/s")
}

// BenchmarkRenderdFrameRender measures sustained small-frame render
// throughput with the frame cache disabled (a negative capacity
// disables the LRU), so every Render schedules a real frame on the
// warm cached runner — the render-farm steady state.
func BenchmarkRenderdFrameRender(b *testing.B) {
	s := New(advisor.New(testRegistry(b)), Config{
		Arch: "serial", FrameCacheEntries: -1, Logf: func(string, ...any) {},
	})
	b.Cleanup(s.Close)
	req := FrameRequest{Backend: core.RayTrace, Sim: "kripke", N: 8, Width: 64}
	if _, err := s.Render(req); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := s.Render(req)
		if err != nil {
			b.Fatal(err)
		}
		if res.CacheHit {
			b.Fatal("cache-disabled server served a hit")
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "frames/s")
}

// BenchmarkRenderdThroughput is the mixed-traffic figure for
// BENCH_5.json: a request mix over several backends, sizes, and
// cameras, mostly cache hits with a steady miss rate, measured end to
// end through the serving path.
func BenchmarkRenderdThroughput(b *testing.B) {
	s := benchServer(b)
	var reqs []FrameRequest
	for i := 0; i < 16; i++ {
		backend := core.RayTrace
		if i%2 == 1 {
			backend = core.Volume
		}
		reqs = append(reqs, FrameRequest{
			Backend: backend, Sim: "kripke",
			N: 8 + 2*(i%2), Width: 48 + 16*(i%2),
			Azimuth:        float64(30 * (i % 4)),
			DeadlineMillis: 1000,
		})
	}
	for _, req := range reqs {
		if _, err := s.Render(req); err != nil {
			b.Fatal(fmt.Errorf("warming %+v: %w", req, err))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Render(reqs[i%len(reqs)]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "frames/s")
}

// sessionPrefetchHitStep opens an orbiting session on s, warms one full
// lap of its orbit into the cache, and returns the steady-state step:
// the next orbit frame through Session.Frame (pose record, path
// prediction, verified-window probe, cache hit), reporting whether it
// was a prefetch hit.
func sessionPrefetchHitStep(tb testing.TB, s *Server) func() bool {
	tb.Helper()
	sess, err := s.OpenSession(FrameRequest{
		Backend: core.RayTrace, Sim: "kripke", N: 8, Width: 64, DeadlineMillis: 1000,
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(sess.Close)
	// Warm: one full 24-angle lap renders (or speculates) every orbit
	// frame into the cache; wait out in-flight speculation after each
	// step so the steady state starts quiet.
	const step = 15.0
	az := 0.0
	next := func() (FrameResult, error) {
		az += step
		if az >= 360 {
			az -= 360
		}
		return sess.Frame(az, 1)
	}
	for i := 0; i < 26; i++ {
		if _, err := next(); err != nil {
			tb.Fatal(err)
		}
		for sess.inflight.Load() > 0 || s.sched.bgDepth() > 0 {
			time.Sleep(100 * time.Microsecond)
		}
	}
	return func() bool {
		res, err := next()
		if err != nil {
			tb.Fatal(err)
		}
		if !res.CacheHit {
			tb.Fatal("steady-state session frame missed the cache")
		}
		return res.PrefetchHit
	}
}

// BenchmarkRenderdSessionPrefetchHit is the acceptance benchmark for
// the session hot path (sessionPrefetchHitStep): an orbiting session in
// steady state, every predicted frame already cached. It must report 0
// allocs/op (also asserted by TestHitPathsAllocateNothing), and its
// ns/op is required to stay within 2x of BenchmarkRenderdFrameCacheHit
// — the session layer may not double the cost of the frame it
// collapses to.
func BenchmarkRenderdSessionPrefetchHit(b *testing.B) {
	step := sessionPrefetchHitStep(b, benchServer(b))
	b.ReportAllocs()
	b.ResetTimer()
	hits := 0
	for i := 0; i < b.N; i++ {
		if step() {
			hits++
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "frames/s")
	b.ReportMetric(100*float64(hits)/float64(b.N), "prefetch-hit-%")
}

// TestHitPathsAllocateNothing asserts in the ordinary test run what
// the two acceptance benchmarks above measure: a frame cache hit and a
// steady-state session prefetch hit allocate nothing.
func TestHitPathsAllocateNothing(t *testing.T) {
	s := benchServer(t)
	if n := testing.AllocsPerRun(50, frameCacheHitStep(t, s)); n != 0 {
		t.Errorf("frame cache hit allocates %.1f times per frame, want 0", n)
	}
	sessionHit := sessionPrefetchHitStep(t, s)
	if n := testing.AllocsPerRun(50, func() { sessionHit() }); n != 0 {
		t.Errorf("session prefetch hit allocates %.1f times per frame, want 0", n)
	}
}

// benchOrbitTTP drives one orbiting session with think time between
// frames — the interactive workload — against a frame cache smaller
// than the orbit (8 entries vs 24 angles), so without prefetch every
// revisited angle has been evicted and must re-render, while prefetch
// keeps renders 1-3 frames ahead of the client. Reports the
// time-to-photon distribution.
func benchOrbitTTP(b *testing.B, depth int) (lats []time.Duration, prefetchHits int) {
	b.Helper()
	s := New(advisor.New(testRegistry(b)), Config{
		Arch: "serial", Workers: 2,
		FrameCacheEntries: 8,
		PrefetchDepth:     depth,
		Logf:              func(string, ...any) {},
	})
	b.Cleanup(s.Close)
	sess, err := s.OpenSession(FrameRequest{
		Backend: core.RayTrace, Sim: "kripke", N: 8, Width: 64, DeadlineMillis: 1000,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer sess.Close()
	const step, think = 15.0, 10 * time.Millisecond
	az := 0.0
	lats = make([]time.Duration, 0, b.N)
	for i := 0; i < b.N; i++ {
		az += step
		if az >= 360 {
			az -= 360
		}
		start := time.Now()
		res, err := sess.Frame(az, 1)
		if err != nil {
			b.Fatal(err)
		}
		lats = append(lats, time.Since(start))
		if res.PrefetchHit {
			prefetchHits++
		}
		time.Sleep(think) // client think time: the headroom speculation renders into
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	return lats, prefetchHits
}

func reportTTP(b *testing.B, lats []time.Duration, prefetchHits int) {
	b.Helper()
	if len(lats) == 0 {
		return
	}
	pct := func(p float64) float64 {
		return float64(lats[int(p*float64(len(lats)-1))].Nanoseconds())
	}
	b.ReportMetric(pct(0.50), "p50-ttp-ns")
	b.ReportMetric(pct(0.99), "p99-ttp-ns")
	b.ReportMetric(100*float64(prefetchHits)/float64(len(lats)), "prefetch-hit-%")
}

// BenchmarkRenderdSessionOrbitPrefetch and ...OrbitNoPrefetch are the
// PR 8 contrast pair: the same orbiting interactive client with
// speculation on vs off. ns/op includes the client's think time
// (identical in both) — the figure of merit is p99-ttp-ns, which must
// be at least 5x lower with prefetch: correct predictions collapse the
// tail from a full render to a cache hit.
func BenchmarkRenderdSessionOrbitPrefetch(b *testing.B) {
	lats, hits := benchOrbitTTP(b, 3)
	reportTTP(b, lats, hits)
}

func BenchmarkRenderdSessionOrbitNoPrefetch(b *testing.B) {
	lats, hits := benchOrbitTTP(b, -1)
	reportTTP(b, lats, hits)
}
