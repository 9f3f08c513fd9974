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
	return cacheHitStep(tb, s, FrameRequest{Backend: core.RayTrace, Sim: "kripke", N: 8, Width: 64, DeadlineMillis: 1000})
}

// shardedCacheHitStep is frameCacheHitStep for a two-shard frame on a
// two-worker fleet: the hit also checks the shard count against the
// fleet's live workers.
func shardedCacheHitStep(tb testing.TB) func() {
	s, _, _ := clusterServer(tb, 2, Config{Logf: func(string, ...any) {}})
	return cacheHitStep(tb, s, FrameRequest{Backend: core.RayTrace, Sim: "kripke", N: 8, Width: 64, Shards: 2, DeadlineMillis: 1000})
}

// cacheHitStep renders req once into s's cache and returns the step
// that serves it again.
func cacheHitStep(tb testing.TB, s *Server, req FrameRequest) func() {
	tb.Helper()
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
// the serving layer, asserted by TestZeroAlloc — and the frames/s
// metric shows the cache-hit ceiling (far beyond the 100 frames/s bar
// for small frames).
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

// throughputStep warms s with a request mix over several backends,
// sizes and cameras and returns the steady-state step: the next request
// of the mix, end to end through the serving path.
func throughputStep(tb testing.TB, s *Server) func() {
	tb.Helper()
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
			tb.Fatal(fmt.Errorf("warming %+v: %w", req, err))
		}
	}
	i := 0
	return func() {
		if _, err := s.Render(reqs[i%len(reqs)]); err != nil {
			tb.Fatal(err)
		}
		i++
	}
}

// BenchmarkRenderdThroughput is the mixed-traffic figure
// (throughputStep), measured end to end through the serving path.
func BenchmarkRenderdThroughput(b *testing.B) {
	step := throughputStep(b, benchServer(b))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "frames/s")
}

// sessionPrefetchHitStep opens an orbiting session on s, warms one full
// lap of its orbit into the cache, and returns the steady-state step:
// the next orbit frame through Session.Frame (the served frame's cache
// hit, then the next pose's prediction and cache probe), reporting
// whether it was a prefetch hit.
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
// allocs/op (also asserted by TestZeroAlloc), and its
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

// TestZeroAlloc asserts in the ordinary test run what the three
// zero-allocation benchmarks above measure, over the same steps: a frame
// cache hit, a steady-state session prefetch hit and the warm request
// mix allocate nothing, and neither does a sharded frame's cache hit.
// 20 runs truncate a one-off allocation to 0; one allocation per frame
// fails.
func TestZeroAlloc(t *testing.T) {
	for _, c := range []struct {
		name string
		step func(testing.TB) func()
	}{
		{"RenderdFrameCacheHit", func(tb testing.TB) func() { return frameCacheHitStep(tb, benchServer(tb)) }},
		{"RenderdSessionPrefetchHit", func(tb testing.TB) func() {
			step := sessionPrefetchHitStep(tb, benchServer(tb))
			return func() { step() }
		}},
		{"RenderdThroughput", func(tb testing.TB) func() { return throughputStep(tb, benchServer(tb)) }},
		{"RenderdShardedCacheHit", shardedCacheHitStep},
	} {
		t.Run(c.name, func(t *testing.T) {
			if n := testing.AllocsPerRun(20, c.step(t)); n != 0 {
				t.Errorf("%.0f allocs/op, want 0", n)
			}
		})
	}
}

// benchOrbitTTP drives one orbiting client with think time between
// frames — the interactive workload — against a frame cache smaller
// than the orbit (8 entries vs 24 angles), so every revisited angle has
// been evicted. With session set the client orbits through a Session,
// whose prefetch keeps the next frame rendered ahead of it; otherwise it
// sends the same poses through Server.Render, which re-renders each one.
// Reports the time-to-photon distribution.
func benchOrbitTTP(b *testing.B, session bool) (lats []time.Duration, prefetchHits int) {
	b.Helper()
	s := New(advisor.New(testRegistry(b)), Config{
		Arch: "serial", Workers: 2,
		FrameCacheEntries: 8,
		Logf:              func(string, ...any) {},
	})
	b.Cleanup(s.Close)
	req := FrameRequest{Backend: core.RayTrace, Sim: "kripke", N: 8, Width: 64, DeadlineMillis: 1000}
	frame := func(az float64) (FrameResult, error) {
		req.Azimuth = az
		return s.Render(req)
	}
	if session {
		sess, err := s.OpenSession(req)
		if err != nil {
			b.Fatal(err)
		}
		defer sess.Close()
		frame = func(az float64) (FrameResult, error) { return sess.Frame(az, 1) }
	}
	const step, think = 15.0, 10 * time.Millisecond
	az := 0.0
	lats = make([]time.Duration, 0, b.N)
	for i := 0; i < b.N; i++ {
		az += step
		if az >= 360 {
			az -= 360
		}
		start := time.Now()
		res, err := frame(az)
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
// prefetch contrast pair: the same orbiting client with the same think
// time, through a Session vs through Server.Render. ns/op includes the
// think time (identical in both) — the figure of merit is p99-ttp-ns,
// which must be at least 5x lower through the session: correct
// predictions collapse the tail from a full render to a cache hit. Run
// them with enough frames for percentiles (make bench uses 100x); at 1x
// both report the first frame, a miss.
func BenchmarkRenderdSessionOrbitPrefetch(b *testing.B) {
	lats, hits := benchOrbitTTP(b, true)
	reportTTP(b, lats, hits)
}

func BenchmarkRenderdSessionOrbitNoPrefetch(b *testing.B) {
	lats, hits := benchOrbitTTP(b, false)
	reportTTP(b, lats, hits)
}
