package serve

import (
	"errors"
	"sync"
	"testing"
	"time"

	"insitu/internal/core"
)

// --- predictor ---

// TestOrbitPredictorConstantVelocity: a steady orbit extrapolates at
// the observed angular velocity.
func TestOrbitPredictorConstantVelocity(t *testing.T) {
	got, ok := nextPose(Pose{Azimuth: 0, Zoom: 1}, Pose{Azimuth: 15, Zoom: 1})
	if !ok || got != (Pose{Azimuth: 30, Zoom: 1}) {
		t.Errorf("nextPose = %+v, %v, want azimuth 30 zoom 1", got, ok)
	}
}

// TestOrbitPredictorWrapsAround: predictions cross the 360° seam into
// [0, 360), matching the wrapped azimuths orbiting clients request (and
// therefore the frame keys they will hit).
func TestOrbitPredictorWrapsAround(t *testing.T) {
	if got, ok := nextPose(Pose{Azimuth: 330, Zoom: 1}, Pose{Azimuth: 345, Zoom: 1}); !ok || got.Azimuth != 0 {
		t.Errorf("345 after 330: got %+v, %v, want azimuth 0", got, ok)
	}
	// And the velocity itself is modular: 350 -> 5 is +15, not -345.
	if got, ok := nextPose(Pose{Azimuth: 350, Zoom: 1}, Pose{Azimuth: 5, Zoom: 1}); !ok || got.Azimuth != 20 {
		t.Errorf("wrap velocity: got %+v, %v, want azimuth 20", got, ok)
	}
}

// TestOrbitPredictorRefusesToGuess: no previous pose and a parked
// camera predict nothing, and neither does a step that would take zoom
// out of (0, maxZoom].
func TestOrbitPredictorRefusesToGuess(t *testing.T) {
	for _, c := range []struct {
		name       string
		prev, last Pose
	}{
		{"no previous pose", Pose{}, Pose{Azimuth: 10, Zoom: 1}},
		{"parked camera", Pose{Azimuth: 90, Zoom: 2}, Pose{Azimuth: 90, Zoom: 2}},
		{"zoom about to cross 0", Pose{Azimuth: 0, Zoom: 0.8}, Pose{Azimuth: 10, Zoom: 0.3}},
		{"zoom about to pass maxZoom", Pose{Azimuth: 0, Zoom: maxZoom - 2}, Pose{Azimuth: 10, Zoom: maxZoom - 0.5}},
	} {
		if got, ok := nextPose(c.prev, c.last); ok {
			t.Errorf("%s: predicted %+v, want nothing", c.name, got)
		}
	}
}

// --- sessions ---

func sessionRequest() FrameRequest {
	return FrameRequest{Backend: core.RayTrace, Sim: "kripke", N: 8, Width: 64}
}

// waitForPrefetch polls until the server has rendered (or shed) all
// speculation it scheduled, so subsequent frames see a quiet cache.
func waitForPrefetch(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		st := s.Stats()
		if st.PrefetchScheduled == st.PrefetchRendered+st.PrefetchStale+st.PrefetchShed+st.PrefetchErrors &&
			st.PrefetchQueueDepth == 0 {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("prefetch never drained: %+v", s.Stats())
}

// TestSessionOrbitPrefetchHits: an orbiting session's steady camera
// velocity is predicted, the next frames are speculatively rendered,
// and subsequent frames arrive as prefetch hits.
func TestSessionOrbitPrefetchHits(t *testing.T) {
	s := testServer(t, Config{Workers: 2})
	sess, err := s.OpenSession(sessionRequest())
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	var hits int
	for i := 1; i <= 10; i++ {
		res, err := sess.Frame(float64(15*i), 1)
		if err != nil {
			t.Fatal(err)
		}
		if res.PrefetchHit {
			hits++
		}
		waitForPrefetch(t, s)
	}
	if hits == 0 {
		t.Fatalf("no prefetch hits over a constant-velocity orbit; stats %+v", s.Stats())
	}
	if info := sess.Info(); info.PrefetchHits != uint64(hits) || info.Frames != 10 {
		t.Errorf("session counted %d frames and %d prefetch hits, want 10 and %d", info.Frames, info.PrefetchHits, hits)
	}
	st := s.Stats()
	if st.PrefetchHits != uint64(hits) || st.PrefetchRendered == 0 {
		t.Errorf("server stats disagree: %+v", st)
	}
	if st.SessionFrames != 10 || st.SessionsOpened != 1 {
		t.Errorf("session accounting: %+v", st)
	}
}

// TestSessionReverseDirection: the predictor follows a direction
// change (negative angular velocity) instead of prefetching the old
// heading forever.
func TestSessionReverseDirection(t *testing.T) {
	s := testServer(t, Config{Workers: 2})
	sess, err := s.OpenSession(sessionRequest())
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	// Two frames heading backwards from 0: 345, 330, ...
	var hits int
	for i := 1; i <= 8; i++ {
		az := 360 - float64(15*i)
		res, err := sess.Frame(az, 1)
		if err != nil {
			t.Fatal(err)
		}
		if res.PrefetchHit {
			hits++
		}
		waitForPrefetch(t, s)
	}
	if hits == 0 {
		t.Fatalf("no prefetch hits on a reverse orbit; stats %+v", s.Stats())
	}
}

// TestSessionLifecycle: open registers, close unregisters, frames after
// close are refused, and lookup round-trips the token.
func TestSessionLifecycle(t *testing.T) {
	s := testServer(t, Config{})
	sess, err := s.OpenSession(sessionRequest())
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := s.LookupSession(sess.Token()); !ok || got != sess {
		t.Fatalf("LookupSession(%q) = %v, %v", sess.Token(), got, ok)
	}
	if s.SessionsOpen() != 1 {
		t.Fatalf("SessionsOpen = %d, want 1", s.SessionsOpen())
	}
	sess.Close()
	sess.Close() // idempotent
	if s.SessionsOpen() != 0 {
		t.Errorf("SessionsOpen after close = %d, want 0", s.SessionsOpen())
	}
	if _, ok := s.LookupSession(sess.Token()); ok {
		t.Error("closed session still resolvable")
	}
	if _, err := sess.Frame(10, 1); !errors.Is(err, ErrSessionClosed) {
		t.Errorf("Frame after close: %v, want ErrSessionClosed", err)
	}
	if st := s.Stats(); st.SessionsOpened != 1 || st.SessionsClosed != 1 {
		t.Errorf("session counters: %+v", st)
	}
}

// TestSessionFrameKeepsPreviousZoom: a frame with zoom <= 0 keeps the
// zoom of the previous frame, not the opening one, so it is the same
// frame as the previous one and hits the cache.
func TestSessionFrameKeepsPreviousZoom(t *testing.T) {
	s := testServer(t, Config{})
	sess, err := s.OpenSession(sessionRequest())
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if _, err := sess.Frame(30, 2); err != nil {
		t.Fatal(err)
	}
	res, err := sess.Frame(30, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.CacheHit {
		t.Error("Frame(30, 0) after Frame(30, 2) missed the cache")
	}
	if got := sess.LastPose(); got != (Pose{Azimuth: 30, Zoom: 2}) {
		t.Errorf("LastPose = %+v, want azimuth 30 zoom 2", got)
	}
}

// TestSessionCapReapsIdle: at MaxSessions, opening reaps sessions idle
// past the timeout; with nothing idle it refuses with
// ErrTooManySessions.
func TestSessionCapReapsIdle(t *testing.T) {
	s := testServer(t, Config{MaxSessions: 1, SessionIdleTimeout: time.Minute})
	first, err := s.OpenSession(sessionRequest())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.OpenSession(sessionRequest()); !errors.Is(err, ErrTooManySessions) {
		t.Fatalf("over-cap open: %v, want ErrTooManySessions", err)
	}
	// Backdate the first session past the idle timeout; the next open
	// reaps it.
	first.lastUsed.Store(time.Now().Add(-2 * time.Minute).UnixNano())
	second, err := s.OpenSession(sessionRequest())
	if err != nil {
		t.Fatalf("open after idle reap: %v", err)
	}
	defer second.Close()
	if _, err := first.Frame(10, 1); !errors.Is(err, ErrSessionClosed) {
		t.Errorf("reaped session Frame: %v, want ErrSessionClosed", err)
	}
}

// TestSessionServerCloseDrains: Server.Close ends every session;
// opening afterwards is refused.
func TestSessionServerCloseDrains(t *testing.T) {
	s := testServer(t, Config{})
	sess, err := s.OpenSession(sessionRequest())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Frame(15, 1); err != nil {
		t.Fatal(err)
	}
	s.Close() // Cleanup re-Close is harmless
	if _, err := sess.Frame(30, 1); !errors.Is(err, ErrSessionClosed) {
		t.Errorf("Frame after server close: %v, want ErrSessionClosed", err)
	}
	if _, err := s.OpenSession(sessionRequest()); !errors.Is(err, ErrClosed) {
		t.Errorf("open after server close: %v, want ErrClosed", err)
	}
}

// TestSessionFairnessSharedRunnerCache: many concurrent sessions with
// distinct scene configurations share a runner cache smaller than the
// session population. The sessions' scenes evict each other, and every
// session's frames still complete.
func TestSessionFairnessSharedRunnerCache(t *testing.T) {
	const sessions = 6
	s := testServer(t, Config{
		Workers:            2,
		RunnerCacheEntries: 2, // far fewer warm runners than sessions
	})
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for c := 0; c < sessions; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			req := sessionRequest()
			req.N = 8 + 2*(c%3) // three distinct runner keys
			req.Azimuth = float64(10 * c)
			sess, err := s.OpenSession(req)
			if err != nil {
				errs <- err
				return
			}
			defer sess.Close()
			for i := 1; i <= 6; i++ {
				if _, err := sess.Frame(req.Azimuth+float64(15*i), 1); err != nil {
					errs <- err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("session starved or failed: %v", err)
	}
	st := s.Stats()
	if st.SessionFrames != sessions*6 {
		t.Errorf("served %d session frames, want %d", st.SessionFrames, sessions*6)
	}
	if st.RunnerCache.Live > sessions {
		t.Errorf("runner cache grew past the session population: %+v", st.RunnerCache)
	}
	if st.RunnerCache.Evicted == 0 {
		t.Errorf("three scene keys through a cache of two evicted nothing: %+v", st.RunnerCache)
	}
}

// --- scheduler priority isolation ---

// TestSchedulerBackgroundNeverDelaysForeground: with a worker busy and
// a foreground job queued, background submission is refused
// (errNoHeadroom), and a background job queued while idle is passed
// over the moment foreground work arrives.
func TestSchedulerBackgroundNeverDelaysForeground(t *testing.T) {
	sched := newScheduler(1, 16, 16)
	defer sched.close()
	block := make(chan struct{})
	started := make(chan struct{})
	if err := sched.submit(time.Time{}, 0, func(*workerState) { close(started); <-block }); err != nil {
		t.Fatal(err)
	}
	<-started
	// Busy worker: no idle headroom for speculation.
	if err := sched.submitBackground(func(*workerState) {}, nil); !errors.Is(err, errNoHeadroom) {
		t.Fatalf("background into a busy pool: %v, want errNoHeadroom", err)
	}
	// Queue a foreground job; speculation is still refused.
	ran := make(chan string, 8)
	if err := sched.submit(time.Time{}, 0, func(*workerState) { ran <- "fg" }); err != nil {
		t.Fatal(err)
	}
	if err := sched.submitBackground(func(*workerState) { ran <- "bg" }, nil); !errors.Is(err, errNoHeadroom) {
		t.Fatalf("background behind queued foreground: %v, want errNoHeadroom", err)
	}
	close(block)
	if got := <-ran; got != "fg" {
		t.Fatalf("first completion %q, want fg", got)
	}
}

// TestSchedulerForegroundOvertakesQueuedBackground: a background job
// admitted while idle does not run ahead of foreground work that
// arrives before a worker picks it up.
func TestSchedulerForegroundOvertakesQueuedBackground(t *testing.T) {
	sched := newScheduler(1, 16, 16)
	defer sched.close()
	block := make(chan struct{})
	started := make(chan struct{})
	ran := make(chan string, 8)
	// Occupy the worker with a background job (admitted while idle).
	if err := sched.submitBackground(func(*workerState) { close(started); <-block }, nil); err != nil {
		t.Fatal(err)
	}
	<-started
	// While it runs, one foreground job and — impossible now — another
	// background attempt.
	if err := sched.submit(time.Time{}, 0, func(*workerState) { ran <- "fg" }); err != nil {
		t.Fatal(err)
	}
	if err := sched.submitBackground(func(*workerState) { ran <- "bg" }, nil); !errors.Is(err, errNoHeadroom) {
		t.Fatalf("background while background runs: %v, want errNoHeadroom", err)
	}
	close(block)
	if got := <-ran; got != "fg" {
		t.Fatalf("after background completes, %q ran first, want fg", got)
	}
}

// TestSchedulerShedsOldestBackground: background queue overflow sheds
// the oldest prediction (its cancel hook runs) and close sheds the
// rest.
func TestSchedulerShedsOldestBackground(t *testing.T) {
	sched := newScheduler(2, 4, 2)
	// Fill both workers so queued background stays queued.
	block := make(chan struct{})
	var startedWG sync.WaitGroup
	startedWG.Add(2)
	for i := 0; i < 2; i++ {
		if err := sched.submit(time.Time{}, 0, func(*workerState) { startedWG.Done(); <-block }); err != nil {
			t.Fatal(err)
		}
	}
	startedWG.Wait()
	// Workers are busy with foreground, so background is refused — this
	// test drives the queue path directly through the internals instead.
	canceled := make(chan int, 4)
	sched.mu.Lock()
	for i := 0; i < 3; i++ {
		i := i
		if len(sched.bg) >= sched.bgCap {
			shed := sched.bg[0]
			copy(sched.bg, sched.bg[1:])
			sched.bg = sched.bg[:len(sched.bg)-1]
			shed.cancel()
		}
		sched.bg = append(sched.bg, bgJob{run: func(*workerState) {}, cancel: func() { canceled <- i }})
	}
	sched.mu.Unlock()
	select {
	case got := <-canceled:
		if got != 0 {
			t.Fatalf("shed job %d, want the oldest (0)", got)
		}
	default:
		t.Fatal("overflow shed nothing")
	}
	close(block)
	sched.close()
	// Close sheds the two still-queued jobs (1 and 2).
	if len(canceled) != 2 {
		t.Fatalf("close shed %d jobs, want 2", len(canceled))
	}
}

// TestSessionPrefetchUnderForegroundPressure: with every worker pinned
// by foreground load, session frames still serve and speculation is
// refused (counted) rather than queued ahead of clients. Run with
// -race this is also the concurrency check on the session/scheduler
// interaction.
func TestSessionPrefetchUnderForegroundPressure(t *testing.T) {
	s := testServer(t, Config{Workers: 1})
	sess, err := s.OpenSession(sessionRequest())
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Foreground pressure: a client hammering distinct uncached frames.
	wg.Add(1)
	go func() {
		defer wg.Done()
		req := sessionRequest()
		req.Sim = "lulesh" // distinct runner: contends for workers, not the lease
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			req.Azimuth = float64(i%360) + 0.5
			if _, err := s.Render(req); err != nil {
				t.Errorf("foreground render: %v", err)
				return
			}
		}
	}()
	for i := 1; i <= 12; i++ {
		if _, err := sess.Frame(float64(15*i), 1); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	st := s.Stats()
	if st.SessionFrames != 12 {
		t.Errorf("session frames %d, want 12", st.SessionFrames)
	}
	if sum := st.PrefetchNoHeadroomInflight + st.PrefetchNoHeadroomBudget + st.PrefetchNoHeadroomScheduler; sum != st.PrefetchNoHeadroom {
		t.Errorf("no-headroom reasons sum to %d, total %d", sum, st.PrefetchNoHeadroom)
	}
	t.Logf("under pressure: scheduled=%d noHeadroom=%d (inflight=%d budget=%d scheduler=%d) shed=%d hits=%d",
		st.PrefetchScheduled, st.PrefetchNoHeadroom, st.PrefetchNoHeadroomInflight,
		st.PrefetchNoHeadroomBudget, st.PrefetchNoHeadroomScheduler, st.PrefetchShed, st.PrefetchHits)
}

// TestSessionConcurrentFramesRace hammers one session from many
// goroutines: Sessions document themselves safe for concurrent use, so
// under -race the pose, think-time and decision updates and the
// one-in-flight prefetch cap must hold up against concurrent Frames.
func TestSessionConcurrentFramesRace(t *testing.T) {
	s := testServer(t, Config{Workers: 4})
	sess, err := s.OpenSession(sessionRequest())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				az := float64((g*50 + i) * 15 % 360)
				if _, err := sess.Frame(az, 1); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
