package serve

import (
	"bytes"
	"errors"
	"image/png"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"insitu/internal/advisor"
	"insitu/internal/composite"
	"insitu/internal/core"
	"insitu/internal/device"
	"insitu/internal/framebuffer"
	"insitu/internal/registry"
	"insitu/internal/scenario"
	"insitu/internal/study"
	"insitu/internal/vecmath"
)

// testSnapshot hand-builds a model snapshot with plausible positive
// coefficients. The serving layer is gated on predictions, not on fit
// quality, so a synthetic snapshot keeps these tests off the slow
// measurement path; the coefficients are sized so a 256^2 frame costs
// tens of model-milliseconds and a 64^2 frame a few.
func testSnapshot() *registry.Snapshot {
	fit := func(coef ...float64) registry.FitDoc {
		return registry.FitDoc{Coef: coef, R2: 0.99, N: 16, P: len(coef)}
	}
	build := fit(1e-8, 1e-5)
	return &registry.Snapshot{
		Version: registry.SnapshotVersion, Source: "serve-test", CreatedUnix: 1,
		Mapping: registry.MappingDoc{FillFraction: 0.55, SPRBase: 373},
		Models: []registry.ModelDoc{
			{Arch: "serial", Renderer: string(core.RayTrace), Fit: fit(1e-7, 5e-8, 1e-4), BuildFit: &build},
			{Arch: "serial", Renderer: string(core.Volume), Fit: fit(1e-8, 1e-9, 1e-4)},
		},
	}
}

func testRegistry(t testing.TB) *registry.Registry {
	t.Helper()
	reg := registry.New(0)
	if err := reg.Load(testSnapshot()); err != nil {
		t.Fatal(err)
	}
	return reg
}

// testServer builds a serving stack over the synthetic registry on the
// serial device profile (deterministic, cheap).
func testServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	cfg.Arch = "serial"
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	s := New(advisor.New(testRegistry(t)), cfg)
	t.Cleanup(s.Close)
	return s
}

// TestDeadlineZeroAdmitsAtRequestedQuality: deadline 0 means "no
// deadline" — the frame is admitted exactly as asked, rendered, and the
// bytes decode as a PNG of the requested size.
func TestDeadlineZeroAdmitsAtRequestedQuality(t *testing.T) {
	s := testServer(t, Config{})
	res, err := s.Render(FrameRequest{Backend: core.RayTrace, Sim: "kripke", N: 8, Width: 72})
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded || res.DegradeSteps != 0 {
		t.Errorf("no-deadline request degraded: %+v", res)
	}
	if res.Width != 72 || res.Height != 72 || res.N != 8 {
		t.Errorf("served quality %dx%d n=%d, want 72x72 n=8", res.Width, res.Height, res.N)
	}
	img, err := png.Decode(bytes.NewReader(res.PNG))
	if err != nil {
		t.Fatalf("served bytes are not a PNG: %v", err)
	}
	if b := img.Bounds(); b.Dx() != 72 || b.Dy() != 72 {
		t.Errorf("PNG is %dx%d", b.Dx(), b.Dy())
	}
	if res.PredictedSeconds <= 0 || res.RenderSeconds <= 0 {
		t.Errorf("missing timings: %+v", res)
	}
}

// TestUnknownNamesAnswerBadRequest: unknown backends, sims, and archs
// are client errors that name the registered alternatives.
func TestUnknownNamesAnswerBadRequest(t *testing.T) {
	s := testServer(t, Config{})
	cases := []struct {
		req  FrameRequest
		want string
	}{
		{FrameRequest{Backend: "teapot", Sim: "kripke", N: 8, Width: 64}, string(core.RayTrace)},
		{FrameRequest{Backend: core.RayTrace, Sim: "spice", N: 8, Width: 64}, "kripke"},
		{FrameRequest{Backend: core.RayTrace, Sim: "kripke", N: 8, Width: 64, Arch: "abacus"}, "serial"},
		// gpu is not an execution profile on any host.
		{FrameRequest{Backend: core.RayTrace, Sim: "kripke", N: 8, Width: 64, Arch: "gpu"}, "cpu-scalar"},
		// The structured-only volume renderer cannot eat the Lagrangian
		// proxy's unstructured mesh.
		{FrameRequest{Backend: core.Volume, Sim: "lulesh", N: 8, Width: 64}, "structured"},
	}
	for _, tc := range cases {
		_, err := s.Render(tc.req)
		if !errors.Is(err, ErrBadRequest) {
			t.Errorf("%+v: err = %v, want ErrBadRequest", tc.req, err)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%+v: error %q does not mention %q", tc.req, err, tc.want)
		}
	}
	// A registered backend with no model in the snapshot is a 404-class
	// error, not a 400.
	_, err := s.Render(FrameRequest{Backend: core.Raster, Sim: "kripke", N: 8, Width: 64})
	if !errors.Is(err, registry.ErrNoModel) {
		t.Errorf("model-less backend: err = %v, want ErrNoModel", err)
	}
}

// TestCacheHitReturnsIdenticalBytes: the second identical request is a
// cache hit serving byte-identical PNG data.
func TestCacheHitReturnsIdenticalBytes(t *testing.T) {
	s := testServer(t, Config{})
	req := FrameRequest{Backend: core.Volume, Sim: "kripke", N: 8, Width: 64}
	first, err := s.Render(req)
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheHit {
		t.Fatal("first render was a cache hit")
	}
	second, err := s.Render(req)
	if err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit {
		t.Fatal("second render missed the cache")
	}
	if !bytes.Equal(first.PNG, second.PNG) {
		t.Fatal("cache hit served different bytes")
	}
	if second.RenderSeconds != first.RenderSeconds {
		t.Errorf("cache hit lost the original measurement: %v vs %v", second.RenderSeconds, first.RenderSeconds)
	}
	st := s.Stats()
	if st.CacheHits != 1 || st.CacheMisses != 1 || st.FramesRendered != 1 {
		t.Errorf("stats: %+v", st)
	}
	// A deadline the full-quality prediction fits admits the frame as
	// asked, so it is the same cache entry.
	req.DeadlineMillis = 1000 * first.PredictedSeconds * 1e3
	third, err := s.Render(req)
	if err != nil {
		t.Fatal(err)
	}
	if !third.CacheHit || third.Degraded || third.Width != 64 || !bytes.Equal(third.PNG, first.PNG) {
		t.Errorf("generous deadline: hit=%v degraded=%v width=%d", third.CacheHit, third.Degraded, third.Width)
	}
}

// TestTightDeadlineDegrades: a deadline between the floor-quality and
// requested-quality predictions is admitted only after degradation.
func TestTightDeadlineDegrades(t *testing.T) {
	s := testServer(t, Config{})
	req := FrameRequest{Backend: core.RayTrace, Sim: "kripke", N: 12, Width: 512}
	full, _, err := s.predictQuality("serial", core.RayTrace, quality{W: 512, H: 512, N: 12})
	if err != nil {
		t.Fatal(err)
	}
	floor, _, err := s.predictQuality("serial", core.RayTrace, quality{W: 64, H: 64, N: 8, RTWorkload: 1})
	if err != nil {
		t.Fatal(err)
	}
	if floor >= full {
		t.Fatalf("degradation does not reduce predicted cost: floor %v, full %v", floor, full)
	}
	req.DeadlineMillis = (floor + (full-floor)/4) * 1e3
	res, err := s.Render(req)
	if err != nil {
		t.Fatalf("degradable request rejected: %v", err)
	}
	if !res.Degraded || res.DegradeSteps == 0 {
		t.Errorf("tight deadline served undegraded: %+v", res)
	}
	if res.Width >= 512 {
		t.Errorf("resolution did not shrink: %d", res.Width)
	}
	if res.PredictedSeconds > req.DeadlineMillis/1e3 {
		t.Errorf("admitted prediction %v exceeds deadline %v", res.PredictedSeconds, req.DeadlineMillis/1e3)
	}
}

// TestImpossibleDeadlineRejectsWithPrediction: the degrade ladder
// terminates and the refusal carries the model's predicted times.
func TestImpossibleDeadlineRejectsWithPrediction(t *testing.T) {
	s := testServer(t, Config{})
	req := FrameRequest{
		Backend: core.RayTrace, Sim: "kripke", N: 24, Width: 1024,
		DeadlineMillis: 1e-6, // one nanosecond: nothing fits
	}
	done := make(chan struct{})
	var res FrameResult
	var err error
	go func() {
		res, err = s.Render(req)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("degrade ladder did not terminate")
	}
	var rej *RejectionError
	if !errors.As(err, &rej) {
		t.Fatalf("err = %v (%+v), want RejectionError", err, res)
	}
	if rej.PredictedSeconds <= 0 || rej.FloorPredictedSeconds <= 0 {
		t.Errorf("rejection lacks predictions: %+v", rej)
	}
	if rej.FloorPredictedSeconds > rej.PredictedSeconds {
		t.Errorf("floor prediction %v above requested prediction %v", rej.FloorPredictedSeconds, rej.PredictedSeconds)
	}
	if rej.Steps == 0 {
		t.Errorf("ladder took no steps: %+v", rej)
	}
	if s.Stats().Rejected != 1 {
		t.Errorf("stats: %+v", s.Stats())
	}
}

// TestDegradedFramesSkipCalibration: frames rendered off the fitted ray
// tracing workload must not reach the observer (workload is not a model
// input), while baseline frames must.
func TestDegradedFramesSkipCalibration(t *testing.T) {
	reg := testRegistry(t)
	engine := advisor.New(reg)
	cal := &study.Calibrator{
		Source: "serve-test", RefitEvery: 1000, // accumulate only
		Publish: func(s *registry.Snapshot, baseGen uint64) error { return reg.PublishIf(s, baseGen) },
	}
	engine.SetObserver(cal)
	s := New(engine, Config{Arch: "serial", Logf: t.Logf})
	defer s.Close()

	if _, err := s.Render(FrameRequest{Backend: core.Volume, Sim: "kripke", N: 8, Width: 64}); err != nil {
		t.Fatal(err)
	}
	// Force the workload-1 floor: minimum quality everywhere, deadline
	// between the derated and underated floor predictions.
	floorBase, _, err := s.predictQuality("serial", core.RayTrace, quality{W: 64, H: 64, N: 8})
	if err != nil {
		t.Fatal(err)
	}
	req := FrameRequest{
		Backend: core.RayTrace, Sim: "kripke", N: 8, Width: 64,
		DeadlineMillis: floorBase * workload1Derate * 1.5 * 1e3,
	}
	if req.DeadlineMillis/1e3 >= floorBase {
		t.Fatalf("test deadline %v does not force the workload floor (base %v)", req.DeadlineMillis/1e3, floorBase)
	}
	res, err := s.Render(req)
	if err != nil {
		t.Fatal(err)
	}
	if res.RTWorkload != 1 {
		t.Fatalf("expected the workload-1 floor, got %+v", res)
	}
	// Wait for the volume observation to drain; the raytrace frame must
	// have been skipped.
	deadline := time.Now().Add(5 * time.Second)
	for cal.CorpusSize() < 1 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := cal.CorpusSize(); got != 1 {
		t.Errorf("calibrator corpus = %d, want 1 (volume only)", got)
	}
	if st := s.Stats(); st.ObservationsSkipped != 1 {
		t.Errorf("observations skipped = %d, want 1", st.ObservationsSkipped)
	}
}

// TestServedFrameRefitsModels is the closed loop in one process: a
// served frame's measurement reaches the calibrator and bumps the
// registry generation, and the next admission is gated by the refitted
// models (the admission memo is generation-keyed).
func TestServedFrameRefitsModels(t *testing.T) {
	reg := testRegistry(t)
	engine := advisor.New(reg)
	engine.SetObserver(&study.Calibrator{
		Source: "serve-refit", RefitEvery: 1,
		Base: func() (*registry.Snapshot, uint64) {
			v, err := reg.View()
			if err != nil {
				return nil, reg.Generation()
			}
			return v.Snapshot(), v.Generation()
		},
		Publish: func(s *registry.Snapshot, baseGen uint64) error {
			return reg.PublishIf(s, baseGen)
		},
	})
	s := New(engine, Config{Arch: "serial", Logf: t.Logf})
	defer s.Close()

	gen0 := reg.Generation()
	// Distinct cameras force real renders (cache misses), and the
	// volume fit needs >= 4 samples before the calibrator publishes.
	for i := 0; i < 6; i++ {
		req := FrameRequest{
			Backend: core.Volume, Sim: "kripke",
			N: 8 + (i%3)*2, Width: 48 + 16*(i%2), Azimuth: float64(10 * i),
		}
		if _, err := s.Render(req); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for reg.Generation() == gen0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if reg.Generation() == gen0 {
		t.Fatalf("served frames never republished the models (stats: %+v)", s.Stats())
	}
	snap := reg.Snapshot()
	if snap.Source != "serve-refit" {
		t.Errorf("serving snapshot source %q", snap.Source)
	}
	if s.Stats().Refits == 0 {
		t.Errorf("refit counter not bumped: %+v", s.Stats())
	}
	// The refitted registry still serves the untouched raytracer model
	// (carried over by the calibrator's merge).
	if _, err := s.Render(FrameRequest{Backend: core.RayTrace, Sim: "kripke", N: 8, Width: 48}); err != nil {
		t.Errorf("carried-over model gone after refit: %v", err)
	}
}

// TestQueueFullAnswersBackpressure: a zero-capacity-ish queue with a
// blocked worker refuses overflow with ErrQueueFull instead of queueing
// unboundedly.
func TestQueueFullAnswersBackpressure(t *testing.T) {
	sched := newScheduler(1, 1, 1)
	defer sched.close()
	block := make(chan struct{})
	started := make(chan struct{})
	if err := sched.submit(time.Time{}, 0, func(*workerState) { close(started); <-block }); err != nil {
		t.Fatal(err)
	}
	<-started
	if err := sched.submit(time.Time{}, 0, func(*workerState) {}); err != nil {
		t.Fatalf("first queued job refused: %v", err)
	}
	if err := sched.submit(time.Time{}, 0, func(*workerState) {}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow err = %v, want ErrQueueFull", err)
	}
	close(block)
}

// blockingObserver holds the calibration worker inside Observe until
// release closes, so a test controls the queue's free space.
type blockingObserver struct{ entered, release chan struct{} }

func (o *blockingObserver) Observe(samples []core.Sample) (int, bool, string, error) {
	select {
	case o.entered <- struct{}{}:
	default:
	}
	<-o.release
	return len(samples), false, "", nil
}

// TestQueueObservationsAllOrNothing: a posted observation batch is
// queued whole or not at all. One that does not fit the free space is
// ErrCalibrationFull and leaves the queue as it was; one larger than
// the whole queue is ErrBatchTooLarge naming the capacity.
func TestQueueObservationsAllOrNothing(t *testing.T) {
	engine := advisor.New(testRegistry(t))
	ob := &blockingObserver{entered: make(chan struct{}, 1), release: make(chan struct{})}
	engine.SetObserver(ob)
	s := New(engine, Config{Arch: "serial", ObserveQueue: 4, Logf: t.Logf})
	defer s.Close()
	defer close(ob.release)

	batch := func(n int) []advisor.Observation {
		obs := make([]advisor.Observation, n)
		for i := range obs {
			obs[i] = advisor.Observation{
				Arch: "serial", Renderer: "volume",
				Inputs:        core.Inputs{O: 1000, AP: 5000, SPR: 100, CS: 10, Pixels: 20000, AvgAP: 5000, Tasks: 1},
				RenderSeconds: 0.01,
			}
		}
		return obs
	}
	err := s.QueueObservations(batch(5))
	if !errors.Is(err, ErrBatchTooLarge) || !strings.Contains(err.Error(), "capacity 4") {
		t.Fatalf("5 samples into a 4-sample queue: %v, want ErrBatchTooLarge naming capacity 4", err)
	}
	if err := s.QueueObservations([]advisor.Observation{{Arch: "serial", Renderer: "volume", RenderSeconds: -1}}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("invalid observation: %v, want ErrBadRequest", err)
	}
	// The worker takes the first sample and blocks; three more fill
	// the queue to one free slot.
	if err := s.QueueObservations(batch(1)); err != nil {
		t.Fatal(err)
	}
	<-ob.entered
	if err := s.QueueObservations(batch(3)); err != nil {
		t.Fatal(err)
	}
	if err := s.QueueObservations(batch(2)); !errors.Is(err, ErrCalibrationFull) {
		t.Fatalf("2 samples into 1 free slot: %v, want ErrCalibrationFull", err)
	}
	if err := s.QueueObservations(batch(1)); err != nil {
		t.Fatalf("1 sample into 1 free slot: %v", err)
	}
	if got := s.Stats().ObservationsQueued; got != 5 {
		t.Errorf("observations queued = %d, want 5 (refused batches queue nothing)", got)
	}

	off := New(advisor.New(testRegistry(t)), Config{Arch: "serial", ObserveQueue: -1, Logf: t.Logf})
	off.Close()
	if err := off.QueueObservations(batch(1)); !errors.Is(err, ErrCalibrationOff) {
		t.Errorf("calibration off: %v, want ErrCalibrationOff", err)
	}
}

// TestNoObserverNoObservationQueue: over an engine with no observer the
// calibration queue does not start, whatever ObserveQueue says: posted
// observations are ErrCalibrationOff and a served frame queues no
// sample.
func TestNoObserverNoObservationQueue(t *testing.T) {
	s := testServer(t, Config{})
	err := s.QueueObservations([]advisor.Observation{{
		Arch: "serial", Renderer: "volume",
		Inputs:        core.Inputs{O: 1000, AP: 5000, SPR: 100, CS: 10, Pixels: 20000, AvgAP: 5000, Tasks: 1},
		RenderSeconds: 0.01,
	}})
	if !errors.Is(err, ErrCalibrationOff) {
		t.Errorf("QueueObservations without an observer: %v, want ErrCalibrationOff", err)
	}
	if _, err := s.Render(FrameRequest{Backend: core.Volume, Sim: "kripke", N: 8, Width: 64}); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().ObservationsQueued; got != 0 {
		t.Errorf("observations queued = %d, want 0", got)
	}
}

// TestSchedulerEDFOrder: queued jobs run earliest-deadline-first with
// no-deadline jobs last, regardless of submission order.
func TestSchedulerEDFOrder(t *testing.T) {
	sched := newScheduler(1, 16, 1)
	defer sched.close()
	block := make(chan struct{})
	started := make(chan struct{})
	if err := sched.submit(time.Time{}, 0, func(*workerState) { close(started); <-block }); err != nil {
		t.Fatal(err)
	}
	<-started

	var mu struct {
		ch chan string
	}
	mu.ch = make(chan string, 8)
	now := time.Now()
	submit := func(name string, deadline time.Time) {
		if err := sched.submit(deadline, 0, func(*workerState) { mu.ch <- name }); err != nil {
			t.Fatal(err)
		}
	}
	submit("none", time.Time{})
	submit("late", now.Add(3*time.Second))
	submit("early", now.Add(1*time.Second))
	submit("mid", now.Add(2*time.Second))
	close(block)

	want := []string{"early", "mid", "late", "none"}
	for _, w := range want {
		select {
		case got := <-mu.ch:
			if got != w {
				t.Fatalf("ran %q, want %q", got, w)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("job %q never ran", w)
		}
	}
}

// TestSubNanosecondDeadlineDoesNotAliasNoDeadline: the admission memo
// quantizes deadlines; a positive-but-tiny deadline must not share the
// deadline=0 ("no deadline") key, or the cached unbounded admission
// would answer an impossible request.
func TestSubNanosecondDeadlineDoesNotAliasNoDeadline(t *testing.T) {
	s := testServer(t, Config{})
	req := FrameRequest{Backend: core.Volume, Sim: "kripke", N: 8, Width: 64}
	if _, err := s.Render(req); err != nil {
		t.Fatal(err)
	}
	req.DeadlineMillis = 1e-9
	_, err := s.Render(req)
	var rej *RejectionError
	if !errors.As(err, &rej) {
		t.Fatalf("tiny deadline after cached no-deadline admission: err = %v, want rejection", err)
	}
}

// TestHugeDeadlineRejected: deadline_ms is converted to int64
// nanoseconds for the admission memo key and the scheduled deadline, and
// from about 9.2e12 on that wraps negative — a deadline in the past that
// sorts ahead of every real one and shares the memo key of a 1 ns
// deadline. So it is a bad request; the cap itself is an ordinary,
// unhurried deadline.
func TestHugeDeadlineRejected(t *testing.T) {
	s := testServer(t, Config{})
	req := FrameRequest{Backend: core.RayTrace, Sim: "kripke", N: 8, Width: 64, DeadlineMillis: 1e13}
	if _, err := s.Render(req); !errors.Is(err, ErrBadRequest) {
		t.Errorf("deadline_ms=1e13: err = %v, want ErrBadRequest", err)
	}
	req.DeadlineMillis = maxDeadlineMillis
	res, err := s.Render(req)
	if err != nil {
		t.Fatalf("deadline_ms at the cap: %v", err)
	}
	if res.Degraded || res.DeadlineMiss {
		t.Errorf("deadline_ms at the cap: degraded %v, deadline miss %v", res.Degraded, res.DeadlineMiss)
	}
}

// TestInvalidRequestsRejected covers the remaining validation edges.
func TestInvalidRequestsRejected(t *testing.T) {
	s := testServer(t, Config{})
	bad := []FrameRequest{
		{Sim: "kripke", N: 8, Width: 64},                              // no backend
		{Backend: core.RayTrace, N: 0, Width: 64},                     // n too small
		{Backend: core.RayTrace, N: 8, Width: 0},                      // no width
		{Backend: core.RayTrace, N: 8, Width: 64, DeadlineMillis: -5}, // negative deadline
		{Backend: core.RayTrace, N: 8, Width: 1 << 20},                // over the size cap
		{Backend: core.RayTrace, N: 1 << 20, Width: 64},               // over the n cap
		{Backend: core.RayTrace, N: 8, Width: 64, Zoom: -1},           // bad camera
	}
	for _, req := range bad {
		if _, err := s.Render(req); !errors.Is(err, ErrBadRequest) {
			t.Errorf("%+v: err = %v, want ErrBadRequest", req, err)
		}
	}
	if st := s.Stats(); st.BadRequests != uint64(len(bad)) {
		t.Errorf("bad request counter = %d, want %d", st.BadRequests, len(bad))
	}
}

// barrierBackend is a stub backend whose frames each wait until `want`
// frames have started, so they complete only if frames of one
// configuration render at the same time. one closes when the first frame
// starts. It is its own arena: every worker's arena of it is the one
// (concurrency-safe) stub.
type barrierBackend struct {
	started  atomic.Int32
	one, all chan struct{}
	want     int32
}

func (b *barrierBackend) CompositeOp() composite.Op { return composite.DepthOp }
func (b *barrierBackend) NeedsStructured() bool     { return false }
func (b *barrierBackend) PrepareScene(*scenario.Scene) (*scenario.PreparedScene, error) {
	return &scenario.PreparedScene{Backend: b, Bounds: vecmath.AABB{Max: vecmath.V(1, 1, 1)}}, nil
}
func (b *barrierBackend) NewArena(*device.Device) scenario.Arena { return b }
func (b *barrierBackend) Prepare(*scenario.Scene) (scenario.FrameRunner, error) {
	return nil, errors.New("barrierBackend renders only through arenas")
}

func (b *barrierBackend) Render(_ *scenario.PreparedScene, f scenario.Frame, in *core.Inputs) (time.Duration, *framebuffer.Image, error) {
	n := b.started.Add(1)
	if n == 1 {
		close(b.one)
	}
	if n == b.want {
		close(b.all)
	}
	select {
	case <-b.all:
	case <-time.After(10 * time.Second):
		return 0, nil, errors.New("the other same-key frame never started: frames of one configuration serialized")
	}
	in.AP = float64(f.Width * f.Height)
	return time.Millisecond, framebuffer.NewImage(f.Width, f.Height), nil
}

// TestSameKeyFramesRenderConcurrently: two misses of one configuration
// render at once on a two-worker server, each worker drawing the key's
// one cached scene on its own arena. The stub scene's frames block until
// both frames have started, so a server that serialized same-key frames
// would time out.
func TestSameKeyFramesRenderConcurrently(t *testing.T) {
	s := testServer(t, Config{Workers: 2})
	req := FrameRequest{Backend: core.RayTrace, Sim: "kripke", N: 8, Width: 64}
	norm := req
	d, _, err := s.front(&norm)
	if err != nil {
		t.Fatal(err)
	}
	stub := &barrierBackend{one: make(chan struct{}), all: make(chan struct{}), want: 2}
	// The key's scene is the stub's, as if an earlier frame had prepared it.
	if _, err := s.scenes.Get(sceneKeyFor(&norm, d.q), func() (*scenario.PreparedScene, error) {
		return stub.PrepareScene(nil)
	}); err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 2)
	for _, az := range []float64{10, 20} {
		go func() {
			r := req
			r.Azimuth = az
			_, err := s.Render(r)
			errs <- err
		}()
	}
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("same-key frames did not finish")
		}
	}
	if st := s.Stats().RunnerCache; st.Prepared != 1 || st.Hits != 2 || st.Live != 1 {
		t.Errorf("runner cache %+v, want the stub scene prepared once and found by both frames", st)
	}
}

// TestQualitiesShareOneScene: one configuration served at three image
// sizes — the resolution rungs of the degrade ladder — prepares one
// scene, because a scene's key is only what preparation reads.
func TestQualitiesShareOneScene(t *testing.T) {
	s := testServer(t, Config{})
	for _, w := range []int{256, 128, 64} {
		res, err := s.Render(FrameRequest{Backend: core.RayTrace, Sim: "kripke", N: 8, Width: w})
		if err != nil {
			t.Fatal(err)
		}
		if res.Width != w || res.CacheHit {
			t.Fatalf("width %d: served %dx%d, cache hit %v", w, res.Width, res.Height, res.CacheHit)
		}
	}
	if st := s.Stats().RunnerCache; st.Prepared != 1 || st.Hits != 2 {
		t.Errorf("runner cache %+v, want 1 scene prepared and found by the 2 later sizes", st)
	}
}

// TestServerCloseClosesWorkerDevices: every device a render worker opened
// is closed once Server.Close returns.
func TestServerCloseClosesWorkerDevices(t *testing.T) {
	s := testServer(t, Config{Workers: 2})
	for _, w := range []int{64, 48} {
		if _, err := s.Render(FrameRequest{Backend: core.RayTrace, Sim: "kripke", N: 8, Width: w}); err != nil {
			t.Fatal(err)
		}
	}
	// One job per worker, each holding its worker until both have
	// started, reads the device that worker renders the server's arch on.
	var started sync.WaitGroup
	started.Add(2)
	devs := make(chan *device.Device, 2)
	for i := 0; i < 2; i++ {
		if err := s.sched.submit(time.Time{}, 0, func(ws *workerState) {
			started.Done()
			started.Wait()
			dev, err := ws.arenas.Device(s.cfg.Arch)
			if err != nil {
				t.Error(err)
			}
			devs <- dev
		}); err != nil {
			t.Fatal(err)
		}
	}
	got := []*device.Device{<-devs, <-devs}
	if got[0] == got[1] {
		t.Fatal("two workers share one device")
	}
	for i, dev := range got {
		if dev.Closed() {
			t.Fatalf("worker %d's device closed while the server runs", i)
		}
	}
	s.Close()
	for i, dev := range got {
		if !dev.Closed() {
			t.Errorf("worker %d's device still open after Server.Close", i)
		}
	}
}
