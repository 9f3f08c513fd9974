package serve

import (
	"errors"
	"sync"
	"testing"

	"insitu/internal/advisor"
	"insitu/internal/core"
	"insitu/internal/registry"
	"insitu/internal/study"
)

// TestConcurrentRendersSharedCacheAndCalibrator exercises the serving
// path's shared state under contention — one frame cache, one runner
// cache, one admission memo, and one calibration queue that served
// frames and posted observations both feed, its calibrator
// republishing the registry mid-traffic — and is run under -race by
// `make race` (wired into `make ci`).
func TestConcurrentRendersSharedCacheAndCalibrator(t *testing.T) {
	reg := testRegistry(t)
	engine := advisor.New(reg)
	engine.SetObserver(&study.Calibrator{
		Source: "serve-race", RefitEvery: 2,
		Base: func() (*registry.Snapshot, uint64) {
			v, err := reg.View()
			if err != nil {
				return nil, reg.Generation()
			}
			return v.Snapshot(), v.Generation()
		},
		Publish: func(s *registry.Snapshot, baseGen uint64) error {
			err := reg.PublishIf(s, baseGen)
			if errors.Is(err, registry.ErrStale) {
				return err
			}
			return err
		},
	})
	s := New(engine, Config{Arch: "serial", Workers: 4, Logf: func(string, ...any) {}})
	defer s.Close()

	// A small key set so goroutines collide on cache entries and runner
	// leases; a rotating deadline mixes admitted, degraded, and rejected
	// outcomes through the shared admission memo.
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				req := FrameRequest{
					Backend: core.Volume, Sim: "kripke",
					N: 8 + 2*((g+i)%2), Width: 48,
					Azimuth: float64(15 * (i % 3)),
				}
				if g%2 == 0 {
					req.Backend = core.RayTrace
				}
				if i%5 == 4 {
					req.DeadlineMillis = 1e-6 // forced rejection
				}
				_, err := s.Render(req)
				var rej *RejectionError
				if err != nil && !errors.As(err, &rej) {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			ap := float64(4000 + 500*i)
			err := s.QueueObservations([]advisor.Observation{{
				Arch: "serial", Renderer: "volume",
				Inputs:        core.Inputs{O: 1000, AP: ap, SPR: 100, CS: 10, Pixels: 4 * ap, AvgAP: ap, Tasks: 1},
				RenderSeconds: 1e-6 * ap,
			}})
			if err != nil && !errors.Is(err, ErrCalibrationFull) {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := s.Stats()
	if st.FramesRendered == 0 || st.CacheHits == 0 {
		t.Errorf("race run did not exercise the cache: %+v", st)
	}
}
