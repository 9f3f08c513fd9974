package serve

import (
	"fmt"
	"os"

	"insitu/internal/registry"
	"insitu/internal/study"
)

// OpenRegistry loads a model snapshot into a fresh registry, shared by
// renderd and the benchmark's replayer. With bootstrap set and the file
// absent, it runs a short measurement study on this machine, fits the
// models, persists the snapshot when a path was given, and serves that
// — the single-command path from nothing to a live model-gated service.
// cacheSize is ignored (the registry caches no predictions); it stays
// only because the benchmark module passes it.
func OpenRegistry(path string, bootstrap bool, cacheSize int, logf func(format string, args ...any)) (*registry.Registry, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	reg := registry.New(0)
	if path != "" {
		err := reg.LoadFile(path)
		if err == nil {
			return reg, nil
		}
		if !bootstrap || !os.IsNotExist(err) {
			return nil, fmt.Errorf("serve: loading registry: %w", err)
		}
	}
	if !bootstrap {
		return nil, fmt.Errorf("serve: a registry file is required (or pass bootstrap)")
	}
	logf("bootstrapping: running a short measurement study...")
	plan := study.Plan(true)
	rows, err := study.Run(plan, os.Stderr)
	if err != nil {
		return nil, fmt.Errorf("serve: bootstrap study: %w", err)
	}
	snap, err := study.FitSnapshot(rows, "bootstrap")
	if err != nil {
		return nil, fmt.Errorf("serve: bootstrap fit: %w", err)
	}
	if path != "" {
		if err := snap.WriteFile(path); err != nil {
			return nil, err
		}
		logf("bootstrap registry written to %s", path)
		if err := reg.LoadFile(path); err != nil {
			return nil, err
		}
		return reg, nil
	}
	if err := reg.Load(snap); err != nil {
		return nil, err
	}
	return reg, nil
}

// NewCalibrator builds the continuous-calibration loop around a serving
// registry, fed by renderd's served frames and posted observations:
// observed samples refit against the retained corpus every refitEvery
// samples, thin groups carry over from the currently served snapshot,
// and each refit hot-reloads the registry in place and, when path is
// set, persists the snapshot there (best effort, logged through logf)
// so the refined models survive a restart.
func NewCalibrator(reg *registry.Registry, path, source string, refitEvery int, logf func(format string, args ...any)) *study.Calibrator {
	return &study.Calibrator{
		Source:     source,
		RefitEvery: refitEvery,
		// A sliding window bounds per-refit cost and process memory over
		// an arbitrarily long ingestion stream; 4096 samples is several
		// times the full study plan.
		MaxCorpus: 4096,
		Base: func() (*registry.Snapshot, uint64) {
			v, err := reg.View()
			if err != nil {
				return nil, reg.Generation()
			}
			return v.Snapshot(), v.Generation()
		},
		Publish: func(s *registry.Snapshot, baseGen uint64) error {
			// Conditional on the generation the merge read: a concurrent
			// reload must not be silently overwritten (the calibrator
			// re-merges and retries on ErrStale).
			if err := reg.PublishIf(s, baseGen); err != nil {
				return err
			}
			if path != "" {
				if err := s.WriteFile(path); err != nil {
					// The models are already serving; a persist failure
					// must not unpublish them.
					logf("calibrate: persisting %s: %v", path, err)
				}
			}
			return nil
		},
	}
}
