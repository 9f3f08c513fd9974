package main

import (
	"context"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"

	"insitu/internal/core"
	"insitu/internal/registry"
	"insitu/internal/study"
)

func init() {
	registerStandalone("calibrate", "parallel study with continuous refit + registry publishes (not part of 'all': measures its own corpus)", calibrateRun)
}

// calibrateRun is the live measure→fit→serve pipeline in one process: the
// study plan runs on the parallel runner (-parallel workers), every
// completed row streams into a Calibrator, and each refit publishes a new
// registry generation plus an updated models.json — the file a running
// renderd can hot-reload, or the payload to POST to /v1/observations.
// Interrupting the run keeps every generation published so far.
func calibrateRun(e *env) error {
	plan := study.Plan(e.short)
	reg := registry.New(0)
	path := filepath.Join(e.outDir, "models.json")
	// Refit roughly eight times over the run: often enough to watch the
	// models converge, rare enough that fitting stays a rounding error
	// next to measuring.
	cadence := len(plan) / 8
	if cadence < 4 {
		cadence = 4
	}
	calib := &study.Calibrator{
		Source:     "repro-calibrate",
		RefitEvery: cadence,
		Base: func() (*registry.Snapshot, uint64) {
			return reg.Snapshot(), reg.Generation()
		},
		Publish: func(s *registry.Snapshot, baseGen uint64) error {
			if err := reg.PublishIf(s, baseGen); err != nil {
				return err
			}
			return s.WriteFile(path)
		},
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	fmt.Fprintf(stdout, "running %d configurations with %d worker(s), refit every %d samples...\n",
		len(plan), max(e.parallel, 1), cadence)
	logRow := study.LogProgress(os.Stdout)
	_, err := study.RunContext(ctx, plan, study.Options{
		Workers: e.parallel,
		Progress: func(p study.Progress) {
			logRow(p)
			corpus, published, _, oerr := calib.Observe([]core.Sample{p.Row.Sample})
			if oerr != nil {
				fmt.Fprintf(os.Stderr, "calibrate: %v\n", oerr)
				return
			}
			if published {
				fmt.Fprintf(stdout, "          >>> generation %d published (corpus %d) -> %s\n",
					reg.Generation(), corpus, path)
			}
		},
	})
	if err != nil {
		return err
	}
	// Flush the trailing rows that did not reach the cadence.
	if published, reason, err := calib.Refit(); err != nil {
		return err
	} else if published {
		fmt.Fprintf(stdout, "final refit: generation %d (corpus %d) -> %s\n",
			reg.Generation(), calib.CorpusSize(), path)
	} else {
		fmt.Fprintf(stdout, "final refit not published: %s\n", reason)
	}
	snap := reg.Snapshot()
	if snap == nil {
		return fmt.Errorf("calibrate: no snapshot was ever published")
	}
	fmt.Fprintf(stdout, "served registry: %d models", len(snap.Models))
	if snap.Compositing != nil {
		fmt.Fprintf(stdout, " + compositing")
	}
	fmt.Fprintf(stdout, ", %d generations\nserve it with: renderd -registry %s\n", reg.Generation(), path)
	return nil
}
