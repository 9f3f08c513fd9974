// Calibrate walks the continuous measure→fit→serve loop in one process:
// a parallel study runner streams completed measurements into a
// Calibrator, every refit publishes a new registry generation while the
// study is still running, and the advisor engine's answers sharpen live —
// the in-process equivalent of a study machine POSTing its rows to a
// running renderd's /v1/observations endpoint.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"runtime"

	"insitu/internal/advisor"
	"insitu/internal/core"
	"insitu/internal/registry"
	"insitu/internal/study"
)

func main() {
	workers := flag.Int("parallel", runtime.GOMAXPROCS(0), "study worker goroutines")
	flag.Parse()

	// The question we keep asking while the models converge.
	ask := advisor.PredictRequest{Arch: "cpu", Renderer: "volume", N: 24, Tasks: 1, Width: 256}

	// A single-architecture corpus, measured by the worker pool.
	var plan []study.Config
	for _, n := range []int{10, 14, 18, 22} {
		for _, img := range []int{64, 128, 192} {
			for _, r := range []core.Renderer{core.RayTrace, core.Raster, core.Volume} {
				plan = append(plan, study.Config{
					Arch: "cpu", Renderer: r, Sim: "kripke",
					Tasks: 1, ImageSize: img, N: n, Frames: 2,
				})
			}
		}
	}

	reg := registry.New(0)
	engine := advisor.New(reg)
	calib := &study.Calibrator{
		Source:     "calibrate-example",
		RefitEvery: 9,
		Base: func() (*registry.Snapshot, uint64) {
			return reg.Snapshot(), reg.Generation()
		},
		Publish: func(s *registry.Snapshot, baseGen uint64) error {
			return reg.PublishIf(s, baseGen)
		},
	}

	fmt.Printf("measuring %d configurations on %d workers, refit every %d samples...\n",
		len(plan), *workers, calib.RefitEvery)
	_, err := study.RunContext(context.Background(), plan, study.Options{
		Workers: *workers,
		Progress: func(p study.Progress) {
			_, published, _, oerr := calib.Observe([]core.Sample{p.Row.Sample})
			if oerr != nil {
				log.Fatal(oerr)
			}
			if !published {
				return
			}
			// The models just hot-swapped mid-study; ask again.
			resp, perr := engine.Predict(ask)
			if perr != nil {
				fmt.Printf("  gen %d (%3d/%3d measured): %s/%s not fitted yet\n",
					reg.Generation(), p.Done, p.Total, ask.Arch, ask.Renderer)
				return
			}
			fmt.Printf("  gen %d (%3d/%3d measured): volume %dx%d at N=%d -> %.4fs/image\n",
				reg.Generation(), p.Done, p.Total,
				ask.Width, ask.Width, ask.N, resp.PerImageSeconds)
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	// Flush the tail of the corpus into one final generation.
	if _, _, err := calib.Refit(); err != nil {
		log.Fatal(err)
	}
	resp, err := engine.Predict(ask)
	if err != nil {
		log.Fatal(err)
	}
	snap := reg.Snapshot()
	fmt.Printf("\nfinal: generation %d, %d models, corpus %d samples\n",
		reg.Generation(), len(snap.Models), calib.CorpusSize())
	fmt.Printf("answer: %s/%s N=%d %dx%d -> %.4fs/image (%.1f images/s)\n",
		ask.Arch, ask.Renderer, ask.N, ask.Width, ask.Width,
		resp.PerImageSeconds, resp.ImagesPerSecond)
}
