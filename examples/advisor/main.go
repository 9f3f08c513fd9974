// Advisor walks the full serving path of the feasibility-advisor
// subsystem: measure a small study on this machine, export the fitted
// models as a registry snapshot (the same JSON "repro export" writes),
// load it back the way renderd does, and answer the paper's viability
// questions through the advisor engine — including a hot reload after the
// models are refreshed. renderd serves the same engine over HTTP
// (POST /v1/predict, /v1/feasibility, /v1/max_triangles).
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"

	"insitu/internal/advisor"
	"insitu/internal/core"
	"insitu/internal/registry"
	"insitu/internal/study"
)

func main() {
	verbose := flag.Bool("v", false, "log study progress")
	flag.Parse()

	// 1. Measure: a small single-architecture corpus (the feed renderd
	// normally gets from "repro export").
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
	// io.Writer, not *os.File: a typed-nil file would defeat study.Run's
	// w != nil silent-mode check.
	var logW io.Writer
	if *verbose {
		logW = os.Stdout
	}
	fmt.Printf("measuring %d configurations...\n", len(plan))
	rows, err := study.Run(plan, logW)
	if err != nil {
		log.Fatal(err)
	}

	// 2. Export: fit + calibrate + publish the versioned snapshot.
	dir, err := os.MkdirTemp("", "advisor-example-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "models.json")
	snap, err := study.ExportModels(rows, "example", path)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("exported %d models to %s\n", len(snap.Models), path)
	for _, m := range snap.Models {
		fmt.Printf("  %-20s R2=%.3f residual=%.2gs n=%d\n",
			m.Arch+"/"+m.Renderer, m.Fit.R2, m.Fit.ResidualSD, m.Fit.N)
	}

	// 3. Serve: load the snapshot into a registry and ask the engine the
	// questions renderd exposes over HTTP.
	reg := registry.New(0)
	if err := reg.LoadFile(path); err != nil {
		log.Fatal(err)
	}
	eng := advisor.New(reg)

	fmt.Println("\ncan I render 100 images in 60 s? (N=32 per task)")
	resp, err := eng.Feasibility(advisor.FeasibilityRequest{
		Arch: "cpu", Renderer: "raytracer", N: 32, Tasks: 1,
		BudgetSeconds: 60, Sizes: []int{256, 512, 1024, 2048}, Images: 100,
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, pt := range resp.Points {
		verdict := "no"
		if *pt.Feasible {
			verdict = "yes"
		}
		fmt.Printf("  %5d px: %8.0f images fit (%.4fs/image) -> %s\n",
			pt.ImageSize, pt.Images, pt.PerImageSeconds, verdict)
	}

	fmt.Println("\nlargest geometry inside a 30 fps budget at 1024px:")
	mt, err := eng.MaxTriangles(advisor.MaxTrianglesRequest{
		Arch: "cpu", Renderer: "raytracer", Tasks: 1, ImageSize: 1024,
		PerImageBudgetSeconds: 1.0 / 30, Renderings: 100,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  N=%d per task (~%.0f triangles), predicted %.4fs/image\n",
		mt.N, mt.Triangles, mt.PerImageSeconds)

	// 4. Hot reload: republish and swap without dropping the engine.
	snap.Source = "example-refreshed"
	if err := snap.WriteFile(path); err != nil {
		log.Fatal(err)
	}
	if err := reg.Reload(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nhot reload: generation %d now serves source %q\n",
		reg.Generation(), reg.Snapshot().Source)
}
