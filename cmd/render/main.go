// Command render renders a synthetic dataset to a PNG through the
// scenario backend table — the same dispatch path the study, the repro
// tables, and the serving binaries use, so any backend (including ones
// added after this tool was written) is one -renderer flag away.
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"
	"time"

	"insitu/internal/core"
	"insitu/internal/device"
	"insitu/internal/mesh"
	"insitu/internal/mesh/synthdata"
	"insitu/internal/render"
	"insitu/internal/scenario"
)

func main() {
	dataset := flag.String("dataset", "rm", "dataset: "+strings.Join(datasetNames(), ", "))
	n := flag.Int("n", 48, "grid points per axis")
	rendererName := flag.String("renderer", string(core.RayTrace),
		"scenario backend: "+backendNames())
	size := flag.Int("size", 768, "image size (square)")
	dev := flag.String("device", "cpu", "device profile: "+strings.Join(device.ProfileNames(), ", "))
	zoom := flag.Float64("zoom", 1.4, "camera zoom (<1 zoomed out, >1 close)")
	azimuth := flag.Float64("azimuth", 30, "camera azimuth in degrees")
	out := flag.String("out", "render.png", "output PNG")
	workload := flag.Int("workload", 3, "ray tracing workload (1, 2, or 3)")
	samples := flag.Int("samples", 400, "volume sample budget along the diagonal (0 = renderer default)")
	flag.Parse()

	ds, err := synthdata.ByName(*dataset)
	if err != nil {
		log.Fatal(err)
	}
	d, err := device.Profile(*dev)
	if err != nil {
		log.Fatal(err)
	}
	defer d.Close()
	backend, err := scenario.Lookup(core.Renderer(*rendererName))
	if err != nil {
		log.Fatal(err)
	}
	grid := synthdata.Grid(ds.FieldName, ds.Func, *n, *n, *n, synthdata.UnitBounds())

	// One scene drives every backend. Surface techniques plot the
	// dataset's isosurface (not the block's external faces, which would
	// just be the bounding box); volume techniques consume the grid.
	sc, err := scenario.SceneFromGrid(d, grid, ds.FieldName, render.Camera{}, *size, *size)
	if err != nil {
		log.Fatal(err)
	}
	bounds := grid.Bounds()
	if spec, ok := core.LookupRenderer(core.Renderer(*rendererName)); ok && spec.Surface {
		iso, err := grid.Isosurface(d, ds.FieldName, ds.Isovalue, mesh.IsoOptions{})
		if err != nil {
			log.Fatal(err)
		}
		sc.SetSurface(iso)
		bounds = iso.Bounds()
	}
	sc.Camera = render.OrbitCamera(bounds, *azimuth, 20, *zoom)
	sc.RTWorkload = *workload
	sc.SamplesZ = *samples

	runner, err := backend.Prepare(sc)
	if err != nil {
		log.Fatal(err)
	}
	in := core.Inputs{Pixels: float64(*size * *size), Tasks: 1}
	elapsed, img, err := runner.RenderFrame(&in)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %.0f objects, %.0f active pixels, %s",
		*rendererName, in.O, in.AP, elapsed.Round(time.Millisecond))
	if b := runner.BuildSeconds(); b > 0 {
		fmt.Printf(" (+%.0fms build)", b*1e3)
	}
	fmt.Println()
	if err := img.SavePNG(*out); err != nil {
		log.Fatal(err)
	}
	fmt.Println("wrote", *out)
}

func datasetNames() []string {
	var names []string
	for _, d := range synthdata.Datasets() {
		names = append(names, d.Name)
	}
	return names
}

func backendNames() string {
	var names []string
	for _, r := range scenario.Names() {
		names = append(names, string(r))
	}
	return strings.Join(names, ", ")
}
