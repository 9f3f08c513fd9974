// Command render renders a synthetic dataset to a PNG through the
// scenario backend table — the same dispatch path the study, the repro
// tables, and the serving binaries use, so any backend (including ones
// added after this tool was written) is one -renderer flag away.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"time"

	"insitu/internal/core"
	"insitu/internal/device"
	"insitu/internal/mesh"
	"insitu/internal/mesh/synthdata"
	"insitu/internal/render"
	"insitu/internal/scenario"
)

// errUsage marks a flag value run refuses; main exits 2 on it, as flag does.
var errUsage = errors.New("usage")

func main() {
	if err := run(os.Args[1:], os.Stdout); errors.Is(err, errUsage) {
		fmt.Fprintln(os.Stderr, "render:", err)
		os.Exit(2)
	} else if err != nil {
		log.Fatal(err)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("render", flag.ExitOnError)
	dataset := fs.String("dataset", "rm", "dataset: "+strings.Join(datasetNames(), ", "))
	n := fs.Int("n", 48, "grid points per axis")
	rendererName := fs.String("renderer", string(core.RayTrace),
		"scenario backend: "+backendNames())
	size := fs.Int("size", 768, "image size (square)")
	dev := fs.String("device", "cpu", "device profile: "+strings.Join(device.ProfileNames(), ", "))
	zoom := fs.Float64("zoom", 1.4, "camera zoom (<1 zoomed out, >1 close)")
	azimuth := fs.Float64("azimuth", 30, "camera azimuth in degrees")
	out := fs.String("out", "render.png", "output PNG")
	workload := fs.Int("workload", 3, "ray tracing workload (1, 2, or 3)")
	samples := fs.Int("samples", 400, "volume sample budget along the diagonal (0 = renderer default)")
	_ = fs.Parse(args) // ExitOnError: flag itself exits on a bad flag or -h
	if *workload < 1 || *workload > 3 || *size < 1 || *n < 2 {
		return fmt.Errorf("%w: -workload %d -size %d -n %d: want a workload of 1, 2 or 3, a size >= 1 and n >= 2",
			errUsage, *workload, *size, *n)
	}

	ds, err := synthdata.ByName(*dataset)
	if err != nil {
		return err
	}
	d, err := device.Profile(*dev)
	if err != nil {
		return err
	}
	defer d.Close()
	backend, err := scenario.Lookup(core.Renderer(*rendererName))
	if err != nil {
		return err
	}
	grid := synthdata.Grid(ds.FieldName, ds.Func, *n, *n, *n, synthdata.UnitBounds())

	// One scene drives every backend. Surface techniques plot the
	// dataset's isosurface (not the block's external faces, which would
	// just be the bounding box); volume techniques consume the grid.
	sc, err := scenario.SceneFromGrid(d, grid, ds.FieldName, render.Camera{}, *size, *size)
	if err != nil {
		return err
	}
	bounds := grid.Bounds()
	if spec, ok := core.LookupRenderer(core.Renderer(*rendererName)); ok && spec.Surface {
		iso, err := grid.Isosurface(d, ds.FieldName, ds.Isovalue, mesh.IsoOptions{})
		if err != nil {
			return err
		}
		sc.SetSurface(iso)
		bounds = iso.Bounds()
	}
	sc.Camera = render.OrbitCamera(bounds, *azimuth, 20, *zoom)
	sc.RTWorkload = *workload
	sc.SamplesZ = *samples

	runner, err := backend.Prepare(sc)
	if err != nil {
		return err
	}
	in := core.Inputs{Pixels: float64(*size * *size), Tasks: 1}
	elapsed, img, err := runner.RenderFrame(&in)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s: %.0f objects, %.0f active pixels, %s",
		*rendererName, in.O, in.AP, elapsed.Round(time.Millisecond))
	if b := runner.BuildSeconds(); b > 0 {
		fmt.Fprintf(stdout, " (+%.0fms build)", b*1e3)
	}
	fmt.Fprintln(stdout)
	if err := img.SavePNG(*out); err != nil {
		return err
	}
	fmt.Fprintln(stdout, "wrote", *out)
	return nil
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
