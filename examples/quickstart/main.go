// Quickstart: build a synthetic dataset, extract an isosurface, ray trace
// it, and write a PNG — the library's shortest end-to-end path.
package main

import (
	"fmt"
	"log"

	"insitu/internal/device"
	"insitu/internal/mesh"
	"insitu/internal/mesh/synthdata"
	"insitu/internal/render"
	"insitu/internal/render/raytrace"
)

func main() {
	// A Richtmyer-Meshkov-style mixing layer sampled on a 48^3 grid.
	ds, err := synthdata.ByName("rm")
	if err != nil {
		log.Fatal(err)
	}
	grid := synthdata.Grid(ds.FieldName, ds.Func, 48, 48, 48, synthdata.UnitBounds())

	// Extract the density isosurface with marching tetrahedra.
	dev := device.CPU()
	iso, err := grid.Isosurface(dev, ds.FieldName, ds.Isovalue, mesh.IsoOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("isosurface: %d triangles\n", iso.NumTriangles())

	// Ray trace the full algorithm (Workload3): 4x supersampling, stream
	// compaction, ambient occlusion and shadows.
	cam := render.OrbitCamera(iso.Bounds(), 30, 20, 1.4)
	rdr := raytrace.New(dev, iso)
	img, stats, err := rdr.Render(raytrace.Options{
		Width: 640, Height: 480,
		Camera:   cam,
		Workload: raytrace.Workload3,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("render: %s (BVH build %s, %d rays)\n",
		stats.Phases.Total().Round(1e6), stats.BVHBuild.Round(1e6), stats.TotalRays)

	if err := img.SavePNG("quickstart.png"); err != nil {
		log.Fatal(err)
	}
	fmt.Println("wrote quickstart.png")
}
