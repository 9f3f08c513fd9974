package insitu

import (
	"fmt"
	"testing"

	"insitu/internal/cluster"
	"insitu/internal/comm"
	"insitu/internal/conduit"
	"insitu/internal/core"
	"insitu/internal/device"
	"insitu/internal/framebuffer"
	"insitu/internal/mesh"
	"insitu/internal/mesh/synthdata"
	"insitu/internal/render"
	"insitu/internal/render/raster"
	"insitu/internal/render/raytrace"
	"insitu/internal/render/volume"
	"insitu/internal/sim"
	"insitu/internal/strawman"
	"insitu/internal/study"
)

// detDevices returns the serial reference device and a deliberately
// awkward parallel profile (many workers, tiny grain, vector packets) so
// scheduling nondeterminism would have every chance to show.
func detDevices() (*device.Device, *device.Device) {
	serial := device.Serial()
	par := device.New("det-parallel", 7)
	par.Grain = 16
	par.VectorWidth = 4
	return serial, par
}

func imagesEqual(t *testing.T, name string, a, b *framebuffer.Image) {
	t.Helper()
	if a.W != b.W || a.H != b.H {
		t.Fatalf("%s: image sizes differ: %dx%d vs %dx%d", name, a.W, a.H, b.W, b.H)
	}
	for i := range a.Color {
		if a.Color[i] != b.Color[i] {
			t.Fatalf("%s: color channel %d differs: %v vs %v", name, i, a.Color[i], b.Color[i])
		}
	}
	for i := range a.Depth {
		if a.Depth[i] != b.Depth[i] {
			t.Fatalf("%s: depth %d differs: %v vs %v", name, i, a.Depth[i], b.Depth[i])
		}
	}
}

// TestParallelSerialImagesByteIdentical is the determinism contract of
// the pooled execution model: for every renderer, a parallel device with
// aggressive chunking produces exactly the image the serial device does —
// per-pixel kernels, chunk-ordered reductions, and order-independent
// atomic merges leave no schedule dependence.
func TestParallelSerialImagesByteIdentical(t *testing.T) {
	ds, err := synthdata.ByName("rm")
	if err != nil {
		t.Fatal(err)
	}
	g := synthdata.Grid(ds.FieldName, ds.Func, 14, 14, 14, synthdata.UnitBounds())
	cam := render.OrbitCamera(g.Bounds(), 30, 20, 1.0)
	serial, par := detDevices()

	t.Run("raytrace", func(t *testing.T) {
		m, err := g.Isosurface(device.Serial(), ds.FieldName, ds.Isovalue, mesh.IsoOptions{})
		if err != nil {
			t.Fatal(err)
		}
		opts := raytrace.Options{
			Width: 72, Height: 56, Camera: render.OrbitCamera(m.Bounds(), 30, 20, 1.0),
			Workload: raytrace.Workload3, Compaction: true, Supersample: true, AOSamples: 2,
		}
		imgS, _, err := raytrace.New(serial, m).Render(opts)
		if err != nil {
			t.Fatal(err)
		}
		ref := imgS.Clone()
		imgP, _, err := raytrace.New(par, m).Render(opts)
		if err != nil {
			t.Fatal(err)
		}
		imagesEqual(t, "raytrace", ref, imgP)

		// Packetized traversal on the parallel device must also agree.
		opts.UsePackets = true
		imgPk, _, err := raytrace.New(par, m).Render(opts)
		if err != nil {
			t.Fatal(err)
		}
		imagesEqual(t, "raytrace-packets", ref, imgPk)
	})

	t.Run("raster", func(t *testing.T) {
		m, err := g.Isosurface(device.Serial(), ds.FieldName, ds.Isovalue, mesh.IsoOptions{})
		if err != nil {
			t.Fatal(err)
		}
		opts := raster.Options{Width: 72, Height: 56, Camera: render.OrbitCamera(m.Bounds(), 30, 20, 1.0)}
		imgS, _, err := raster.New(serial, m).Render(opts)
		if err != nil {
			t.Fatal(err)
		}
		ref := imgS.Clone()
		imgP, _, err := raster.New(par, m).Render(opts)
		if err != nil {
			t.Fatal(err)
		}
		imagesEqual(t, "raster", ref, imgP)
	})

	t.Run("volume-structured", func(t *testing.T) {
		opts := volume.StructuredOptions{Width: 72, Height: 56, Camera: cam, Samples: 96}
		rs, err := volume.NewStructured(serial, g, ds.FieldName)
		if err != nil {
			t.Fatal(err)
		}
		imgS, _, err := rs.Render(opts)
		if err != nil {
			t.Fatal(err)
		}
		ref := imgS.Clone()
		rp, err := volume.NewStructured(par, g, ds.FieldName)
		if err != nil {
			t.Fatal(err)
		}
		imgP, _, err := rp.Render(opts)
		if err != nil {
			t.Fatal(err)
		}
		imagesEqual(t, "volume-structured", ref, imgP)
	})

	t.Run("volume-unstructured", func(t *testing.T) {
		tm, err := g.Tetrahedralize(ds.FieldName)
		if err != nil {
			t.Fatal(err)
		}
		for _, passes := range []int{1, 3} {
			opts := volume.UnstructuredOptions{
				Width: 72, Height: 56, Camera: cam, SamplesZ: 96, Passes: passes,
			}
			imgS, _, err := volume.NewUnstructured(serial, tm).Render(opts)
			if err != nil {
				t.Fatal(err)
			}
			ref := imgS.Clone()
			imgP, _, err := volume.NewUnstructured(par, tm).Render(opts)
			if err != nil {
				t.Fatal(err)
			}
			imagesEqual(t, fmt.Sprintf("volume-unstructured/passes=%d", passes), ref, imgP)
		}
	})
}

// TestPooledReuseFramesIdentical is the stale-state check: rendering the
// same frame twice through one renderer must be byte-identical, proving
// the reused arenas (ray SoA, occlusion/shadow terms, slab buffers,
// framebuffers) are fully re-initialized between frames.
func TestPooledReuseFramesIdentical(t *testing.T) {
	ds, err := synthdata.ByName("nek")
	if err != nil {
		t.Fatal(err)
	}
	g := synthdata.Grid(ds.FieldName, ds.Func, 12, 12, 12, synthdata.UnitBounds())
	cam := render.OrbitCamera(g.Bounds(), 30, 20, 1.0)
	dev := device.New("reuse", 3)
	dev.Grain = 32

	t.Run("raytrace", func(t *testing.T) {
		m, err := g.Isosurface(device.Serial(), ds.FieldName, ds.Isovalue, mesh.IsoOptions{})
		if err != nil {
			t.Fatal(err)
		}
		r := raytrace.New(dev, m)
		opts := raytrace.Options{
			Width: 64, Height: 48, Camera: render.OrbitCamera(m.Bounds(), 30, 20, 1.0),
			Workload: raytrace.Workload3, Compaction: true, Supersample: true, AOSamples: 2,
			Reflections: true,
		}
		img1, _, err := r.Render(opts)
		if err != nil {
			t.Fatal(err)
		}
		ref := img1.Clone()
		// An intermediate frame with different options tries to poison
		// the arena before the original frame is repeated.
		mid := opts
		mid.Workload = raytrace.Workload2
		mid.Supersample = false
		mid.Reflections = false
		mid.Width, mid.Height = 48, 40
		if _, _, err := r.Render(mid); err != nil {
			t.Fatal(err)
		}
		img2, _, err := r.Render(opts)
		if err != nil {
			t.Fatal(err)
		}
		imagesEqual(t, "raytrace-reuse", ref, img2)
	})

	t.Run("volume-structured", func(t *testing.T) {
		r, err := volume.NewStructured(dev, g, ds.FieldName)
		if err != nil {
			t.Fatal(err)
		}
		opts := volume.StructuredOptions{Width: 64, Height: 48, Camera: cam, Samples: 80}
		img1, _, err := r.Render(opts)
		if err != nil {
			t.Fatal(err)
		}
		ref := img1.Clone()
		if _, _, err := r.Render(volume.StructuredOptions{Width: 40, Height: 32, Camera: cam, Samples: 40}); err != nil {
			t.Fatal(err)
		}
		img2, _, err := r.Render(opts)
		if err != nil {
			t.Fatal(err)
		}
		imagesEqual(t, "volume-structured-reuse", ref, img2)
	})

	t.Run("volume-unstructured", func(t *testing.T) {
		tm, err := g.Tetrahedralize(ds.FieldName)
		if err != nil {
			t.Fatal(err)
		}
		r := volume.NewUnstructured(dev, tm)
		opts := volume.UnstructuredOptions{Width: 64, Height: 48, Camera: cam, SamplesZ: 80, Passes: 2}
		img1, _, err := r.Render(opts)
		if err != nil {
			t.Fatal(err)
		}
		ref := img1.Clone()
		if _, _, err := r.Render(volume.UnstructuredOptions{Width: 40, Height: 32, Camera: cam, SamplesZ: 48}); err != nil {
			t.Fatal(err)
		}
		img2, _, err := r.Render(opts)
		if err != nil {
			t.Fatal(err)
		}
		imagesEqual(t, "volume-unstructured-reuse", ref, img2)
	})

	t.Run("raster", func(t *testing.T) {
		m, err := g.Isosurface(device.Serial(), ds.FieldName, ds.Isovalue, mesh.IsoOptions{})
		if err != nil {
			t.Fatal(err)
		}
		r := raster.New(dev, m)
		opts := raster.Options{Width: 64, Height: 48, Camera: render.OrbitCamera(m.Bounds(), 30, 20, 1.0)}
		img1, _, err := r.Render(opts)
		if err != nil {
			t.Fatal(err)
		}
		ref := img1.Clone()
		if _, _, err := r.Render(raster.Options{Width: 40, Height: 32, Camera: opts.Camera}); err != nil {
			t.Fatal(err)
		}
		img2, _, err := r.Render(opts)
		if err != nil {
			t.Fatal(err)
		}
		imagesEqual(t, "raster-reuse", ref, img2)
	})
}

// TestSortLastPathsAgree is the cross-path contract: the study the
// models are fitted on, the in situ pipeline and the serving fleet run
// one sort-last frame protocol, so at the same decomposition and view a
// strawman save_image is byte-identical to the fleet's standalone frame,
// and the study's reduced model inputs equal the fleet's.
func TestSortLastPathsAgree(t *testing.T) {
	const tasks, n, size = 2, 10, 48
	cases := []struct {
		renderer core.Renderer
		sim      string
	}{
		{core.RayTrace, "kripke"},
		{core.Raster, "lulesh"},
		{core.Volume, "kripke"},
		{core.Volume, "cloverleaf"},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%s/%s", tc.renderer, tc.sim), func(t *testing.T) {
			fleet, err := cluster.RenderStandalone(cluster.Job{
				Backend: string(tc.renderer), Sim: tc.sim, Arch: "serial",
				N: n, Width: size, Height: size, Shards: tasks, Azimuth: 30, Zoom: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			if fleet.Image.ActivePixels() == 0 {
				t.Fatal("fleet frame is empty")
			}

			const file = "frame" // format "none": kept in LastImages, not written
			imgs, err := comm.RunCollect(comm.NewWorld(tasks), func(c *comm.Comm) (*framebuffer.Image, error) {
				sm, err := sim.New(tc.sim, n, tasks, c.Rank())
				if err != nil {
					return nil, err
				}
				sm.Step()
				data := conduit.NewNode()
				sm.Publish(data)
				opts := conduit.NewNode()
				opts.Set("device", "serial")
				opts.SetExternal("mpi_comm", c)
				s, err := strawman.Open(opts)
				if err != nil {
					return nil, err
				}
				defer s.Close()
				if err := s.Publish(data); err != nil {
					return nil, err
				}
				actions := conduit.NewNode()
				add := actions.Append()
				add.Set("action", "add_plot")
				add.Set("var", sm.PrimaryField())
				add.Set("renderer", string(tc.renderer))
				save := actions.Append()
				save.Set("action", "save_image")
				save.Set("fileName", file)
				save.Set("width", size)
				save.Set("height", size)
				save.Set("format", "none")
				if err := s.Execute(actions); err != nil {
					return nil, err
				}
				return s.LastImages[file], nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if imgs[0] == nil {
				t.Fatal("strawman produced no image at rank 0")
			}
			if len(imgs[0].Color) != len(fleet.Image.Color) {
				t.Fatalf("color planes differ in size: %d vs %d", len(imgs[0].Color), len(fleet.Image.Color))
			}
			for i := range fleet.Image.Color {
				if imgs[0].Color[i] != fleet.Image.Color[i] {
					t.Fatalf("in situ color word %d = %v, fleet %v", i, imgs[0].Color[i], fleet.Image.Color[i])
				}
			}

			row, err := study.RunConfig(study.Config{
				Arch: "serial", Renderer: tc.renderer, Sim: tc.sim,
				Tasks: tasks, ImageSize: size, N: n, Frames: 2, Cycles: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			if row.Sample.In != fleet.In {
				t.Errorf("study inputs %+v, fleet %+v", row.Sample.In, fleet.In)
			}
		})
	}
}
