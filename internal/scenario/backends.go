package scenario

import (
	"fmt"
	"time"

	"insitu/internal/core"
	"insitu/internal/device"
	"insitu/internal/framebuffer"
	"insitu/internal/mesh"
	"insitu/internal/render/raster"
	"insitu/internal/render/raytrace"
	"insitu/internal/render/volume"
)

// Each technique below is its one-time setup, which fills a
// PreparedScene, and its arena, which repoints a renderer with no scene
// of its own at the prepared one for every frame.

// --- ray tracing ---

func prepareRaytrace(sc *Scene, ps *PreparedScene) error {
	tri, err := sc.SurfaceMesh()
	if err != nil {
		return err
	}
	raytrace.New(sc.Dev, tri) // warm-up build (cold-cache effects)
	rdr := raytrace.New(sc.Dev, tri)
	ps.surface, ps.bvh, ps.BuildSeconds = rdr.Mesh, rdr.BVH, rdr.BVH.BuildTime.Seconds()
	return nil
}

type raytraceArena struct{ rdr *raytrace.Renderer }

func newRaytraceArena(dev *device.Device) Arena {
	return &raytraceArena{&raytrace.Renderer{Dev: dev}}
}

func (a *raytraceArena) Render(ps *PreparedScene, f Frame, in *core.Inputs) (time.Duration, *framebuffer.Image, error) {
	a.rdr.Mesh, a.rdr.BVH = ps.surface, ps.bvh
	start := time.Now()
	img, st, err := a.rdr.Render(raytrace.Options{
		Width: f.Width, Height: f.Height, Camera: f.Camera, Workload: raytrace.Workload(f.RTWorkload),
	})
	if err != nil {
		return 0, nil, err
	}
	in.O = float64(st.Objects)
	in.AP = float64(st.ActivePixels)
	return time.Since(start), img, nil
}

// --- rasterization ---

func prepareRaster(sc *Scene, ps *PreparedScene) error {
	tri, err := sc.SurfaceMesh()
	if err != nil {
		return err
	}
	ps.surface = raster.New(sc.Dev, tri).Mesh
	return nil
}

type rasterArena struct{ rdr *raster.Renderer }

func newRasterArena(dev *device.Device) Arena { return &rasterArena{&raster.Renderer{Dev: dev}} }

func (a *rasterArena) Render(ps *PreparedScene, f Frame, in *core.Inputs) (time.Duration, *framebuffer.Image, error) {
	a.rdr.Mesh = ps.surface
	start := time.Now()
	img, st, err := a.rdr.Render(raster.Options{Width: f.Width, Height: f.Height, Camera: f.Camera})
	if err != nil {
		return 0, nil, err
	}
	in.O = float64(st.Objects)
	in.AP = float64(st.ActivePixels)
	in.VO = float64(st.VisibleObjects)
	in.PPT = st.PPT()
	return time.Since(start), img, nil
}

// --- structured volume rendering ---

func prepareVolume(sc *Scene, ps *PreparedScene) error {
	g := sc.Grid()
	if g == nil {
		return fmt.Errorf("scenario: %q needs a structured block", core.Volume)
	}
	if _, ok := g.Fields[sc.FieldName]; !ok {
		if err := g.AddField(sc.FieldName, mesh.VertexAssoc, sc.Values); err != nil {
			return err
		}
	}
	vs, err := volume.NewStructuredScene(g, sc.FieldName)
	if err != nil {
		return err
	}
	ps.grid = vs
	return nil
}

type volumeArena struct{ rdr *volume.StructuredRenderer }

func newVolumeArena(dev *device.Device) Arena {
	return &volumeArena{&volume.StructuredRenderer{Dev: dev}}
}

func (a *volumeArena) Render(ps *PreparedScene, f Frame, in *core.Inputs) (time.Duration, *framebuffer.Image, error) {
	a.rdr.Scene = ps.grid
	start := time.Now()
	img, st, err := a.rdr.Render(volume.StructuredOptions{
		Width: f.Width, Height: f.Height,
		Camera: f.Camera, FieldRange: ps.fieldRange,
		Samples: f.SamplesZ,
	})
	if err != nil {
		return 0, nil, err
	}
	in.O = float64(st.Objects)
	in.AP = float64(st.ActivePixels)
	in.SPR = st.SPR()
	in.CS = float64(st.CellsSpanned)
	return time.Since(start), img, nil
}

// --- unstructured (tetrahedral) volume rendering ---

func prepareTets(sc *Scene, ps *PreparedScene) error {
	tm, err := sc.TetMesh()
	if err != nil {
		return err
	}
	ps.tets = volume.NewUnstructured(sc.Dev, tm).Mesh
	return nil
}

type tetsArena struct{ rdr *volume.UnstructuredRenderer }

func newTetsArena(dev *device.Device) Arena {
	return &tetsArena{&volume.UnstructuredRenderer{Dev: dev}}
}

func (a *tetsArena) Render(ps *PreparedScene, f Frame, in *core.Inputs) (time.Duration, *framebuffer.Image, error) {
	a.rdr.Mesh = ps.tets
	start := time.Now()
	img, st, err := a.rdr.Render(volume.UnstructuredOptions{
		Width: f.Width, Height: f.Height,
		Camera: f.Camera, FieldRange: ps.fieldRange,
		SamplesZ: f.SamplesZ,
	})
	if err != nil {
		return 0, nil, err
	}
	in.O = float64(st.Objects)
	in.AP = float64(st.ActivePixels)
	if st.ActivePixels > 0 {
		in.SPR = float64(st.TotalSamples) / float64(st.ActivePixels)
	} else {
		in.SPR = 0
	}
	return time.Since(start), img, nil
}
