package scenario

import (
	"fmt"
	"time"

	"insitu/internal/composite"
	"insitu/internal/core"
	"insitu/internal/device"
	"insitu/internal/framebuffer"
	"insitu/internal/mesh"
	"insitu/internal/render"
	"insitu/internal/render/raster"
	"insitu/internal/render/raytrace"
	"insitu/internal/render/volume"
)

// --- ray tracing ---

type raytraceBackend struct{}

func (raytraceBackend) CompositeOp() composite.Op { return composite.DepthOp }
func (raytraceBackend) NeedsStructured() bool     { return false }

func (raytraceBackend) Prepare(sc *Scene) (FrameRunner, error) {
	tri, err := sc.SurfaceMesh()
	if err != nil {
		return nil, err
	}
	raytrace.New(sc.Dev, tri) // warm-up build (cold-cache effects)
	rdr := raytrace.New(sc.Dev, tri)
	wl := raytrace.Workload(sc.RTWorkload)
	if wl == 0 {
		wl = raytrace.Workload2
	}
	return &raytraceRunner{
		rdr: rdr,
		opts: raytrace.Options{
			Width: sc.Width, Height: sc.Height,
			Camera: sc.Camera, Workload: wl,
		},
	}, nil
}

type raytraceRunner struct {
	rdr  *raytrace.Renderer
	opts raytrace.Options
}

func (r *raytraceRunner) BuildSeconds() float64       { return r.rdr.BVH.BuildTime.Seconds() }
func (r *raytraceRunner) SetCamera(cam render.Camera) { r.opts.Camera = cam }

// Fork shares the mesh and the BVH; it reads none of the fields a frame
// writes (the camera, the frame arena).
func (r *raytraceRunner) Fork(dev *device.Device) FrameRunner {
	return &raytraceRunner{
		rdr:  &raytrace.Renderer{Dev: dev, Mesh: r.rdr.Mesh, BVH: r.rdr.BVH},
		opts: raytrace.Options{Width: r.opts.Width, Height: r.opts.Height, Workload: r.opts.Workload},
	}
}

func (r *raytraceRunner) RenderFrame(in *core.Inputs) (time.Duration, *framebuffer.Image, error) {
	start := time.Now()
	img, st, err := r.rdr.Render(r.opts)
	if err != nil {
		return 0, nil, err
	}
	in.O = float64(st.Objects)
	in.AP = float64(st.ActivePixels)
	return time.Since(start), img, nil
}

// --- rasterization ---

type rasterBackend struct{}

func (rasterBackend) CompositeOp() composite.Op { return composite.DepthOp }
func (rasterBackend) NeedsStructured() bool     { return false }

func (rasterBackend) Prepare(sc *Scene) (FrameRunner, error) {
	tri, err := sc.SurfaceMesh()
	if err != nil {
		return nil, err
	}
	return &rasterRunner{
		rdr:  raster.New(sc.Dev, tri),
		opts: raster.Options{Width: sc.Width, Height: sc.Height, Camera: sc.Camera},
	}, nil
}

type rasterRunner struct {
	rdr  *raster.Renderer
	opts raster.Options
}

func (r *rasterRunner) BuildSeconds() float64       { return 0 }
func (r *rasterRunner) SetCamera(cam render.Camera) { r.opts.Camera = cam }

func (r *rasterRunner) RenderFrame(in *core.Inputs) (time.Duration, *framebuffer.Image, error) {
	start := time.Now()
	img, st, err := r.rdr.Render(r.opts)
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

type volumeBackend struct{}

func (volumeBackend) CompositeOp() composite.Op { return composite.BlendOp }
func (volumeBackend) NeedsStructured() bool     { return true }

func (volumeBackend) Prepare(sc *Scene) (FrameRunner, error) {
	g := sc.Grid()
	if g == nil {
		return nil, fmt.Errorf("scenario: %q needs a structured block", core.Volume)
	}
	if _, ok := g.Fields[sc.FieldName]; !ok {
		if err := g.AddField(sc.FieldName, mesh.VertexAssoc, sc.Values); err != nil {
			return nil, err
		}
	}
	vr, err := volume.NewStructured(sc.Dev, g, sc.FieldName)
	if err != nil {
		return nil, err
	}
	lo, hi := sc.FieldRange()
	return &volumeRunner{
		rdr: vr,
		opts: volume.StructuredOptions{
			Width: sc.Width, Height: sc.Height,
			Camera: sc.Camera, FieldRange: [2]float64{lo, hi},
			Samples: sc.SamplesZ,
		},
	}, nil
}

type volumeRunner struct {
	rdr  *volume.StructuredRenderer
	opts volume.StructuredOptions
}

func (r *volumeRunner) BuildSeconds() float64       { return 0 }
func (r *volumeRunner) SetCamera(cam render.Camera) { r.opts.Camera = cam }

func (r *volumeRunner) RenderFrame(in *core.Inputs) (time.Duration, *framebuffer.Image, error) {
	start := time.Now()
	img, st, err := r.rdr.Render(r.opts)
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

type volumeUnstructuredBackend struct{}

func (volumeUnstructuredBackend) CompositeOp() composite.Op { return composite.BlendOp }
func (volumeUnstructuredBackend) NeedsStructured() bool     { return false }

func (volumeUnstructuredBackend) Prepare(sc *Scene) (FrameRunner, error) {
	tm, err := sc.TetMesh()
	if err != nil {
		return nil, err
	}
	lo, hi := sc.FieldRange()
	return &volumeUnstructuredRunner{
		rdr: volume.NewUnstructured(sc.Dev, tm),
		opts: volume.UnstructuredOptions{
			Width: sc.Width, Height: sc.Height,
			Camera: sc.Camera, FieldRange: [2]float64{lo, hi},
			SamplesZ: sc.SamplesZ,
		},
	}, nil
}

type volumeUnstructuredRunner struct {
	rdr  *volume.UnstructuredRenderer
	opts volume.UnstructuredOptions
}

func (r *volumeUnstructuredRunner) BuildSeconds() float64       { return 0 }
func (r *volumeUnstructuredRunner) SetCamera(cam render.Camera) { r.opts.Camera = cam }

func (r *volumeUnstructuredRunner) RenderFrame(in *core.Inputs) (time.Duration, *framebuffer.Image, error) {
	start := time.Now()
	img, st, err := r.rdr.Render(r.opts)
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
