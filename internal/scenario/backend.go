package scenario

import (
	"fmt"
	"sort"
	"time"

	"insitu/internal/bvh"
	"insitu/internal/composite"
	"insitu/internal/core"
	"insitu/internal/device"
	"insitu/internal/framebuffer"
	"insitu/internal/mesh"
	"insitu/internal/render"
	"insitu/internal/render/volume"
	"insitu/internal/vecmath"
)

// FrameRunner renders frames of one prepared scene. A runner is bound to
// a single task's scene and is not safe for concurrent use; the harness
// that measures it owns the call discipline (warm-up frame, kept-frame
// averaging).
type FrameRunner interface {
	// RenderFrame renders one frame, filling in the per-frame workload
	// inputs the backend's model terms consume (O, AP, and the technique's
	// specific measures). Prefilled configuration inputs (Pixels, Tasks)
	// are left untouched. The image lives in the runner's frame arena and
	// is valid until its next RenderFrame.
	RenderFrame(in *core.Inputs) (time.Duration, *framebuffer.Image, error)
	// BuildSeconds is the one-time acceleration-structure construction
	// cost (0 for techniques without one).
	BuildSeconds() float64
	// SetCamera repoints the camera for subsequent frames. Geometry and
	// acceleration structures are camera-independent for every modeled
	// technique, so a serving path reuses one prepared runner across
	// camera angles through this instead of re-preparing the scene.
	SetCamera(cam render.Camera)
}

// PreparedScene is what a backend's one-time setup builds from a Scene:
// the geometry and acceleration structures the technique renders, the
// scalar range every frame is colored with, and the block's bounds. It
// holds nothing a frame writes, so any number of arenas may render one
// prepared scene at once, each at its own size, camera and workload.
// Treat it as immutable once prepared.
type PreparedScene struct {
	// Backend is the technique that prepared the scene; its arenas
	// render it.
	Backend Backend
	// Bounds is the parsed block's spatial extent, the box an orbit
	// camera frames (zero for prebuilt-geometry scenes, which are
	// rendered from their Scene's camera).
	Bounds vecmath.AABB
	// BuildSeconds is the one-time acceleration-structure construction
	// cost (0 for techniques without one).
	BuildSeconds float64

	fieldRange [2]float64
	surface    *mesh.TriangleMesh // ray tracing (with bvh) and rasterization
	bvh        *bvh.BVH
	grid       *volume.StructuredScene
	tets       *mesh.TetMesh
}

// Frame is what one rendering of a prepared scene asks for.
type Frame struct {
	Width, Height int
	Camera        render.Camera
	// RTWorkload selects the ray tracing pipeline depth (1, 2 or 3; 0 is
	// the paper's shaded Workload2).
	RTWorkload int
	// SamplesZ is the depth sampling density of the volume techniques (0
	// uses the renderer's default).
	SamplesZ int
}

// Arena is one goroutine's renderer of one backend on one device: the
// frame buffers, scratch and kernels a frame writes. It renders any
// scene its backend prepared, at any Frame, and keeps its buffers
// across frames, so a steady-state frame allocates nothing. An Arena is
// not safe for concurrent use.
type Arena interface {
	// Render draws one frame of ps, which its backend prepared, and fills
	// in the frame's model inputs as FrameRunner.RenderFrame does. The
	// image lives in the arena and is valid until its next Render.
	Render(ps *PreparedScene, f Frame, in *core.Inputs) (time.Duration, *framebuffer.Image, error)
}

// Backend is one rendering technique: its compositing needs, its
// data-shape constraints, and how it prepares scenes and renders them.
// Its model form — how frame stats map to core.Inputs terms — is core's
// spec of the same renderer name.
type Backend interface {
	// CompositeOp is the sort-last compositing operator the backend's
	// images need (depth for surfaces, visibility-ordered blend for
	// volumes).
	CompositeOp() composite.Op
	// NeedsStructured reports that the backend can only consume
	// structured blocks (mirroring the paper's "not all combinations made
	// sense": the structured volume renderer cannot eat the Lagrangian
	// proxy's unstructured mesh).
	NeedsStructured() bool
	// PrepareScene performs the one-time setup (geometry extraction,
	// acceleration structures) on sc.Dev. The scene's camera, size and
	// workload are not read: they belong to frames.
	PrepareScene(sc *Scene) (*PreparedScene, error)
	// NewArena returns an empty arena rendering on dev.
	NewArena(dev *device.Device) Arena
	// Prepare is PrepareScene plus a private arena on sc.Dev, rendering
	// the scene's camera, size and workload.
	Prepare(sc *Scene) (FrameRunner, error)
}

// backend is every technique's Backend: the per-technique parts are its
// compositing operator, its shape constraint, its setup and its arena.
type backend struct {
	op         composite.Op
	structured bool
	prepare    func(sc *Scene, ps *PreparedScene) error
	newArena   func(dev *device.Device) Arena
}

func (b *backend) CompositeOp() composite.Op         { return b.op }
func (b *backend) NeedsStructured() bool             { return b.structured }
func (b *backend) NewArena(dev *device.Device) Arena { return b.newArena(dev) }

func (b *backend) PrepareScene(sc *Scene) (*PreparedScene, error) {
	lo, hi := sc.FieldRange()
	ps := &PreparedScene{Backend: b, fieldRange: [2]float64{lo, hi}}
	if sc.Mesh != nil {
		ps.Bounds = sc.Mesh.LocalBounds()
	}
	if err := b.prepare(sc, ps); err != nil {
		return nil, err
	}
	return ps, nil
}

func (b *backend) Prepare(sc *Scene) (FrameRunner, error) {
	ps, err := b.PrepareScene(sc)
	if err != nil {
		return nil, err
	}
	return &sceneRunner{
		arena: b.newArena(sc.Dev),
		scene: ps,
		frame: Frame{Width: sc.Width, Height: sc.Height, Camera: sc.Camera, RTWorkload: sc.RTWorkload, SamplesZ: sc.SamplesZ},
	}, nil
}

// sceneRunner is the FrameRunner Prepare returns: one scene on one
// arena at one frame setting.
type sceneRunner struct {
	arena Arena
	scene *PreparedScene
	frame Frame
}

func (r *sceneRunner) RenderFrame(in *core.Inputs) (time.Duration, *framebuffer.Image, error) {
	return r.arena.Render(r.scene, r.frame, in)
}
func (r *sceneRunner) BuildSeconds() float64       { return r.scene.BuildSeconds }
func (r *sceneRunner) SetCamera(cam render.Camera) { r.frame.Camera = cam }

// backends is every rendering technique, keyed by the renderer name used
// in study configs, model keys, registry snapshots, and the HTTP API.
// Each name has a core.RendererSpec; compositing is the one spec that is
// not a backend.
var backends = map[core.Renderer]Backend{
	core.RayTrace:           &backend{op: composite.DepthOp, prepare: prepareRaytrace, newArena: newRaytraceArena},
	core.Raster:             &backend{op: composite.DepthOp, prepare: prepareRaster, newArena: newRasterArena},
	core.Volume:             &backend{op: composite.BlendOp, structured: true, prepare: prepareVolume, newArena: newVolumeArena},
	core.VolumeUnstructured: &backend{op: composite.BlendOp, prepare: prepareTets, newArena: newTetsArena},
}

// Lookup returns the backend for a renderer name, with an error that
// names the alternatives — the message a study config or an HTTP request
// with a typo'd renderer ultimately surfaces.
func Lookup(name core.Renderer) (Backend, error) {
	b, ok := backends[name]
	if !ok {
		return nil, fmt.Errorf("scenario: unknown renderer %q (registered: %v)", name, Names())
	}
	return b, nil
}

// Names returns the backend names, sorted for deterministic plan
// generation.
func Names() []core.Renderer {
	out := make([]core.Renderer, 0, len(backends))
	for name := range backends {
		out = append(out, name)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
