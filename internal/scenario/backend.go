package scenario

import (
	"fmt"
	"sort"
	"time"

	"insitu/internal/composite"
	"insitu/internal/core"
	"insitu/internal/device"
	"insitu/internal/framebuffer"
	"insitu/internal/render"
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

// Forker is a FrameRunner whose prepared scene can back another runner.
// Fork returns a runner on dev that shares the receiver's read-only
// state (geometry, acceleration structure, build time) and owns its
// frame arena, so the two render concurrently and draw the same frames.
// The fork's camera is unset until SetCamera. Fork may run while the
// receiver renders on another goroutine.
type Forker interface {
	Fork(dev *device.Device) FrameRunner
}

// Backend is one rendering technique: its compositing needs, its
// data-shape constraints, and how it prepares frame runners from scenes.
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
	// Prepare builds a frame runner for the scene, performing any
	// one-time setup (geometry extraction, acceleration structures).
	Prepare(sc *Scene) (FrameRunner, error)
}

// backends is every rendering technique, keyed by the renderer name used
// in study configs, model keys, registry snapshots, and the HTTP API.
// Each name has a core.RendererSpec; compositing is the one spec that is
// not a backend.
var backends = map[core.Renderer]Backend{
	core.RayTrace:           raytraceBackend{},
	core.Raster:             rasterBackend{},
	core.Volume:             volumeBackend{},
	core.VolumeUnstructured: volumeUnstructuredBackend{},
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
