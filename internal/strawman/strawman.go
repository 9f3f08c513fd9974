// Package strawman is the light-weight batch in situ visualization
// infrastructure (Chapter IV): simulations describe their meshes with
// conduit conventions and Publish them zero-copy, then Execute a small
// action list (add_plot / draw_plots / save_image). The pipeline renders
// each task's block with the data-parallel renderers, composites with the
// sort-last compositor, writes PNGs, and can stream the latest image to a
// web browser.
package strawman

import (
	"fmt"
	"time"

	"insitu/internal/comm"
	"insitu/internal/conduit"
	"insitu/internal/device"
	"insitu/internal/framebuffer"
	"insitu/internal/render"
	"insitu/internal/vecmath"
)

// Strawman is one task's in situ endpoint.
type Strawman struct {
	dev    *device.Device
	comm   *comm.Comm // nil when running serially
	data   *conduit.Node
	server *ImageServer
	// LastVisTime records the wall time of the most recent Execute, the
	// "simulation burden" measurement of Table 11.
	LastVisTime time.Duration
	// LastImages holds the composited images produced by the most recent
	// Execute (rank 0 only), keyed by output file name.
	LastImages map[string]*framebuffer.Image
}

// Open initializes the infrastructure from a conduit options node:
//
//	device:   device profile name (default "cpu")
//	mpi_comm: a *comm.Comm stored with SetExternal (optional)
//	web/port: local port to stream images to (optional)
func Open(options *conduit.Node) (*Strawman, error) {
	s := &Strawman{LastImages: map[string]*framebuffer.Image{}}
	profile := "cpu"
	if options != nil {
		profile = options.StringOr("device", "cpu")
	}
	dev, err := device.Profile(profile)
	if err != nil {
		return nil, fmt.Errorf("strawman: %w", err)
	}
	s.dev = dev
	if options != nil {
		if n, ok := options.Get("mpi_comm"); ok {
			c, ok := n.Value().(*comm.Comm)
			if !ok {
				return nil, fmt.Errorf("strawman: mpi_comm holds %T, want *comm.Comm", n.Value())
			}
			s.comm = c
		}
		if port := options.IntOr("web/port", 0); port > 0 && (s.comm == nil || s.comm.Rank() == 0) {
			srv, err := StartImageServer(fmt.Sprintf("127.0.0.1:%d", port))
			if err != nil {
				return nil, fmt.Errorf("strawman: web server: %w", err)
			}
			s.server = srv
		}
	}
	return s, nil
}

// Publish registers the simulation's current state description. The node
// is referenced, not copied, so external arrays stay zero-copy (R11); the
// simulation retains ownership (R5).
func (s *Strawman) Publish(data *conduit.Node) error {
	if data == nil {
		return fmt.Errorf("strawman: Publish(nil)")
	}
	s.data = data
	return nil
}

// plot is one requested rendering.
type plot struct {
	variable string
	renderer string // "raytracer", "rasterizer", "volume"
}

// Execute runs an action list:
//
//	{action: "add_plot",  var: <field>, renderer: <name>}
//	{action: "draw_plots"}
//	{action: "save_image", fileName: <path sans .png>, width, height}
//
// matching the paper's Strawman interface. Rendering happens at
// save_image; images land on rank 0.
func (s *Strawman) Execute(actions *conduit.Node) error {
	if s.data == nil {
		return fmt.Errorf("strawman: Execute before Publish")
	}
	start := time.Now()
	defer func() { s.LastVisTime = time.Since(start) }()

	var plots []plot
	for _, a := range actions.List() {
		kind, err := a.String("action")
		if err != nil {
			return fmt.Errorf("strawman: action without kind: %w", err)
		}
		switch kind {
		case "add_plot":
			v, err := a.String("var")
			if err != nil {
				return fmt.Errorf("strawman: add_plot: %w", err)
			}
			plots = append(plots, plot{
				variable: v,
				renderer: a.StringOr("renderer", "raytracer"),
			})
		case "draw_plots":
			// Rendering is deferred to save_image in this batch pipeline;
			// the action is accepted for interface compatibility.
		case "save_image":
			name, err := a.String("fileName")
			if err != nil {
				return fmt.Errorf("strawman: save_image: %w", err)
			}
			w := a.IntOr("width", 512)
			h := a.IntOr("height", 512)
			camera := cameraFromAction(a)
			if len(plots) == 0 {
				return fmt.Errorf("strawman: save_image %q with no plots added", name)
			}
			for _, p := range plots {
				img, err := s.renderPlot(p, w, h, camera)
				if err != nil {
					return fmt.Errorf("strawman: plot %q: %w", p.variable, err)
				}
				if img != nil { // rank 0 (or serial)
					// renderPlot's image is frame-arena owned: the next
					// plot in this loop would overwrite it in place, so
					// keep a deep copy.
					kept := img.Clone()
					s.LastImages[name] = kept
					if a.StringOr("format", "png") == "png" {
						if err := kept.SavePNG(name + ".png"); err != nil {
							return fmt.Errorf("strawman: saving %q: %w", name, err)
						}
					}
					if s.server != nil {
						s.server.Update(kept)
					}
				}
			}
		default:
			return fmt.Errorf("strawman: unknown action %q", kind)
		}
	}
	return nil
}

// cameraFromAction reads optional camera overrides.
func cameraFromAction(a *conduit.Node) cameraSpec {
	return cameraSpec{
		azimuth:   a.FloatOr("camera/azimuth", 30),
		elevation: a.FloatOr("camera/elevation", 20),
		zoom:      a.FloatOr("camera/zoom", 1.0),
	}
}

type cameraSpec struct {
	azimuth, elevation, zoom float64
}

func (cs cameraSpec) build(b vecmath.AABB) render.Camera {
	return render.OrbitCamera(b, cs.azimuth, cs.elevation, cs.zoom)
}

// Close shuts the infrastructure down.
func (s *Strawman) Close() error {
	if s.server != nil {
		return s.server.Close()
	}
	return nil
}
