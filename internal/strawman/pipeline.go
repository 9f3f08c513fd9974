package strawman

import (
	"fmt"

	"insitu/internal/composite"
	"insitu/internal/core"
	"insitu/internal/framebuffer"
	"insitu/internal/scenario"
)

// renderPlot renders one plot across the world and returns the composited
// image at rank 0 (nil elsewhere; serial runs always return the image).
// It runs the sort-last frame protocol of scenario.Group, the one the
// study measures and the serving fleet runs. The renderer name selects a
// scenario backend; when a structured-only backend meets an unstructured
// block, the "<name>-unstructured" backend of the same family takes over
// (the Lagrangian proxy's volume plots).
//
//insitu:arena
func (s *Strawman) renderPlot(p plot, w, h int, cs cameraSpec) (*framebuffer.Image, error) {
	g := scenario.NewGroup(s.comm)
	// Local, fallible setup: a failure is agreed across the world before
	// any task acts on it.
	sd, err := scenario.ShardFromBlock(s.data, p.variable)
	var backend scenario.Backend
	if err == nil {
		backend, err = lookupBackend(p.renderer, sd.Mesh)
	}
	view := g.ReduceView(sd)
	cam := cs.build(view.Bounds)
	var img *framebuffer.Image
	if err == nil {
		var runner scenario.FrameRunner
		if runner, err = backend.Prepare(view.Scene(s.dev, sd, cam, w, h)); err == nil {
			var in core.Inputs
			_, img, err = runner.RenderFrame(&in)
		}
	}
	if err = g.Agree(err); err != nil {
		return nil, err
	}
	op := backend.CompositeOp()
	out, _, err := g.Composite(composite.BinarySwap(), img, op, g.BlendOrder(op, sd.LocalBounds, cam))
	if err = g.Agree(err); err != nil {
		return nil, err
	}
	return out, nil
}

// lookupBackend resolves the plot's renderer, falling back to the
// "<name>-unstructured" family member when a structured-only backend
// meets an unstructured block.
func lookupBackend(renderer string, pm *scenario.ParsedMesh) (scenario.Backend, error) {
	backend, err := scenario.Lookup(core.Renderer(renderer))
	if err != nil {
		return nil, fmt.Errorf("unknown renderer %q: %w", renderer, err)
	}
	if backend.NeedsStructured() && pm.Grid == nil {
		fallback, ferr := scenario.Lookup(core.Renderer(renderer) + "-unstructured")
		if ferr != nil {
			return nil, fmt.Errorf("renderer %q needs a structured block and no unstructured fallback is registered", renderer)
		}
		backend = fallback
	}
	return backend, nil
}
