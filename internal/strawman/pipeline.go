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
// The renderer name selects a scenario backend; when a structured-only
// backend meets an unstructured block, the "<name>-unstructured" backend
// of the same family takes over (the Lagrangian proxy's volume plots).
//
//insitu:arena
func (s *Strawman) renderPlot(p plot, w, h int, cs cameraSpec) (*framebuffer.Image, error) {
	pm, err := scenario.ParseMesh(s.data)
	var vals []float64
	if err == nil {
		vals, err = pm.FieldValues(p.variable)
	}
	var backend scenario.Backend
	if err == nil {
		backend, err = lookupBackend(p.renderer, pm)
	}
	// Resolve rank-local failures collectively before the first
	// reduction: either every task proceeds or every task returns.
	//insitu:collective-ok failure is collectively agreed by errBarrier above
	if err = s.errBarrier(err); err != nil {
		return nil, err
	}

	// Global bounds and scalar range keep cameras and color maps
	// consistent across tasks.
	lb := pm.LocalBounds()
	gb := lb
	flo, fhi := scenario.FieldRange(vals)
	if s.comm != nil {
		gb.Min.X = s.comm.AllReduceMin(lb.Min.X)
		gb.Min.Y = s.comm.AllReduceMin(lb.Min.Y)
		gb.Min.Z = s.comm.AllReduceMin(lb.Min.Z)
		gb.Max.X = s.comm.AllReduceMax(lb.Max.X)
		gb.Max.Y = s.comm.AllReduceMax(lb.Max.Y)
		gb.Max.Z = s.comm.AllReduceMax(lb.Max.Z)
		flo = s.comm.AllReduceMin(flo)
		fhi = s.comm.AllReduceMax(fhi)
	}
	cam := cs.build(gb)

	sc := scenario.NewScene(s.dev, pm, p.variable, vals, cam, w, h)
	sc.FieldLo, sc.FieldHi = flo, fhi
	runner, err := backend.Prepare(sc)
	var img *framebuffer.Image
	if err == nil {
		var in core.Inputs
		_, img, err = runner.RenderFrame(&in)
	}
	// Same agreement before the compositing collectives below.
	//insitu:collective-ok failure is collectively agreed by errBarrier above
	if err = s.errBarrier(err); err != nil {
		return nil, err
	}

	if s.comm == nil {
		return img, nil
	}

	// Sort-last compositing: depth for surfaces, visibility-ordered blend
	// for volumes.
	op := backend.CompositeOp()
	var order []int
	if op == composite.BlendOp {
		depth := lb.Center().Sub(cam.Position).Length()
		parts := s.comm.Gather(0, []float32{float32(depth)})
		var orderF []float32
		if s.comm.Rank() == 0 {
			depths := make([]float64, s.comm.Size())
			for r, p := range parts {
				depths[r] = float64(p[0])
			}
			o := composite.VisibilityOrder(depths)
			orderF = make([]float32, len(o))
			for i, r := range o {
				orderF[i] = float32(r)
			}
		} else {
			orderF = make([]float32, s.comm.Size())
		}
		orderF = s.comm.Bcast(0, orderF)
		order = make([]int, len(orderF))
		for i, f := range orderF {
			order[i] = int(f)
		}
	}
	out, _, err := composite.BinarySwap().Composite(s.comm, img, op, order)
	if err != nil {
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

// errBarrier is the two-phase error exchange from cluster/shard.go: every
// task reduces a failure flag before anyone acts on a rank-local error,
// so either all tasks return an error or none do and no task is left
// blocking in a collective its peers skipped.
func (s *Strawman) errBarrier(err error) error {
	if s.comm == nil {
		return err
	}
	flag := 0.0
	if err != nil {
		flag = 1
	}
	if s.comm.AllReduceMax(flag) > 0 {
		if err == nil {
			err = fmt.Errorf("peer task failed preparing the plot")
		}
		return err
	}
	return nil
}
