// Package sim provides the three proxy physics applications the in situ
// study instruments, standing in for the paper's LULESH, Kripke, and
// CloverLeaf3D: a Lagrangian shock-hydrodynamics proxy on a 3-D
// unstructured hex mesh, a deterministic discrete-ordinates transport
// proxy on a 3-D uniform mesh, and a compressible Euler proxy on a 3-D
// rectilinear mesh. Each evolves a real (if simplified) numerical kernel
// and publishes its state through conduit's mesh conventions with
// zero-copy field references.
//
// Blocks are distributed over tasks with the same unit-domain
// decomposition the datasets use; boundary conditions are block-local
// (no halo exchange), which leaves per-cycle compute cost and the
// published data shapes representative without coupling tasks.
package sim

import (
	"fmt"

	"insitu/internal/conduit"
	"insitu/internal/mesh"
	"insitu/internal/vecmath"
)

// Simulation is one proxy application instance (one task's block).
type Simulation interface {
	// Name identifies the proxy ("cloverleaf", "kripke", "lulesh").
	Name() string
	// Step advances one simulation cycle.
	Step()
	// Cycle returns the completed cycle count.
	Cycle() int
	// Time returns the simulated time.
	Time() float64
	// Publish describes the current mesh and fields into node following
	// the conduit mesh conventions, using zero-copy external references.
	Publish(node *conduit.Node)
	// PrimaryField names the field plots default to.
	PrimaryField() string
}

// New builds a named proxy with n points per axis on this task's block of
// the unit domain.
func New(name string, n, tasks, rank int) (Simulation, error) {
	if n < 4 {
		return nil, fmt.Errorf("sim: block size %d too small (need >= 4)", n)
	}
	if rank < 0 || rank >= tasks {
		return nil, fmt.Errorf("sim: rank %d outside world of %d", rank, tasks)
	}
	bounds := mesh.BlockBounds(unitBounds(), tasks, rank)
	switch name {
	case "cloverleaf":
		return newCloverleaf(n, bounds, rank), nil
	case "kripke":
		return newKripke(n, bounds, rank), nil
	case "lulesh":
		return newLulesh(n, bounds, rank), nil
	}
	return nil, fmt.Errorf("sim: unknown proxy %q (have cloverleaf, kripke, lulesh)", name)
}

// Names returns the available proxy names.
func Names() []string { return []string{"cloverleaf", "kripke", "lulesh"} }

// Structured reports whether a proxy publishes a structured block.
// The Euler proxy publishes rectilinear coordinates and the transport
// proxy uniform ones; the Lagrangian proxy publishes an explicit
// unstructured hex mesh, which structured-only rendering backends
// cannot consume (the paper's "not all combinations made sense").
func Structured(name string) bool { return name != "lulesh" }

func unitBounds() vecmath.AABB {
	return vecmath.AABB{Min: vecmath.V(0, 0, 0), Max: vecmath.V(1, 1, 1)}
}

// publishState writes the common state block.
func publishState(node *conduit.Node, name string, cycle int, t float64, rank int) {
	node.Set("state/name", name)
	node.Set("state/cycle", cycle)
	node.Set("state/time", t)
	node.Set("state/domain", rank)
}
