// Package scenario is the pluggable measurement path shared by the
// performance study, the repro table generators, and the in situ
// pipeline: one Scene describes a renderable block (parsed simulation
// data or prebuilt geometry, camera, device, field range), and
// Backends turn a Scene into frame renderers that fill the model inputs
// of §5.3. Adding a rendering technique means writing one Backend and
// adding a row for it to the backends map and to core's spec table —
// the study plan samples it, model fitting fits it, registry snapshots
// carry it, and the advisor serves it without further changes.
package scenario

import (
	"fmt"
	"math"

	"insitu/internal/conduit"
	"insitu/internal/mesh"
	"insitu/internal/vecmath"
)

// ParsedMesh is the pipeline's view of a published conduit tree. It is
// the working representation both the in situ pipeline and the
// performance study drive their rendering from.
type ParsedMesh struct {
	Grid    *mesh.StructuredGrid // non-nil for uniform/rectilinear blocks
	X, Y, Z []float64            // explicit coordinates
	HexConn []int32              // unstructured hex connectivity
	fields  map[string]*conduit.Node
}

// ParseMesh validates the conduit mesh conventions and builds the
// pipeline's working representation (still zero-copy: slices are shared
// with the simulation).
func ParseMesh(n *conduit.Node) (*ParsedMesh, error) {
	pm := &ParsedMesh{fields: map[string]*conduit.Node{}}
	ctype, err := n.String("coords/type")
	if err != nil {
		return nil, fmt.Errorf("mesh description missing coords/type: %w", err)
	}
	switch ctype {
	case "uniform":
		ni := n.IntOr("coords/dims/i", 0)
		nj := n.IntOr("coords/dims/j", 0)
		nk := n.IntOr("coords/dims/k", 0)
		if ni < 2 || nj < 2 || nk < 2 {
			return nil, fmt.Errorf("uniform coords need dims >= 2, got %dx%dx%d", ni, nj, nk)
		}
		g := &mesh.StructuredGrid{
			Nx: ni, Ny: nj, Nz: nk,
			Origin: vecmath.V(
				n.FloatOr("coords/origin/x", 0),
				n.FloatOr("coords/origin/y", 0),
				n.FloatOr("coords/origin/z", 0)),
			Spacing: vecmath.V(
				n.FloatOr("coords/spacing/dx", 1),
				n.FloatOr("coords/spacing/dy", 1),
				n.FloatOr("coords/spacing/dz", 1)),
			Fields: map[string]*mesh.Field{},
		}
		pm.Grid = g
	case "rectilinear":
		xs, err := n.Float64Slice("coords/x")
		if err != nil {
			return nil, err
		}
		ys, err := n.Float64Slice("coords/y")
		if err != nil {
			return nil, err
		}
		zs, err := n.Float64Slice("coords/z")
		if err != nil {
			return nil, err
		}
		pm.Grid = mesh.NewRectilinearGrid(xs, ys, zs)
	case "explicit":
		pm.X, err = n.Float64Slice("coords/x")
		if err != nil {
			return nil, err
		}
		pm.Y, err = n.Float64Slice("coords/y")
		if err != nil {
			return nil, err
		}
		pm.Z, err = n.Float64Slice("coords/z")
		if err != nil {
			return nil, err
		}
		shape := n.StringOr("topology/elements/shape", "")
		if shape != "hexs" {
			return nil, fmt.Errorf("explicit topology shape %q unsupported (want hexs)", shape)
		}
		pm.HexConn, err = n.Int32Slice("topology/elements/connectivity")
		if err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("unknown coords/type %q", ctype)
	}

	fieldsNode, ok := n.Get("fields")
	if !ok {
		return nil, fmt.Errorf("mesh description has no fields")
	}
	for _, name := range fieldsNode.Children() {
		pm.fields[name] = fieldsNode.Child(name)
	}
	return pm, nil
}

// FieldValues returns a field's values as vertex-associated data,
// averaging element fields onto vertices when necessary.
func (pm *ParsedMesh) FieldValues(name string) ([]float64, error) {
	fn, ok := pm.fields[name]
	if !ok {
		names := make([]string, 0, len(pm.fields))
		for k := range pm.fields {
			names = append(names, k)
		}
		return nil, fmt.Errorf("no field %q (have %v)", name, names)
	}
	vals, err := fn.Float64Slice("values")
	if err != nil {
		return nil, err
	}
	assoc := fn.StringOr("association", "vertex")
	if assoc == "vertex" {
		return vals, nil
	}
	// Element-centered data: average to vertices.
	if pm.HexConn != nil {
		return mesh.ElementToVertex(len(pm.X), pm.HexConn, vals)
	}
	if pm.Grid != nil {
		return elementToVertexStructured(pm.Grid, vals)
	}
	return nil, fmt.Errorf("field %q: cannot convert element data without topology", name)
}

// elementToVertexStructured averages a cell field to grid points.
func elementToVertexStructured(g *mesh.StructuredGrid, vals []float64) ([]float64, error) {
	if len(vals) != g.NumCells() {
		return nil, fmt.Errorf("element field has %d values for %d cells", len(vals), g.NumCells())
	}
	conn := g.HexConnectivity()
	return mesh.ElementToVertex(g.NumPoints(), conn, vals)
}

// LocalBounds returns the block's spatial bounds.
func (pm *ParsedMesh) LocalBounds() vecmath.AABB {
	if pm.Grid != nil {
		return pm.Grid.Bounds()
	}
	b := vecmath.EmptyAABB()
	for i := range pm.X {
		b = b.ExpandPoint(vecmath.V(pm.X[i], pm.Y[i], pm.Z[i]))
	}
	return b
}

// Surface extracts the renderable boundary triangles of the block.
func (pm *ParsedMesh) Surface(fieldName string, vals []float64) (*mesh.TriangleMesh, error) {
	if pm.Grid != nil {
		name := fieldName + "__vertex"
		if err := pm.Grid.AddField(name, mesh.VertexAssoc, vals); err != nil {
			return nil, err
		}
		return pm.Grid.ExternalFaces(name)
	}
	return mesh.ExternalFacesFromHexes(pm.X, pm.Y, pm.Z, pm.HexConn, vals)
}

// TetVolume tetrahedralizes the block for unstructured volume rendering:
// six conforming tets per hex cell, for structured and explicit blocks
// alike. vals are the vertex-associated scalars.
func (pm *ParsedMesh) TetVolume(fieldName string, vals []float64) (*mesh.TetMesh, error) {
	if pm.Grid != nil {
		name := fieldName + "__vertex"
		if err := pm.Grid.AddField(name, mesh.VertexAssoc, vals); err != nil {
			return nil, err
		}
		return pm.Grid.Tetrahedralize(name)
	}
	return mesh.TetMeshFromHexes(pm.X, pm.Y, pm.Z, pm.HexConn, vals)
}

// FieldRange scans vertex scalars for the color-map range, skipping
// non-finite values so a single Inf/NaN sample (a blown-up cell, a
// division artifact) cannot poison the global scalar range — and with
// it every AP-derived model term fitted downstream. An all-non-finite
// (or empty) field falls back to the unit range.
func FieldRange(vals []float64) (float64, float64) {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if !(hi >= lo) {
		return 0, 1
	}
	return lo, hi
}
