// Package mesh provides the data model the renderers consume: structured
// (uniform and rectilinear) grids with named fields, triangle meshes,
// tetrahedral meshes, and the geometry operators the paper's study uses —
// isosurfacing (marching tetrahedra), external faces, and hexahedron
// tetrahedralization — all expressed over the data-parallel primitives.
package mesh

import (
	"fmt"

	"insitu/internal/vecmath"
)

// Assoc states whether field values live on points or cells.
type Assoc int

const (
	// VertexAssoc fields hold one value per grid point.
	VertexAssoc Assoc = iota
	// CellAssoc fields hold one value per cell.
	CellAssoc
)

// Field is a named scalar array attached to a grid.
type Field struct {
	Name   string
	Assoc  Assoc
	Values []float64
}

// StructuredGrid is a regular or rectilinear grid of Nx x Ny x Nz points.
// If the coordinate arrays are nil, the grid is uniform with the given
// origin and spacing; otherwise the arrays give per-axis point positions.
type StructuredGrid struct {
	Nx, Ny, Nz int
	Origin     vecmath.Vec3
	Spacing    vecmath.Vec3
	XCoords    []float64
	YCoords    []float64
	ZCoords    []float64
	Fields     map[string]*Field
}

// NewUniformGrid builds a uniform grid covering the given bounds with
// nx x ny x nz points.
func NewUniformGrid(nx, ny, nz int, bounds vecmath.AABB) *StructuredGrid {
	d := bounds.Diagonal()
	sp := vecmath.V(
		d.X/float64(max(nx-1, 1)),
		d.Y/float64(max(ny-1, 1)),
		d.Z/float64(max(nz-1, 1)),
	)
	return &StructuredGrid{
		Nx: nx, Ny: ny, Nz: nz,
		Origin:  bounds.Min,
		Spacing: sp,
		Fields:  map[string]*Field{},
	}
}

// NewRectilinearGrid builds a grid from explicit per-axis coordinates.
func NewRectilinearGrid(x, y, z []float64) *StructuredGrid {
	return &StructuredGrid{
		Nx: len(x), Ny: len(y), Nz: len(z),
		XCoords: x, YCoords: y, ZCoords: z,
		Fields: map[string]*Field{},
	}
}

// NumPoints returns the point count.
func (g *StructuredGrid) NumPoints() int { return g.Nx * g.Ny * g.Nz }

// NumCells returns the hexahedral cell count.
func (g *StructuredGrid) NumCells() int {
	return max(g.Nx-1, 0) * max(g.Ny-1, 0) * max(g.Nz-1, 0)
}

// CellDims returns the cell counts along each axis.
func (g *StructuredGrid) CellDims() (int, int, int) {
	return max(g.Nx-1, 0), max(g.Ny-1, 0), max(g.Nz-1, 0)
}

// PointIndex flattens (i,j,k) point coordinates.
func (g *StructuredGrid) PointIndex(i, j, k int) int {
	return (k*g.Ny+j)*g.Nx + i
}

// Point returns the position of point (i,j,k).
func (g *StructuredGrid) Point(i, j, k int) vecmath.Vec3 {
	if g.XCoords != nil {
		return vecmath.V(g.XCoords[i], g.YCoords[j], g.ZCoords[k])
	}
	return vecmath.V(
		g.Origin.X+g.Spacing.X*float64(i),
		g.Origin.Y+g.Spacing.Y*float64(j),
		g.Origin.Z+g.Spacing.Z*float64(k),
	)
}

// Bounds returns the grid's bounding box.
func (g *StructuredGrid) Bounds() vecmath.AABB {
	return vecmath.AABB{Min: g.Point(0, 0, 0), Max: g.Point(g.Nx-1, g.Ny-1, g.Nz-1)}
}

// AddField attaches a scalar field. The value count must match the
// association.
func (g *StructuredGrid) AddField(name string, assoc Assoc, values []float64) error {
	want := g.NumPoints()
	if assoc == CellAssoc {
		want = g.NumCells()
	}
	if len(values) != want {
		return fmt.Errorf("mesh: field %q has %d values, want %d", name, len(values), want)
	}
	g.Fields[name] = &Field{Name: name, Assoc: assoc, Values: values}
	return nil
}

// Field returns a named field or an error listing what exists.
func (g *StructuredGrid) Field(name string) (*Field, error) {
	f, ok := g.Fields[name]
	if !ok {
		names := make([]string, 0, len(g.Fields))
		for n := range g.Fields {
			names = append(names, n)
		}
		return nil, fmt.Errorf("mesh: no field %q (have %v)", name, names)
	}
	return f, nil
}

// FieldRange returns the min and max of a field's values.
func (g *StructuredGrid) FieldRange(name string) (float64, float64, error) {
	f, err := g.Field(name)
	if err != nil {
		return 0, 0, err
	}
	if len(f.Values) == 0 {
		return 0, 0, fmt.Errorf("mesh: field %q is empty", name)
	}
	lo, hi := f.Values[0], f.Values[0]
	for _, v := range f.Values {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi, nil
}

// cellCorner offsets in the canonical hexahedron ordering used by the
// tetrahedralization and marching-tetrahedra tables.
var hexCorners = [8][3]int{
	{0, 0, 0}, {1, 0, 0}, {1, 1, 0}, {0, 1, 0},
	{0, 0, 1}, {1, 0, 1}, {1, 1, 1}, {0, 1, 1},
}

// hexTets decomposes the canonical hexahedron into six tetrahedra that
// share the 0-6 diagonal, a conforming decomposition for structured grids.
var hexTets = [6][4]int{
	{0, 1, 2, 6},
	{0, 2, 3, 6},
	{0, 3, 7, 6},
	{0, 7, 4, 6},
	{0, 4, 5, 6},
	{0, 5, 1, 6},
}

// Gradient estimates the central-difference gradient of a vertex field at
// point (i,j,k), in world units.
func (g *StructuredGrid) Gradient(vals []float64, i, j, k int) vecmath.Vec3 {
	sample := func(i, j, k int) float64 {
		return vals[g.PointIndex(i, j, k)]
	}
	diff := func(lo, hi, coordLo, coordHi float64) float64 {
		d := coordHi - coordLo
		if d == 0 {
			return 0
		}
		return (hi - lo) / d
	}
	im, ip := max(i-1, 0), min(i+1, g.Nx-1)
	jm, jp := max(j-1, 0), min(j+1, g.Ny-1)
	km, kp := max(k-1, 0), min(k+1, g.Nz-1)
	return vecmath.V(
		diff(sample(im, j, k), sample(ip, j, k), g.Point(im, j, k).X, g.Point(ip, j, k).X),
		diff(sample(i, jm, k), sample(i, jp, k), g.Point(i, jm, k).Y, g.Point(i, jp, k).Y),
		diff(sample(i, j, km), sample(i, j, kp), g.Point(i, j, km).Z, g.Point(i, j, kp).Z),
	)
}

// Dims3 factors n tasks into a near-cubic (px, py, pz) process grid, the
// MPI_Dims_create analogue used for block domain decomposition.
func Dims3(n int) (int, int, int) {
	if n < 1 {
		return 1, 1, 1
	}
	best := [3]int{n, 1, 1}
	bestScore := score3(n, 1, 1)
	for px := 1; px <= n; px++ {
		if n%px != 0 {
			continue
		}
		rem := n / px
		for py := 1; py <= rem; py++ {
			if rem%py != 0 {
				continue
			}
			pz := rem / py
			if s := score3(px, py, pz); s < bestScore {
				best = [3]int{px, py, pz}
				bestScore = s
			}
		}
	}
	return best[0], best[1], best[2]
}

// score3 prefers balanced factorizations (smaller surface-to-volume).
func score3(a, b, c int) int {
	return a*b + b*c + c*a
}

// BlockBounds returns the world-space bounds of block rank within a unit
// process grid decomposition of domain, using Dims3(tasks).
func BlockBounds(domain vecmath.AABB, tasks, rank int) vecmath.AABB {
	px, py, pz := Dims3(tasks)
	ix := rank % px
	iy := (rank / px) % py
	iz := rank / (px * py)
	d := domain.Diagonal()
	lo := vecmath.V(
		domain.Min.X+d.X*float64(ix)/float64(px),
		domain.Min.Y+d.Y*float64(iy)/float64(py),
		domain.Min.Z+d.Z*float64(iz)/float64(pz),
	)
	hi := vecmath.V(
		domain.Min.X+d.X*float64(ix+1)/float64(px),
		domain.Min.Y+d.Y*float64(iy+1)/float64(py),
		domain.Min.Z+d.Z*float64(iz+1)/float64(pz),
	)
	return vecmath.AABB{Min: lo, Max: hi}
}
