package mesh

import (
	"insitu/internal/vecmath"
)

// TriangleMesh is a triangle soup in structure-of-arrays layout, the wire
// format between geometry operators and the surface renderers. Scalars are
// per-vertex and drive color mapping; normals are optional and recomputed
// from faces when absent.
type TriangleMesh struct {
	X, Y, Z    []float64 // vertex positions
	NX, NY, NZ []float64 // optional per-vertex normals
	Conn       []int32   // 3 vertex indices per triangle
	Scalars    []float64 // per-vertex scalar for color mapping
	ScalarMin  float64
	ScalarMax  float64
}

// NumTriangles returns the triangle count.
func (m *TriangleMesh) NumTriangles() int { return len(m.Conn) / 3 }

// NumVertices returns the vertex count.
func (m *TriangleMesh) NumVertices() int { return len(m.X) }

// Vertex returns vertex i's position.
func (m *TriangleMesh) Vertex(i int32) vecmath.Vec3 {
	return vecmath.V(m.X[i], m.Y[i], m.Z[i])
}

// Normal returns vertex i's normal, or the zero vector if normals are unset.
func (m *TriangleMesh) Normal(i int32) vecmath.Vec3 {
	if m.NX == nil {
		return vecmath.Vec3{}
	}
	return vecmath.V(m.NX[i], m.NY[i], m.NZ[i])
}

// TriVerts returns the three corner positions of triangle t.
func (m *TriangleMesh) TriVerts(t int) (a, b, c vecmath.Vec3) {
	i0, i1, i2 := m.Conn[3*t], m.Conn[3*t+1], m.Conn[3*t+2]
	return m.Vertex(i0), m.Vertex(i1), m.Vertex(i2)
}

// TriBounds returns triangle t's bounding box.
func (m *TriangleMesh) TriBounds(t int) vecmath.AABB {
	a, b, c := m.TriVerts(t)
	return vecmath.EmptyAABB().ExpandPoint(a).ExpandPoint(b).ExpandPoint(c)
}

// Centroid returns triangle t's centroid.
func (m *TriangleMesh) Centroid(t int) vecmath.Vec3 {
	a, b, c := m.TriVerts(t)
	return a.Add(b).Add(c).Scale(1.0 / 3.0)
}

// Bounds returns the mesh bounding box (empty box for an empty mesh).
func (m *TriangleMesh) Bounds() vecmath.AABB {
	b := vecmath.EmptyAABB()
	for i := range m.X {
		b = b.ExpandPoint(vecmath.V(m.X[i], m.Y[i], m.Z[i]))
	}
	return b
}

// FaceNormal returns the unit normal of triangle t.
func (m *TriangleMesh) FaceNormal(t int) vecmath.Vec3 {
	a, b, c := m.TriVerts(t)
	return b.Sub(a).Cross(c.Sub(a)).Normalize()
}

// EnsureNormals computes per-vertex normals from faces when absent. In a
// triangle soup each vertex belongs to one face, so this yields flat
// shading; isosurfaces carry smooth gradient normals instead.
func (m *TriangleMesh) EnsureNormals() {
	if m.NX != nil {
		return
	}
	n := m.NumVertices()
	m.NX = make([]float64, n)
	m.NY = make([]float64, n)
	m.NZ = make([]float64, n)
	for t := 0; t < m.NumTriangles(); t++ {
		fn := m.FaceNormal(t)
		for c := 0; c < 3; c++ {
			i := m.Conn[3*t+c]
			m.NX[i] += fn.X
			m.NY[i] += fn.Y
			m.NZ[i] += fn.Z
		}
	}
	for i := 0; i < n; i++ {
		v := vecmath.V(m.NX[i], m.NY[i], m.NZ[i]).Normalize()
		m.NX[i], m.NY[i], m.NZ[i] = v.X, v.Y, v.Z
	}
}

// UpdateScalarRange recomputes ScalarMin/ScalarMax from the data.
func (m *TriangleMesh) UpdateScalarRange() {
	if len(m.Scalars) == 0 {
		m.ScalarMin, m.ScalarMax = 0, 1
		return
	}
	lo, hi := m.Scalars[0], m.Scalars[0]
	for _, v := range m.Scalars {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	m.ScalarMin, m.ScalarMax = lo, hi
}

// TetMesh is an unstructured tetrahedral mesh with shared vertices and
// per-vertex scalars, the input to the unstructured volume renderer.
type TetMesh struct {
	X, Y, Z   []float64
	Conn      []int32 // 4 vertex indices per tetrahedron
	Scalars   []float64
	ScalarMin float64
	ScalarMax float64
}

// NumTets returns the tetrahedron count.
func (m *TetMesh) NumTets() int { return len(m.Conn) / 4 }

// NumVertices returns the vertex count.
func (m *TetMesh) NumVertices() int { return len(m.X) }

// Vertex returns vertex i's position.
func (m *TetMesh) Vertex(i int32) vecmath.Vec3 {
	return vecmath.V(m.X[i], m.Y[i], m.Z[i])
}

// Bounds returns the mesh bounding box.
func (m *TetMesh) Bounds() vecmath.AABB {
	b := vecmath.EmptyAABB()
	for i := range m.X {
		b = b.ExpandPoint(vecmath.V(m.X[i], m.Y[i], m.Z[i]))
	}
	return b
}

// UpdateScalarRange recomputes ScalarMin/ScalarMax from the data.
func (m *TetMesh) UpdateScalarRange() {
	if len(m.Scalars) == 0 {
		m.ScalarMin, m.ScalarMax = 0, 1
		return
	}
	lo, hi := m.Scalars[0], m.Scalars[0]
	for _, v := range m.Scalars {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	m.ScalarMin, m.ScalarMax = lo, hi
}

// Tetrahedralize splits every hexahedral cell of a structured grid into
// six conforming tetrahedra, reusing the grid's points. The named vertex
// field becomes the tet mesh's scalars — the same preparation the paper's
// volume rendering study applies to the Enzo and Nek5000 data.
func (g *StructuredGrid) Tetrahedralize(fieldName string) (*TetMesh, error) {
	f, err := g.Field(fieldName)
	if err != nil {
		return nil, err
	}
	if f.Assoc != VertexAssoc {
		return nil, errCellAssoc(fieldName)
	}
	np := g.NumPoints()
	out := &TetMesh{
		X:       make([]float64, np),
		Y:       make([]float64, np),
		Z:       make([]float64, np),
		Scalars: f.Values,
	}
	idx := 0
	for k := 0; k < g.Nz; k++ {
		for j := 0; j < g.Ny; j++ {
			for i := 0; i < g.Nx; i++ {
				p := g.Point(i, j, k)
				out.X[idx], out.Y[idx], out.Z[idx] = p.X, p.Y, p.Z
				idx++
			}
		}
	}
	cx, cy, cz := g.CellDims()
	out.Conn = make([]int32, 0, cx*cy*cz*6*4)
	for k := 0; k < cz; k++ {
		for j := 0; j < cy; j++ {
			for i := 0; i < cx; i++ {
				var corner [8]int32
				for c, off := range hexCorners {
					corner[c] = int32(g.PointIndex(i+off[0], j+off[1], k+off[2]))
				}
				for _, tet := range hexTets {
					out.Conn = append(out.Conn,
						corner[tet[0]], corner[tet[1]], corner[tet[2]], corner[tet[3]])
				}
			}
		}
	}
	out.UpdateScalarRange()
	return out, nil
}
