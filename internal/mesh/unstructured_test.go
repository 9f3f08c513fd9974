package mesh

import (
	"math"
	"testing"

	"insitu/internal/vecmath"
)

// twoHexMesh builds two unit hexes sharing one face (3x2x2 points).
func twoHexMesh() (x, y, z []float64, conn []int32) {
	g := NewUniformGrid(3, 2, 2, vecmath.AABB{Min: vecmath.V(0, 0, 0), Max: vecmath.V(2, 1, 1)})
	for k := 0; k < 2; k++ {
		for j := 0; j < 2; j++ {
			for i := 0; i < 3; i++ {
				p := g.Point(i, j, k)
				x = append(x, p.X)
				y = append(y, p.Y)
				z = append(z, p.Z)
			}
		}
	}
	return x, y, z, g.HexConnectivity()
}

func TestExternalFacesFromHexesRemovesInteriorFace(t *testing.T) {
	x, y, z, conn := twoHexMesh()
	scalars := make([]float64, len(x))
	m, err := ExternalFacesFromHexes(x, y, z, conn, scalars)
	if err != nil {
		t.Fatal(err)
	}
	// Two hexes: 12 faces total, 2 coincide -> 10 boundary quads -> 20 tris.
	if m.NumTriangles() != 20 {
		t.Errorf("triangles = %d want 20", m.NumTriangles())
	}
	// Surface area of the 2x1x1 box: 2*(2+2+1) = 10.
	var area float64
	for tr := 0; tr < m.NumTriangles(); tr++ {
		a, b, c := m.TriVerts(tr)
		area += b.Sub(a).Cross(c.Sub(a)).Length() / 2
	}
	if math.Abs(area-10) > 1e-9 {
		t.Errorf("boundary area = %v want 10", area)
	}
}

func TestExternalFacesFromHexesValidation(t *testing.T) {
	if _, err := ExternalFacesFromHexes(nil, nil, nil, make([]int32, 7), nil); err == nil {
		t.Error("expected bad-connectivity error")
	}
	if _, err := ExternalFacesFromHexes(make([]float64, 3), make([]float64, 2), make([]float64, 3), make([]int32, 8), make([]float64, 3)); err == nil {
		t.Error("expected length-mismatch error")
	}
}

func TestTetMeshFromHexesVolume(t *testing.T) {
	x, y, z, conn := twoHexMesh()
	scalars := make([]float64, len(x))
	tm, err := TetMeshFromHexes(x, y, z, conn, scalars)
	if err != nil {
		t.Fatal(err)
	}
	if tm.NumTets() != 12 {
		t.Errorf("tets = %d want 12", tm.NumTets())
	}
	var vol float64
	for i := 0; i < tm.NumTets(); i++ {
		a, b, c, d := tetCorners(tm, i)
		vol += math.Abs(b.Sub(a).Cross(c.Sub(a)).Dot(d.Sub(a))) / 6
	}
	if math.Abs(vol-2) > 1e-9 {
		t.Errorf("volume = %v want 2", vol)
	}
	// Zero-copy: tet mesh shares the coordinate arrays.
	x[0] = 42
	if tm.X[0] != 42 {
		t.Error("TetMeshFromHexes should share coordinates")
	}
}

func TestElementToVertexAveraging(t *testing.T) {
	x, _, _, conn := twoHexMesh()
	elem := []float64{1, 3} // left hex 1, right hex 3
	vert, err := ElementToVertex(len(x), conn, elem)
	if err != nil {
		t.Fatal(err)
	}
	// Points on the shared face belong to both hexes: average 2.
	// Point index 1 is (x=1, y=0, z=0), on the shared face.
	if vert[1] != 2 {
		t.Errorf("shared-face vertex = %v want 2", vert[1])
	}
	// Corner point 0 belongs only to the left hex.
	if vert[0] != 1 {
		t.Errorf("corner vertex = %v want 1", vert[0])
	}
	if _, err := ElementToVertex(len(x), conn, []float64{1}); err == nil {
		t.Error("expected count-mismatch error")
	}
}

func TestHexConnectivityShape(t *testing.T) {
	g := NewUniformGrid(3, 3, 3, vecmath.AABB{Min: vecmath.V(0, 0, 0), Max: vecmath.V(1, 1, 1)})
	conn := g.HexConnectivity()
	if len(conn) != g.NumCells()*8 {
		t.Fatalf("connectivity length = %d", len(conn))
	}
	for _, v := range conn {
		if v < 0 || int(v) >= g.NumPoints() {
			t.Fatalf("vertex id %d out of range", v)
		}
	}
}
