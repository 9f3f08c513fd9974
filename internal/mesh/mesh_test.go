package mesh

import (
	"math"
	"testing"

	"insitu/internal/device"
	"insitu/internal/vecmath"
)

func unitGrid(n int) *StructuredGrid {
	return NewUniformGrid(n, n, n, vecmath.AABB{Min: vecmath.V(0, 0, 0), Max: vecmath.V(1, 1, 1)})
}

func sphereField(g *StructuredGrid) []float64 {
	vals := make([]float64, g.NumPoints())
	c := vecmath.V(0.5, 0.5, 0.5)
	idx := 0
	for k := 0; k < g.Nz; k++ {
		for j := 0; j < g.Ny; j++ {
			for i := 0; i < g.Nx; i++ {
				vals[idx] = g.Point(i, j, k).Sub(c).Length()
				idx++
			}
		}
	}
	return vals
}

func TestGridCountsAndBounds(t *testing.T) {
	g := unitGrid(5)
	if g.NumPoints() != 125 {
		t.Errorf("NumPoints = %d", g.NumPoints())
	}
	if g.NumCells() != 64 {
		t.Errorf("NumCells = %d", g.NumCells())
	}
	b := g.Bounds()
	if b.Min != vecmath.V(0, 0, 0) || b.Max != vecmath.V(1, 1, 1) {
		t.Errorf("Bounds = %v", b)
	}
	p := g.Point(4, 0, 0)
	if math.Abs(p.X-1) > 1e-12 {
		t.Errorf("Point(4,0,0) = %v", p)
	}
}

func TestRectilinearGrid(t *testing.T) {
	g := NewRectilinearGrid([]float64{0, 1, 4}, []float64{0, 2}, []float64{0, 3})
	if g.NumPoints() != 12 || g.NumCells() != 2 {
		t.Errorf("points=%d cells=%d", g.NumPoints(), g.NumCells())
	}
	if got := g.Point(2, 1, 1); got != vecmath.V(4, 2, 3) {
		t.Errorf("Point = %v", got)
	}
}

func TestFieldValidation(t *testing.T) {
	g := unitGrid(3)
	if err := g.AddField("bad", VertexAssoc, make([]float64, 5)); err == nil {
		t.Error("expected size mismatch error")
	}
	if err := g.AddField("cells", CellAssoc, make([]float64, g.NumCells())); err != nil {
		t.Error(err)
	}
	if _, err := g.Field("missing"); err == nil {
		t.Error("expected missing field error")
	}
}

func TestFieldRange(t *testing.T) {
	g := unitGrid(3)
	vals := make([]float64, g.NumPoints())
	for i := range vals {
		vals[i] = float64(i)
	}
	if err := g.AddField("f", VertexAssoc, vals); err != nil {
		t.Fatal(err)
	}
	lo, hi, err := g.FieldRange("f")
	if err != nil || lo != 0 || hi != float64(len(vals)-1) {
		t.Errorf("range = %v..%v err=%v", lo, hi, err)
	}
}

func TestDims3Products(t *testing.T) {
	for n := 1; n <= 64; n++ {
		px, py, pz := Dims3(n)
		if px*py*pz != n {
			t.Fatalf("Dims3(%d) = %d*%d*%d", n, px, py, pz)
		}
	}
	// 8 should factor as a cube.
	px, py, pz := Dims3(8)
	if px != 2 || py != 2 || pz != 2 {
		t.Errorf("Dims3(8) = %d,%d,%d", px, py, pz)
	}
}

func TestBlockBoundsTileDomain(t *testing.T) {
	domain := vecmath.AABB{Min: vecmath.V(0, 0, 0), Max: vecmath.V(2, 1, 1)}
	for _, tasks := range []int{1, 2, 4, 6, 8} {
		var vol float64
		for r := 0; r < tasks; r++ {
			b := BlockBounds(domain, tasks, r)
			d := b.Diagonal()
			vol += d.X * d.Y * d.Z
			if !b.Valid() {
				t.Fatalf("tasks=%d rank=%d invalid block", tasks, r)
			}
		}
		want := 2.0
		if math.Abs(vol-want) > 1e-9 {
			t.Errorf("tasks=%d blocks cover volume %v, want %v", tasks, vol, want)
		}
	}
}

func TestExternalFacesCount(t *testing.T) {
	n := 6 // points; cells per axis = 5
	g := unitGrid(n)
	if err := g.AddField("f", VertexAssoc, sphereField(g)); err != nil {
		t.Fatal(err)
	}
	m, err := g.ExternalFaces("f")
	if err != nil {
		t.Fatal(err)
	}
	cells := n - 1
	want := 12 * cells * cells
	if m.NumTriangles() != want {
		t.Errorf("triangles = %d want %d", m.NumTriangles(), want)
	}
	// Bounds match the grid bounds.
	mb, gb := m.Bounds(), g.Bounds()
	if mb.Min.Sub(gb.Min).Length() > 1e-12 || mb.Max.Sub(gb.Max).Length() > 1e-12 {
		t.Errorf("bounds %v != grid %v", mb, gb)
	}
	// Scalars within field range.
	lo, hi, _ := g.FieldRange("f")
	for _, s := range m.Scalars {
		if s < lo-1e-12 || s > hi+1e-12 {
			t.Fatalf("scalar %v outside [%v,%v]", s, lo, hi)
		}
	}
}

func TestIsosurfaceSphere(t *testing.T) {
	g := unitGrid(20)
	if err := g.AddField("dist", VertexAssoc, sphereField(g)); err != nil {
		t.Fatal(err)
	}
	const iso = 0.3
	for _, d := range []*device.Device{device.Serial(), device.New("w4", 4)} {
		m, err := g.Isosurface(d, "dist", iso, IsoOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if m.NumTriangles() == 0 {
			t.Fatal("no triangles extracted")
		}
		c := vecmath.V(0.5, 0.5, 0.5)
		cellDiag := g.Spacing.Length()
		for i := range m.X {
			r := vecmath.V(m.X[i], m.Y[i], m.Z[i]).Sub(c).Length()
			if math.Abs(r-iso) > cellDiag {
				t.Fatalf("%s: vertex %d at radius %v, want ~%v", d.Name, i, r, iso)
			}
			// Gradient normals of a distance field point radially.
			n := m.Normal(int32(i))
			radial := vecmath.V(m.X[i], m.Y[i], m.Z[i]).Sub(c).Normalize()
			if n.Dot(radial) < 0.8 {
				t.Fatalf("%s: normal %v not radial (dot=%v)", d.Name, n, n.Dot(radial))
			}
			// Scalars should equal the isovalue when no color field given.
			if math.Abs(m.Scalars[i]-iso) > 1e-9 {
				t.Fatalf("scalar %v != iso", m.Scalars[i])
			}
		}
	}
}

func TestIsosurfaceDeterministicAcrossDevices(t *testing.T) {
	g := unitGrid(12)
	if err := g.AddField("dist", VertexAssoc, sphereField(g)); err != nil {
		t.Fatal(err)
	}
	a, err := g.Isosurface(device.Serial(), "dist", 0.25, IsoOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := g.Isosurface(device.New("w8", 8), "dist", 0.25, IsoOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if a.NumTriangles() != b.NumTriangles() {
		t.Fatalf("triangle count differs: %d vs %d", a.NumTriangles(), b.NumTriangles())
	}
	for i := range a.X {
		if a.X[i] != b.X[i] || a.Y[i] != b.Y[i] || a.Z[i] != b.Z[i] {
			t.Fatalf("vertex %d differs across devices", i)
		}
	}
}

func TestIsosurfaceOutsideRangeIsEmpty(t *testing.T) {
	g := unitGrid(8)
	if err := g.AddField("dist", VertexAssoc, sphereField(g)); err != nil {
		t.Fatal(err)
	}
	m, err := g.Isosurface(device.CPU(), "dist", 99, IsoOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if m.NumTriangles() != 0 {
		t.Errorf("expected empty mesh, got %d triangles", m.NumTriangles())
	}
}

func TestIsosurfaceColorField(t *testing.T) {
	g := unitGrid(10)
	if err := g.AddField("dist", VertexAssoc, sphereField(g)); err != nil {
		t.Fatal(err)
	}
	height := make([]float64, g.NumPoints())
	idx := 0
	for k := 0; k < g.Nz; k++ {
		for j := 0; j < g.Ny; j++ {
			for i := 0; i < g.Nx; i++ {
				height[idx] = g.Point(i, j, k).Y
				idx++
			}
		}
	}
	if err := g.AddField("height", VertexAssoc, height); err != nil {
		t.Fatal(err)
	}
	m, err := g.Isosurface(device.CPU(), "dist", 0.3, IsoOptions{ColorField: "height"})
	if err != nil {
		t.Fatal(err)
	}
	// Height scalars should roughly match vertex Y.
	for i := range m.X {
		if math.Abs(m.Scalars[i]-m.Y[i]) > 0.15 {
			t.Fatalf("color scalar %v far from y=%v", m.Scalars[i], m.Y[i])
		}
	}
}

// tetCorners returns the four corner positions of tetrahedron t.
func tetCorners(m *TetMesh, t int) (a, b, c, d vecmath.Vec3) {
	i := m.Conn[4*t : 4*t+4]
	return m.Vertex(i[0]), m.Vertex(i[1]), m.Vertex(i[2]), m.Vertex(i[3])
}

func tetVolume(a, b, c, d vecmath.Vec3) float64 {
	return math.Abs(b.Sub(a).Cross(c.Sub(a)).Dot(d.Sub(a))) / 6
}

func TestTetrahedralizeVolumeConservation(t *testing.T) {
	g := NewUniformGrid(4, 3, 5, vecmath.AABB{Min: vecmath.V(0, 0, 0), Max: vecmath.V(3, 2, 4)})
	vals := make([]float64, g.NumPoints())
	if err := g.AddField("f", VertexAssoc, vals); err != nil {
		t.Fatal(err)
	}
	tm, err := g.Tetrahedralize("f")
	if err != nil {
		t.Fatal(err)
	}
	if tm.NumTets() != 6*g.NumCells() {
		t.Errorf("tets = %d want %d", tm.NumTets(), 6*g.NumCells())
	}
	var vol float64
	for i := 0; i < tm.NumTets(); i++ {
		a, b, c, d := tetCorners(tm, i)
		vol += tetVolume(a, b, c, d)
	}
	want := 3.0 * 2 * 4
	if math.Abs(vol-want) > 1e-9 {
		t.Errorf("total tet volume = %v want %v", vol, want)
	}
}

func TestGradientOfLinearField(t *testing.T) {
	g := unitGrid(6)
	vals := make([]float64, g.NumPoints())
	idx := 0
	for k := 0; k < g.Nz; k++ {
		for j := 0; j < g.Ny; j++ {
			for i := 0; i < g.Nx; i++ {
				p := g.Point(i, j, k)
				vals[idx] = 2*p.X + 3*p.Y - p.Z
				idx++
			}
		}
	}
	grad := g.Gradient(vals, 2, 3, 1)
	want := vecmath.V(2, 3, -1)
	if grad.Sub(want).Length() > 1e-9 {
		t.Errorf("gradient = %v want %v", grad, want)
	}
	// Boundary gradients use one-sided differences but stay exact for a
	// linear field.
	grad = g.Gradient(vals, 0, 0, 0)
	if grad.Sub(want).Length() > 1e-9 {
		t.Errorf("boundary gradient = %v want %v", grad, want)
	}
}

func TestEnsureNormalsUnitLength(t *testing.T) {
	g := unitGrid(5)
	if err := g.AddField("f", VertexAssoc, sphereField(g)); err != nil {
		t.Fatal(err)
	}
	m, err := g.ExternalFaces("f")
	if err != nil {
		t.Fatal(err)
	}
	m.NX, m.NY, m.NZ = nil, nil, nil
	m.EnsureNormals()
	for i := range m.NX {
		l := vecmath.V(m.NX[i], m.NY[i], m.NZ[i]).Length()
		if math.Abs(l-1) > 1e-9 {
			t.Fatalf("normal %d has length %v", i, l)
		}
	}
}
