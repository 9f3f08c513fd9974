package synthdata

import (
	"math"
	"testing"

	"insitu/internal/mesh"
	"insitu/internal/vecmath"
)

func TestDatasetsAreDeterministic(t *testing.T) {
	for _, ds := range Datasets() {
		a := ds.Func(vecmath.V(0.3, 0.6, 0.4))
		b := ByNameMust(t, ds.Name).Func(vecmath.V(0.3, 0.6, 0.4))
		if a != b {
			t.Errorf("%s: generator not deterministic: %v vs %v", ds.Name, a, b)
		}
	}
}

func ByNameMust(t *testing.T, name string) Dataset {
	t.Helper()
	ds, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("nope"); err == nil {
		t.Error("expected error for unknown dataset")
	}
}

func TestFieldsAreFiniteAndVarying(t *testing.T) {
	for _, ds := range Datasets() {
		g := Grid(ds.FieldName, ds.Func, 12, 12, 12, UnitBounds())
		lo, hi, err := g.FieldRange(ds.FieldName)
		if err != nil {
			t.Fatal(err)
		}
		if math.IsNaN(lo) || math.IsInf(lo, 0) || math.IsNaN(hi) || math.IsInf(hi, 0) {
			t.Errorf("%s: field range not finite: [%v,%v]", ds.Name, lo, hi)
		}
		if hi-lo < 1e-6 {
			t.Errorf("%s: field is constant", ds.Name)
		}
		// The default isovalue must cut the field so surfaces exist.
		if ds.Isovalue <= lo || ds.Isovalue >= hi {
			t.Errorf("%s: isovalue %v outside range [%v,%v]", ds.Name, ds.Isovalue, lo, hi)
		}
	}
}

func TestBlockGridsCoverDomainOnce(t *testing.T) {
	tasks := 8
	var vol float64
	for r := 0; r < tasks; r++ {
		b := mesh.BlockBounds(UnitBounds(), tasks, r)
		d := b.Diagonal()
		vol += d.X * d.Y * d.Z
	}
	if math.Abs(vol-1) > 1e-9 {
		t.Errorf("blocks cover volume %v, want 1", vol)
	}
}
