// Package synthdata generates the synthetic stand-ins for the paper's
// datasets: Richtmyer-Meshkov mixing layers, Lead Telluride charge
// densities, seismic wave-speed perturbations, Enzo-like cosmology density,
// and Nek5000-like thermal plumes. Each generator is an analytic field
// function over the unit cube, so distributed tasks can sample their own
// sub-block of the same global field — the weak-scaling setup of the study.
package synthdata

import (
	"fmt"
	"math"
	"math/rand"

	"insitu/internal/mesh"
	"insitu/internal/vecmath"
)

// FieldFunc evaluates a scalar field at a world-space point.
type FieldFunc func(p vecmath.Vec3) float64

// UnitBounds is the canonical global domain.
func UnitBounds() vecmath.AABB {
	return vecmath.AABB{Min: vecmath.V(0, 0, 0), Max: vecmath.V(1, 1, 1)}
}

// MixingLayer models a Richtmyer-Meshkov style density interface: a tanh
// profile across y = 0.5 perturbed by a deterministic set of sinusoidal
// modes, plus fine-scale roll-up wiggle near the interface.
func MixingLayer(seed int64) FieldFunc {
	rng := rand.New(rand.NewSource(seed))
	const modes = 6
	amp := make([]float64, modes)
	kx := make([]float64, modes)
	kz := make([]float64, modes)
	ph := make([]float64, modes)
	for m := 0; m < modes; m++ {
		amp[m] = 0.02 + 0.05*rng.Float64()/float64(m+1)
		kx[m] = float64(1+rng.Intn(5)) * 2 * math.Pi
		kz[m] = float64(1+rng.Intn(5)) * 2 * math.Pi
		ph[m] = rng.Float64() * 2 * math.Pi
	}
	return func(p vecmath.Vec3) float64 {
		perturb := 0.0
		for m := 0; m < modes; m++ {
			perturb += amp[m] * math.Sin(kx[m]*p.X+ph[m]) * math.Cos(kz[m]*p.Z+ph[m]*0.5)
		}
		y := p.Y - 0.5 - perturb
		base := 0.5 * (1 + math.Tanh(y/0.06))
		rollup := 0.08 * math.Exp(-y*y/0.01) * math.Sin(24*math.Pi*p.X) * math.Sin(24*math.Pi*p.Z)
		return base + rollup
	}
}

// CrystalLattice models a Lead-Telluride-like charge density: Gaussian
// charge blobs on two interpenetrating cubic sublattices.
func CrystalLattice() FieldFunc {
	const cells = 4.0
	return func(p vecmath.Vec3) float64 {
		blob := func(q vecmath.Vec3, sigma, w float64) float64 {
			frac := func(v float64) float64 { return v - math.Floor(v) }
			d := vecmath.V(frac(q.X*cells)-0.5, frac(q.Y*cells)-0.5, frac(q.Z*cells)-0.5)
			return w * math.Exp(-d.Length2()/(2*sigma*sigma))
		}
		a := blob(p, 0.16, 1.0)
		b := blob(p.Add(vecmath.V(0.5/cells, 0.5/cells, 0.5/cells)), 0.11, 0.7)
		return a + b
	}
}

// SeismicSpeed models SPECFEM-like wave-speed perturbations: layered
// background velocity with spherical wavefront perturbations radiating
// from deterministic event hypocenters.
func SeismicSpeed(seed int64) FieldFunc {
	rng := rand.New(rand.NewSource(seed))
	const events = 4
	centers := make([]vecmath.Vec3, events)
	radii := make([]float64, events)
	for e := 0; e < events; e++ {
		centers[e] = vecmath.V(rng.Float64(), rng.Float64()*0.4, rng.Float64())
		radii[e] = 0.15 + 0.5*rng.Float64()
	}
	return func(p vecmath.Vec3) float64 {
		layered := 0.4 + 0.4*p.Y + 0.05*math.Sin(10*math.Pi*p.Y)
		wave := 0.0
		for e := 0; e < events; e++ {
			r := p.Sub(centers[e]).Length()
			wave += 0.12 * math.Exp(-40*(r-radii[e])*(r-radii[e])) * math.Cos(30*r)
		}
		return layered + wave
	}
}

// CosmologyBlobs models an Enzo-like density field: clustered Gaussian
// halos with a power-law mass spectrum over a low uniform background.
func CosmologyBlobs(seed int64, halos int) FieldFunc {
	rng := rand.New(rand.NewSource(seed))
	type halo struct {
		c    vecmath.Vec3
		s, w float64
	}
	hs := make([]halo, halos)
	// Cluster halos around a few attractors so the field has large-scale
	// structure like a cosmological simulation.
	attractors := make([]vecmath.Vec3, 5)
	for i := range attractors {
		attractors[i] = vecmath.V(rng.Float64(), rng.Float64(), rng.Float64())
	}
	for i := range hs {
		a := attractors[rng.Intn(len(attractors))]
		off := vecmath.V(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()).Scale(0.08)
		mass := math.Pow(rng.Float64()+0.05, -0.8) // power-law-ish masses
		hs[i] = halo{
			c: a.Add(off),
			s: 0.01 + 0.03*rng.Float64(),
			w: 0.1 * mass,
		}
	}
	return func(p vecmath.Vec3) float64 {
		rho := 0.02
		for _, h := range hs {
			d2 := p.Sub(h.c).Length2()
			rho += h.w * math.Exp(-d2/(2*h.s*h.s))
		}
		return rho
	}
}

// ThermalPlume models a Nek5000-like thermal hydraulics temperature field:
// a hot rising plume with sinusoidal sway and entrainment vortices.
func ThermalPlume() FieldFunc {
	return func(p vecmath.Vec3) float64 {
		sway := 0.08 * math.Sin(3*math.Pi*p.Y)
		dx := p.X - 0.5 - sway
		dz := p.Z - 0.5 - 0.5*sway
		core := math.Exp(-(dx*dx + dz*dz) / (0.015 + 0.05*p.Y*p.Y))
		vortex := 0.15 * math.Sin(8*math.Pi*p.Y) * math.Exp(-(dx*dx+dz*dz)/0.05)
		return 0.1 + 0.9*core*p.Y + vortex
	}
}

// Grid samples a field function on an nx x ny x nz uniform grid over the
// given bounds and attaches the samples as a vertex field.
func Grid(fieldName string, f FieldFunc, nx, ny, nz int, bounds vecmath.AABB) *mesh.StructuredGrid {
	g := mesh.NewUniformGrid(nx, ny, nz, bounds)
	vals := make([]float64, g.NumPoints())
	idx := 0
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				vals[idx] = f(g.Point(i, j, k))
				idx++
			}
		}
	}
	if err := g.AddField(fieldName, mesh.VertexAssoc, vals); err != nil {
		panic(err) // sizes are constructed to match
	}
	return g
}

// Dataset describes a named synthetic dataset.
type Dataset struct {
	Name      string
	FieldName string
	Func      FieldFunc
	// Isovalue is a good default contour for surface extraction.
	Isovalue float64
}

// Datasets returns the study's dataset pool, the stand-ins for the paper's
// RM, Lead Telluride, Seismic, Enzo, and Nek5000 data.
func Datasets() []Dataset {
	return []Dataset{
		{Name: "rm", FieldName: "density", Func: MixingLayer(42), Isovalue: 0.5},
		{Name: "lt", FieldName: "charge", Func: CrystalLattice(), Isovalue: 0.45},
		{Name: "seismic", FieldName: "speed", Func: SeismicSpeed(7), Isovalue: 0.62},
		{Name: "enzo", FieldName: "density", Func: CosmologyBlobs(3, 60), Isovalue: 0.12},
		{Name: "nek", FieldName: "temperature", Func: ThermalPlume(), Isovalue: 0.5},
	}
}

// ByName returns a named dataset from the pool.
func ByName(name string) (Dataset, error) {
	for _, ds := range Datasets() {
		if ds.Name == name {
			return ds, nil
		}
	}
	return Dataset{}, fmt.Errorf("synthdata: unknown dataset %q", name)
}
