package sim

import (
	"math"

	"insitu/internal/conduit"
	"insitu/internal/vecmath"
)

// cloverleaf is the compressible Euler proxy on a rectilinear grid:
// node-collocated density, energy, and velocity advanced with a
// Lax-Friedrichs scheme from an energy-deposit initial condition, the
// CloverLeaf3D analogue.
type cloverleaf struct {
	n       int
	rank    int
	bounds  vecmath.AABB
	xs      []float64
	ys      []float64
	zs      []float64
	rho     []float64
	energy  []float64
	u, v, w []float64
	scratch []float64
	cycle   int
	time    float64
	dt      float64
	h       float64
}

func newCloverleaf(n int, bounds vecmath.AABB, rank int) *cloverleaf {
	s := &cloverleaf{n: n, rank: rank, bounds: bounds}
	s.xs = axisCoords(bounds.Min.X, bounds.Max.X, n, 1.15)
	s.ys = axisCoords(bounds.Min.Y, bounds.Max.Y, n, 1.0)
	s.zs = axisCoords(bounds.Min.Z, bounds.Max.Z, n, 0.9)
	np := n * n * n
	s.rho = make([]float64, np)
	s.energy = make([]float64, np)
	s.u = make([]float64, np)
	s.v = make([]float64, np)
	s.w = make([]float64, np)
	s.scratch = make([]float64, np)
	s.h = (bounds.Max.X - bounds.Min.X) / float64(n-1)
	s.dt = 0.12 * s.h
	// Initial condition: quiescent gas with a hot dense region at a
	// global location so multi-block runs form one coherent state.
	hot := vecmath.V(0.3, 0.4, 0.5)
	idx := 0
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				p := vecmath.V(s.xs[i], s.ys[j], s.zs[k])
				d2 := p.Sub(hot).Length2()
				s.rho[idx] = 1 + 4*math.Exp(-d2/0.01)
				s.energy[idx] = 1 + 20*math.Exp(-d2/0.005)
				idx++
			}
		}
	}
	return s
}

// axisCoords builds mildly graded rectilinear coordinates (CloverLeaf
// meshes are rectilinear, not uniform).
func axisCoords(lo, hi float64, n int, grading float64) []float64 {
	xs := make([]float64, n)
	for i := 0; i < n; i++ {
		t := float64(i) / float64(n-1)
		xs[i] = lo + (hi-lo)*math.Pow(t, grading)
	}
	return xs
}

func (s *cloverleaf) Name() string         { return "cloverleaf" }
func (s *cloverleaf) Cycle() int           { return s.cycle }
func (s *cloverleaf) Time() float64        { return s.time }
func (s *cloverleaf) PrimaryField() string { return "energy" }

func (s *cloverleaf) idx(i, j, k int) int { return (k*s.n+j)*s.n + i }

// Step advances one Lax-Friedrichs cycle of the collocated Euler system.
func (s *cloverleaf) Step() {
	n := s.n
	const gamma = 1.4
	inv2h := 1 / (2 * s.h)
	update := func(field, out []float64, advect bool) {
		for k := 0; k < n; k++ {
			km, kp := max(k-1, 0), min(k+1, n-1)
			for j := 0; j < n; j++ {
				jm, jp := max(j-1, 0), min(j+1, n-1)
				for i := 0; i < n; i++ {
					im, ip := max(i-1, 0), min(i+1, n-1)
					c := s.idx(i, j, k)
					avg := (field[s.idx(im, j, k)] + field[s.idx(ip, j, k)] +
						field[s.idx(i, jm, k)] + field[s.idx(i, jp, k)] +
						field[s.idx(i, j, km)] + field[s.idx(i, j, kp)]) / 6
					val := 0.75*field[c] + 0.25*avg
					if advect {
						gx := (field[s.idx(ip, j, k)] - field[s.idx(im, j, k)]) * inv2h
						gy := (field[s.idx(i, jp, k)] - field[s.idx(i, jm, k)]) * inv2h
						gz := (field[s.idx(i, j, kp)] - field[s.idx(i, j, km)]) * inv2h
						val -= s.dt * (s.u[c]*gx + s.v[c]*gy + s.w[c]*gz)
					}
					out[c] = val
				}
			}
		}
		copy(field, out)
	}

	// Momentum update from the pressure gradient (p = (gamma-1) rho e).
	for k := 0; k < n; k++ {
		km, kp := max(k-1, 0), min(k+1, n-1)
		for j := 0; j < n; j++ {
			jm, jp := max(j-1, 0), min(j+1, n-1)
			for i := 0; i < n; i++ {
				im, ip := max(i-1, 0), min(i+1, n-1)
				c := s.idx(i, j, k)
				press := func(ii int) float64 {
					return (gamma - 1) * s.rho[ii] * s.energy[ii]
				}
				rho := math.Max(s.rho[c], 1e-6)
				s.u[c] -= s.dt * (press(s.idx(ip, j, k)) - press(s.idx(im, j, k))) * inv2h / rho
				s.v[c] -= s.dt * (press(s.idx(i, jp, k)) - press(s.idx(i, jm, k))) * inv2h / rho
				s.w[c] -= s.dt * (press(s.idx(i, j, kp)) - press(s.idx(i, j, km))) * inv2h / rho
				// Mild drag keeps the proxy stable over long runs.
				s.u[c] *= 0.999
				s.v[c] *= 0.999
				s.w[c] *= 0.999
			}
		}
	}
	update(s.rho, s.scratch, true)
	update(s.energy, s.scratch, true)
	s.cycle++
	s.time += s.dt
}

// Publish describes the rectilinear block and its fields, zero-copy.
func (s *cloverleaf) Publish(node *conduit.Node) {
	publishState(node, s.Name(), s.cycle, s.time, s.rank)
	node.Set("coords/type", "rectilinear")
	node.SetExternal("coords/x", s.xs)
	node.SetExternal("coords/y", s.ys)
	node.SetExternal("coords/z", s.zs)
	node.Set("topology/type", "structured")
	node.Set("fields/energy/association", "vertex")
	node.Set("fields/energy/type", "scalar")
	node.SetExternal("fields/energy/values", s.energy)
	node.Set("fields/density/association", "vertex")
	node.Set("fields/density/type", "scalar")
	node.SetExternal("fields/density/values", s.rho)
}
