package raytrace

import (
	"encoding/binary"
	"math"
	"testing"

	"insitu/internal/bvh"
	"insitu/internal/device"
	"insitu/internal/mesh"
	"insitu/internal/render"
	"insitu/internal/vecmath"
)

// TestPow30LanesMatchMathPow runs shade4's power, through pow4, over
// more than 2^22 bases: a sweep of [0, 1], bases just above 1, 0, 1, the
// smallest normal and subnormals, both sides of the bases whose 30th
// power leaves the normal range (2^(-1022/30), just under 2^-34, and
// 2^(1024/30)), NaN, infinities and negatives. Every lane the kernel
// computes must equal math.Pow(x, 30) bit for bit; every lane it leaves
// to math.Pow must have a base the kernel does not take (0, 1,
// subnormal, negative, not finite) or a power at the edge of the normal
// range; and every such class must occur.
func TestPow30LanesMatchMathPow(t *testing.T) {
	if !bvh.Packets() {
		t.Skip("no AVX2 packet kernels on this host")
	}
	const sweep = 1 << 22
	xs := make([]float64, 0, sweep+1<<18)
	for k := 0; k <= sweep; k++ {
		xs = append(xs, float64(k)/sweep)
	}
	around := func(c float64, steps int) {
		lo, hi := c, c
		for range steps {
			lo, hi = math.Nextafter(lo, 0), math.Nextafter(hi, math.Inf(1))
			xs = append(xs, lo, hi)
		}
		xs = append(xs, c)
	}
	around(1, 1<<14)
	around(math.Pow(2, -1022.0/30), 1<<14)
	around(0x1p-34, 1<<10)
	around(math.Pow(2, 1024.0/30), 1<<14)
	for k := 1; k < 1<<12; k++ {
		xs = append(xs, 1+float64(k)/(1<<12))                                  // up to 2 ...
		xs = append(xs, math.Float64frombits(uint64(k)*0x0000_00ff_ffff_ffff)) // ... and subnormals
	}
	xs = append(xs, 0, 1, math.SmallestNonzeroFloat64, 0x1p-1022, math.Nextafter(0x1p-1022, 0),
		math.NaN(), math.Inf(1), math.Inf(-1), -0.5, math.Copysign(0, -1), math.MaxFloat64)
	if len(xs) < 1<<22 {
		t.Fatalf("only %d bases", len(xs))
	}

	taken := func(x float64) bool { return x >= 0x1p-1022 && x < math.Inf(1) && x != 1 }
	// edge: the power is not normal, or within a factor of 2 of leaving
	// the normal range, where Ldexp's rounding decides.
	edge := func(p float64) bool { return !(p >= 0x1p-1021 && p < 0x1p1023) }
	classes := map[string]int{}
	classOf := func(x, p float64) string {
		switch {
		case x == 0:
			return "zero"
		case x == 1:
			return "one"
		case math.IsNaN(x):
			return "nan"
		case math.IsInf(x, 0):
			return "inf"
		case x < 0:
			return "negative"
		case x < 0x1p-1022:
			return "subnormal"
		case p < 0x1p-1021:
			return "underflow"
		default:
			return "overflow"
		}
	}
	var in, out lanes
	for base := 0; base < len(xs); base += 4 {
		n := copy(in[:], xs[base:])
		fall := pow4(&in, &out)
		for k := range n {
			x, want := in[k], math.Pow(in[k], 30)
			if fall&(1<<k) == 0 {
				if math.Float64bits(out[k]) != math.Float64bits(want) {
					t.Fatalf("pow4(%v) = %v (%#x), math.Pow %v (%#x)", x, out[k], math.Float64bits(out[k]), want, math.Float64bits(want))
				}
				continue
			}
			if taken(x) && !edge(want) {
				t.Fatalf("pow4 left %v (power %v) to math.Pow", x, want)
			}
			classes[classOf(x, want)]++
		}
	}
	for _, c := range []string{"zero", "one", "nan", "inf", "negative", "subnormal", "underflow", "overflow"} {
		if classes[c] == 0 {
			t.Errorf("no %s base fell back to math.Pow", c)
		}
	}
	t.Logf("%d bases, fallbacks by class %v", len(xs), classes)
}

// shadeMesh is FuzzShadeMatchesScalar's scene: two triangles, the
// second with opposed corner normals so that u = 0.5, v = 0 interpolates
// a zero-length normal.
func shadeMesh() *mesh.TriangleMesh {
	return &mesh.TriangleMesh{
		X:       []float64{0, 1, 0, 1, 0, 1},
		Y:       []float64{0, 0, 1, 1, 0, 0},
		Z:       []float64{0, 0, 0, 0, 1, 1},
		NX:      []float64{0, 0, 0.6, 0, 0, 0},
		NY:      []float64{0, 0.8, 0, 0, 0, 0},
		NZ:      []float64{1, 0.6, 0.8, 1, -1, 0},
		Conn:    []int32{0, 1, 2, 3, 4, 5},
		Scalars: []float64{-1, 0.25, 2, 0.5, 1, 3},
	}
}

// shadeHit is one fuzzed hit: the triangle, the barycentrics, the ray
// direction (not necessarily unit) and the distance.
type shadeHit struct {
	prim                uint32
	u, v, dx, dy, dz, t float64
}

const shadeHitBytes = 4 + 6*8

// encodeHits is FuzzShadeMatchesScalar's input: the lane count, then the
// four hits.
func encodeHits(n byte, hits [4]shadeHit) []byte {
	b := []byte{n}
	for _, h := range hits {
		b = binary.LittleEndian.AppendUint32(b, h.prim)
		for _, f := range []float64{h.u, h.v, h.dx, h.dy, h.dz, h.t} {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
		}
	}
	return b
}

// decodeHits reads encodeHits' bytes, zero-filling a short input. NaN
// inputs become the NaN x86 arithmetic makes: when two NaNs meet, the
// result carries the first operand's payload, and which operand of a
// commutative Go operator comes first is the compiler's choice, so bit
// equality holds only while every NaN carries the same payload.
func decodeHits(b []byte) (int, [4]shadeHit) {
	var buf [1 + 4*shadeHitBytes]byte
	copy(buf[:], b)
	f := func(off int) float64 {
		x := math.Float64frombits(binary.LittleEndian.Uint64(buf[off:]))
		if math.IsNaN(x) {
			x = math.Float64frombits(0xfff8000000000000)
		}
		return x
	}
	var hits [4]shadeHit
	for k := range hits {
		o := 1 + k*shadeHitBytes
		hits[k] = shadeHit{binary.LittleEndian.Uint32(buf[o:]), f(o + 4), f(o + 12), f(o + 20), f(o + 28), f(o + 36), f(o + 44)}
	}
	return int(buf[0]%4) + 1, hits
}

// FuzzShadeMatchesScalar shades n (1 to 4) hits on shadeMesh under the
// camera's head light through shade4 (shadeQuadKernel) and through n
// scalar shadeKernel lanes, on a one-sample frame (the image's RGB
// words) and a supersampled one (colors, scaled by occlusion x shadow),
// and wants the same bits.
func FuzzShadeMatchesScalar(f *testing.F) {
	if !bvh.Packets() {
		f.Skip("no AVX2 packet kernels on this host")
	}
	dir := vecmath.V(0.3, -0.2, -1).Normalize()
	hit := func(prim uint32, u, v, t float64) shadeHit { return shadeHit{prim, u, v, dir.X, dir.Y, dir.Z, t} }
	typical := [4]shadeHit{hit(0, 0.2, 0.3, 2.5), hit(0, 0.6, 0.1, 3), hit(1, 0.1, 0.1, 2.7), hit(1, 0.3, 0.6, 2.2)}
	f.Add(encodeHits(3, typical))
	zero := typical
	zero[1] = hit(1, 0.5, 0, 2.9) // 0.5*(0,0,1) + 0.5*(0,0,-1): a zero-length normal
	f.Add(encodeHits(3, zero))
	atZero := typical
	atZero[0].t, atZero[2].t = 0, 0 // t = 0: the hit is the camera, at the light
	f.Add(encodeHits(3, atZero))
	grazing := typical
	for k := range grazing {
		grazing[k].dx, grazing[k].dy, grazing[k].dz = 1, 1e-9*float64(k), 0 // in triangle 0's plane
	}
	f.Add(encodeHits(3, grazing))
	f.Add(encodeHits(1, typical)) // n < 4
	f.Add(encodeHits(2, zero))

	m := shadeMesh()
	cam := render.Camera{Position: vecmath.V(0.4, 0.6, 3), LookAt: vecmath.V(0.5, 0.5, 0), Up: vecmath.V(0, 1, 0), FOV: 45}
	r := New(device.Serial(), m)
	f.Fuzz(func(t *testing.T, b []byte) {
		n, hits := decodeHits(b)
		for _, c := range []struct {
			wl   Workload
			w, h int
		}{{Workload2, 2, 2}, {Workload3, 1, 1}} {
			if _, _, err := r.Render(Options{Width: c.w, Height: c.h, Camera: cam, Workload: c.wl}); err != nil {
				t.Fatal(err)
			}
			a := &r.arena
			if !a.shadeQuads {
				t.Fatal("the frame does not take the shade kernel")
			}
			rays := &a.rays
			a.live = a.live[:0]
			for k, h := range hits[:n] {
				rays.hitPrim[k] = int32(h.prim % uint32(m.NumTriangles()))
				rays.hitU[k], rays.hitV[k], rays.hitT[k] = h.u, h.v, h.t
				rays.dx[k], rays.dy[k], rays.dz[k] = h.dx, h.dy, h.dz
				a.live = append(a.live, int32(k))
				if c.wl == Workload3 {
					a.occlusion[k], a.shadow[k] = 0.25*float64(k+1), 0.35
				}
			}
			type out struct {
				rgb [4][3]uint32
				col [4][3]uint64
			}
			read := func() (o out) {
				for k := range n {
					if c.wl == Workload3 {
						col := a.colors[k]
						o.col[k] = [3]uint64{math.Float64bits(col.X), math.Float64bits(col.Y), math.Float64bits(col.Z)}
						continue
					}
					p := a.xy[k]
					rgb := a.img.Color[4*(int(p.Y)*a.img.W+int(p.X)):]
					o.rgb[k] = [3]uint32{math.Float32bits(rgb[0]), math.Float32bits(rgb[1]), math.Float32bits(rgb[2])}
				}
				return o
			}
			a.shadeKernel(0, n)
			want := read()
			a.img.Clear()
			clear(a.colors)
			a.shadeQuadKernel(0, n)
			if got := read(); got != want {
				t.Errorf("W%d, %d hits %+v: shade4 %+v, shadeKernel %+v", c.wl, n, hits[:n], got, want)
			}
		}
	})
}

// TestQuadKernelsRunOnPacketFrames checks which kernels a frame takes:
// the four-lane raygen and shade kernels exactly where it traces packets
// (an AVX2 host and a device without Scalar, so the cpu-scalar profile
// keeps the scalar loops), and the frame's phases are the same either
// way.
func TestQuadKernelsRunOnPacketFrames(t *testing.T) {
	m := testScene(t, 12)
	dev := device.New("quads", 2)
	r := New(dev, m)
	opts := defaultOptions(m, Workload2)
	for _, scalar := range []bool{false, true} {
		dev.Scalar = scalar
		_, st, err := r.Render(opts)
		if err != nil {
			t.Fatal(err)
		}
		want := bvh.Packets() && !scalar
		if a := &r.arena; a.quads != want || a.shadeQuads != want {
			t.Errorf("Scalar=%v: quads=%v shadeQuads=%v, want %v", scalar, a.quads, a.shadeQuads, want)
		}
		if got := st.Phases.Names(); len(got) != 4 || got[0] != "raygen" || got[1] != "traversal" || got[2] != "shade" || got[3] != "accumulate" {
			t.Errorf("Scalar=%v: phases %v", scalar, got)
		}
	}
}
