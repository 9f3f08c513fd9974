package composite

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"insitu/internal/comm"
	"insitu/internal/device"
	"insitu/internal/framebuffer"
	"insitu/internal/mesh"
	"insitu/internal/mesh/synthdata"
	"insitu/internal/render"
	"insitu/internal/render/raytrace"
)

// randomImage builds a reproducible random partial image.
func randomImage(w, h int, seed int64, coverage float64) *framebuffer.Image {
	rng := rand.New(rand.NewSource(seed))
	img := framebuffer.NewImage(w, h)
	for i := 0; i < w*h; i++ {
		if rng.Float64() < coverage {
			a := rng.Float32()
			img.Set(i%w, i/w, rng.Float32()*a, rng.Float32()*a, rng.Float32()*a, a, 1+rng.Float32()*10)
		}
	}
	return img
}

// serialDepthMerge is the reference result for DepthOp.
func serialDepthMerge(imgs []*framebuffer.Image) *framebuffer.Image {
	out := imgs[0].Clone()
	for _, im := range imgs[1:] {
		if err := out.DepthCompositeFrom(im); err != nil {
			panic(err)
		}
	}
	return out
}

// serialBlend is the reference result for BlendOp in the given order.
func serialBlend(imgs []*framebuffer.Image, order []int) *framebuffer.Image {
	out := imgs[order[0]].Clone()
	for _, r := range order[1:] {
		if err := out.BlendUnder(imgs[r]); err != nil {
			panic(err)
		}
	}
	return out
}

func imagesAlmostEqual(a, b *framebuffer.Image, tol float32) error {
	for i := range a.Color {
		d := a.Color[i] - b.Color[i]
		if d < -tol || d > tol {
			return fmt.Errorf("color[%d]: %v vs %v", i, a.Color[i], b.Color[i])
		}
	}
	return nil
}

func runComposite(t *testing.T, k *Compositor, imgs []*framebuffer.Image, op Op, order []int) *framebuffer.Image {
	t.Helper()
	n := len(imgs)
	w := comm.NewWorld(n)
	results, err := comm.RunCollect(w, func(c *comm.Comm) (*framebuffer.Image, error) {
		out, stats, err := k.Composite(c, imgs[c.Rank()], op, order)
		if err != nil {
			return nil, err
		}
		if stats.Elapsed <= 0 {
			return nil, fmt.Errorf("no elapsed time recorded")
		}
		return out, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if results[0] == nil {
		t.Fatal("rank 0 got no image")
	}
	for r := 1; r < n; r++ {
		if results[r] != nil {
			t.Fatalf("rank %d should not receive the image", r)
		}
	}
	return results[0]
}

func TestDepthCompositeMatchesSerial(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 6, 8} {
		imgs := make([]*framebuffer.Image, n)
		for r := 0; r < n; r++ {
			imgs[r] = randomImage(19, 13, int64(100+r), 0.6)
		}
		want := serialDepthMerge(imgs)
		for name, k := range map[string]*Compositor{
			"binaryswap": BinarySwap(),
			"directsend": DirectSend(n),
		} {
			got := runComposite(t, k, imgs, DepthOp, nil)
			if err := imagesAlmostEqual(got, want, 0); err != nil {
				t.Errorf("n=%d %s: %v", n, name, err)
			}
		}
	}
}

func TestBlendCompositeMatchesSerialOrder(t *testing.T) {
	for _, n := range []int{2, 3, 4, 8} {
		imgs := make([]*framebuffer.Image, n)
		for r := 0; r < n; r++ {
			imgs[r] = randomImage(17, 11, int64(7*n+r), 0.8)
		}
		// A shuffled visibility order exercises the position remapping.
		order := rand.New(rand.NewSource(int64(n))).Perm(n)
		want := serialBlend(imgs, order)
		got := runComposite(t, BinarySwap(), imgs, BlendOp, order)
		if err := imagesAlmostEqual(got, want, 2e-5); err != nil {
			t.Errorf("n=%d blend: %v", n, err)
		}
	}
}

func TestRadixKExplicitFactors(t *testing.T) {
	n := 12
	imgs := make([]*framebuffer.Image, n)
	for r := 0; r < n; r++ {
		imgs[r] = randomImage(23, 9, int64(r), 0.5)
	}
	want := serialDepthMerge(imgs)
	for _, factors := range [][]int{{2, 2, 3}, {3, 4}, {12}, {2, 6}} {
		got := runComposite(t, RadixK(factors...), imgs, DepthOp, nil)
		if err := imagesAlmostEqual(got, want, 0); err != nil {
			t.Errorf("factors %v: %v", factors, err)
		}
	}
}

func TestBadFactorsRejected(t *testing.T) {
	imgs := []*framebuffer.Image{randomImage(8, 8, 1, 0.5), randomImage(8, 8, 2, 0.5)}
	w := comm.NewWorld(2)
	err := w.Run(func(c *comm.Comm) error {
		_, _, err := RadixK(3).Composite(c, imgs[c.Rank()], DepthOp, nil)
		return err
	})
	if err == nil {
		t.Fatal("expected factor mismatch error")
	}
}

func TestBlendRequiresOrder(t *testing.T) {
	w := comm.NewWorld(2)
	err := w.Run(func(c *comm.Comm) error {
		_, _, err := BinarySwap().Composite(c, randomImage(4, 4, int64(c.Rank()), 1), BlendOp, nil)
		return err
	})
	if err == nil {
		t.Fatal("expected missing-order error")
	}
}

func TestVisibilityOrder(t *testing.T) {
	order := VisibilityOrder([]float64{3.5, 1.25, 2.0, math.NaN()})
	want := []int{1, 2, 0, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v want %v", order, want)
		}
	}
}

// TestDistributedRenderMatchesSingleTask is the key integration property:
// dividing a mesh's triangles across N tasks, rendering each subset, and
// depth-compositing must reproduce the single-task render exactly.
func TestDistributedRenderMatchesSingleTask(t *testing.T) {
	ds, err := synthdata.ByName("rm")
	if err != nil {
		t.Fatal(err)
	}
	g := synthdata.Grid(ds.FieldName, ds.Func, 14, 14, 14, synthdata.UnitBounds())
	full, err := g.Isosurface(device.CPU(), ds.FieldName, ds.Isovalue, mesh.IsoOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cam := render.OrbitCamera(full.Bounds(), 30, 20, 1.0)
	// The headlight depends only on the camera, so every task lights its
	// subset the same way.
	opts := raytrace.Options{Width: 64, Height: 48, Camera: cam, Workload: raytrace.Workload2}

	wantImg, _, err := raytrace.New(device.CPU(), full).Render(opts)
	if err != nil {
		t.Fatal(err)
	}

	const n = 4
	// Round-robin triangle distribution.
	sub := make([]*mesh.TriangleMesh, n)
	for r := 0; r < n; r++ {
		sub[r] = &mesh.TriangleMesh{ScalarMin: full.ScalarMin, ScalarMax: full.ScalarMax}
	}
	for tri := 0; tri < full.NumTriangles(); tri++ {
		r := tri % n
		base := int32(len(sub[r].X))
		for c := 0; c < 3; c++ {
			vi := full.Conn[3*tri+c]
			sub[r].X = append(sub[r].X, full.X[vi])
			sub[r].Y = append(sub[r].Y, full.Y[vi])
			sub[r].Z = append(sub[r].Z, full.Z[vi])
			sub[r].NX = append(sub[r].NX, full.NX[vi])
			sub[r].NY = append(sub[r].NY, full.NY[vi])
			sub[r].NZ = append(sub[r].NZ, full.NZ[vi])
			sub[r].Scalars = append(sub[r].Scalars, full.Scalars[vi])
		}
		sub[r].Conn = append(sub[r].Conn, base, base+1, base+2)
	}

	w := comm.NewWorld(n)
	results, err := comm.RunCollect(w, func(c *comm.Comm) (*framebuffer.Image, error) {
		img, _, err := raytrace.New(device.New("task", 2), sub[c.Rank()]).Render(opts)
		if err != nil {
			return nil, err
		}
		out, _, err := BinarySwap().Composite(c, img, DepthOp, nil)
		return out, err
	})
	if err != nil {
		t.Fatal(err)
	}
	got := results[0]
	diffs := 0
	for i := range wantImg.Color {
		if math.Abs(float64(wantImg.Color[i]-got.Color[i])) > 1e-6 {
			diffs++
		}
	}
	// Identical geometry and deterministic shading: allow only a handful
	// of depth-tie pixels to differ.
	if diffs > len(wantImg.Color)/500 {
		t.Errorf("distributed render differs at %d of %d channels", diffs, len(wantImg.Color))
	}
}
