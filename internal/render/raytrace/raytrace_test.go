package raytrace

import (
	"math"
	"testing"
	"unsafe"

	"insitu/internal/bvh"
	"insitu/internal/device"
	"insitu/internal/mesh"
	"insitu/internal/mesh/synthdata"
	"insitu/internal/render"
	"insitu/internal/vecmath"
)

// testScene builds a small isosurface scene.
func testScene(t *testing.T, n int) *mesh.TriangleMesh {
	t.Helper()
	ds, err := synthdata.ByName("rm")
	if err != nil {
		t.Fatal(err)
	}
	g := synthdata.Grid(ds.FieldName, ds.Func, n, n, n, synthdata.UnitBounds())
	m, err := g.Isosurface(device.CPU(), ds.FieldName, ds.Isovalue, mesh.IsoOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if m.NumTriangles() == 0 {
		t.Fatal("empty scene")
	}
	return m
}

func defaultOptions(m *mesh.TriangleMesh, wl Workload) Options {
	cam := render.OrbitCamera(m.Bounds(), 30, 20, 1.0)
	return Options{Width: 96, Height: 72, Camera: cam, Workload: wl}
}

func TestWorkload2ProducesImage(t *testing.T) {
	m := testScene(t, 16)
	r := New(device.CPU(), m)
	opts := defaultOptions(m, Workload2)
	img, stats, err := r.Render(opts)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ActivePixels == 0 {
		t.Fatal("no active pixels")
	}
	if stats.ActivePixels > opts.Width*opts.Height {
		t.Fatalf("active pixels %d exceed image", stats.ActivePixels)
	}
	if got := img.ActivePixels(); got != stats.ActivePixels {
		t.Errorf("stats AP %d != image AP %d", stats.ActivePixels, got)
	}
	// Phases recorded.
	for _, phase := range []string{"raygen", "traversal", "shade", "accumulate"} {
		if stats.Phases.Get(phase) <= 0 {
			t.Errorf("phase %q has no time", phase)
		}
	}
	if stats.PrimaryRays != opts.Width*opts.Height {
		t.Errorf("primary rays = %d", stats.PrimaryRays)
	}
	// Colors finite and in range.
	for i, c := range img.Color {
		if c < 0 || c > 4 || math.IsNaN(float64(c)) {
			t.Fatalf("color[%d] = %v", i, c)
		}
	}
}

func TestDeterministicAcrossDevices(t *testing.T) {
	m := testScene(t, 12)
	opts := Options{
		Width: 64, Height: 48,
		Camera:   render.OrbitCamera(m.Bounds(), 30, 20, 1.0),
		Workload: Workload3,
	}
	imgs := make([][]float32, 0, 2)
	for _, dev := range []*device.Device{device.Serial(), device.New("w4", 4)} {
		r := New(dev, m)
		img, _, err := r.Render(opts)
		if err != nil {
			t.Fatal(err)
		}
		imgs = append(imgs, img.Color)
	}
	for i := range imgs[0] {
		if imgs[0][i] != imgs[1][i] {
			t.Fatalf("pixel channel %d differs across devices: %v vs %v", i, imgs[0][i], imgs[1][i])
		}
	}
}

func TestWorkload1HitMaskMatchesWorkload2Coverage(t *testing.T) {
	m := testScene(t, 12)
	r := New(device.CPU(), m)
	frame1, s1, err := r.Render(defaultOptions(m, Workload1))
	if err != nil {
		t.Fatal(err)
	}
	img1 := frame1.Clone() // frames are arena-owned; retain across renders
	img2, s2, err := r.Render(defaultOptions(m, Workload2))
	if err != nil {
		t.Fatal(err)
	}
	if img1.ActivePixels() != img2.ActivePixels() {
		t.Errorf("coverage differs: %d vs %d", img1.ActivePixels(), img2.ActivePixels())
	}
	if s1.MRaysPerSec() <= 0 {
		t.Error("Workload1 rate not measured")
	}
	if s2.TotalRays != int64(s2.PrimaryRays) {
		t.Errorf("workload2 should cast only primary rays: %d vs %d", s2.TotalRays, s2.PrimaryRays)
	}
}

// TestPacketTraversalMatchesScalar renders a shaded frame with the
// primary-ray traversal the host picks and again on a Scalar device:
// the images are byte-identical.
func TestPacketTraversalMatchesScalar(t *testing.T) {
	m := testScene(t, 12)
	dev := device.New("w2", 2)
	r := New(dev, m)
	opts := defaultOptions(m, Workload2)
	frame, _, err := r.Render(opts)
	if err != nil {
		t.Fatal(err)
	}
	packetImg := frame.Clone() // frames are arena-owned; retain across renders
	dev.Scalar = true
	scalarImg, _, err := r.Render(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range scalarImg.Color {
		if scalarImg.Color[i] != packetImg.Color[i] {
			t.Fatalf("packet render differs at channel %d", i)
		}
	}
	for i := range scalarImg.Depth {
		if scalarImg.Depth[i] != packetImg.Depth[i] {
			t.Fatalf("packet render differs at depth %d", i)
		}
	}
}

func TestWorkload3CastsSecondaryRays(t *testing.T) {
	m := testScene(t, 12)
	r := New(device.CPU(), m)
	opts := defaultOptions(m, Workload3)
	img, stats, err := r.Render(opts)
	if err != nil {
		t.Fatal(err)
	}
	if stats.TotalRays <= int64(stats.PrimaryRays) {
		t.Errorf("no secondary rays: total=%d primary=%d", stats.TotalRays, stats.PrimaryRays)
	}
	if stats.Phases.Get("ao") <= 0 || stats.Phases.Get("shadow") <= 0 {
		t.Error("AO/shadow phases missing")
	}
	if stats.Phases.Get("compact") <= 0 {
		t.Error("compaction phase missing")
	}
	if img.ActivePixels() == 0 {
		t.Error("no active pixels")
	}
	// Supersampling traces 4 rays per pixel.
	if stats.PrimaryRays != 4*96*72 {
		t.Errorf("primary rays = %d, want %d", stats.PrimaryRays, 4*96*72)
	}
}

func TestAODarkensImage(t *testing.T) {
	m := testScene(t, 14)
	r := New(device.CPU(), m)
	base := defaultOptions(m, Workload2)
	frame2, _, err := r.Render(base)
	if err != nil {
		t.Fatal(err)
	}
	img2 := frame2.Clone() // frames are arena-owned; retain across renders
	full := base
	full.Workload = Workload3
	img3, _, err := r.Render(full)
	if err != nil {
		t.Fatal(err)
	}
	lum := func(img2 interface {
		At(int, int) (float32, float32, float32, float32)
	}, w, h int) float64 {
		var sum float64
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				r, g, b, _ := img2.At(x, y)
				sum += float64(r + g + b)
			}
		}
		return sum
	}
	l2 := lum(img2, 96, 72)
	l3 := lum(img3, 96, 72)
	if l3 > l2 {
		t.Errorf("AO+shadows should not brighten: %v vs %v", l3, l2)
	}
}

func TestInvalidOptions(t *testing.T) {
	m := testScene(t, 8)
	r := New(device.CPU(), m)
	if _, _, err := r.Render(Options{Width: 0, Height: 10}); err == nil {
		t.Error("expected error for zero width")
	}
	// Pixel coordinates are 16-bit: a side past maxSide is refused
	// before anything is sized for it.
	if _, _, err := r.Render(Options{Width: maxSide + 1, Height: 1}); err == nil {
		t.Error("expected error for a width past maxSide")
	}
}

func TestEmptyMeshRenders(t *testing.T) {
	m := &mesh.TriangleMesh{}
	r := New(device.CPU(), m)
	cam := render.Camera{Position: vecmath.V(0, 0, 5), LookAt: vecmath.Vec3{}}
	img, stats, err := r.Render(Options{Width: 32, Height: 32, Camera: cam, Workload: Workload2})
	if err != nil {
		t.Fatal(err)
	}
	if stats.ActivePixels != 0 || img.ActivePixels() != 0 {
		t.Error("empty mesh should produce empty image")
	}
}

func TestMortonPixelOrderCoversImage(t *testing.T) {
	for _, wh := range [][2]int{{7, 5}, {16, 16}, {33, 9}, {1, 1}} {
		w, h := wh[0], wh[1]
		order := MortonOrder(w, h)
		if len(order) != w*h {
			t.Fatalf("%dx%d: order length %d", w, h, len(order))
		}
		seen := make(map[PixelXY]bool, len(order))
		for _, p := range order {
			if int(p.X) >= w || int(p.Y) >= h || seen[p] {
				t.Fatalf("%dx%d: bad or duplicate pixel %v", w, h, p)
			}
			seen[p] = true
		}
	}
}

func TestBVHBuildTimeReported(t *testing.T) {
	m := testScene(t, 10)
	r := New(device.CPU(), m)
	if r.BVH.BuildTime <= 0 {
		t.Error("build time missing")
	}
	_, stats, err := r.Render(defaultOptions(m, Workload2))
	if err != nil {
		t.Fatal(err)
	}
	if stats.BVHBuild != r.BVH.BuildTime {
		t.Error("stats should carry the build time")
	}
	if stats.Objects != m.NumTriangles() {
		t.Errorf("objects = %d", stats.Objects)
	}
}

// TestPrimaryPacketsMatchScalarFrame renders frames with the primary-ray
// packet kernel on and turned off by the device's Scalar, on devices
// whose chunks split quads, at 1 sample per pixel (Workload2) and 4
// (Workload3's supersampling): every ray's hit is bitwise the same and so
// are the frame's traversal counts. bvh's TestPrimaryPacketsMatchScalar checks each ray's counts.
func TestPrimaryPacketsMatchScalarFrame(t *testing.T) {
	m := testScene(t, 16)
	for _, dev := range []*device.Device{device.Serial(), {Name: "odd", Workers: 3, Grain: 37}} {
		for _, wl := range []Workload{Workload2, Workload3} {
			ss := wl == Workload3
			r := New(dev, m)
			opts := Options{
				Width: 61, Height: 37,
				Camera:   render.OrbitCamera(m.Bounds(), 30, 20, 1.5),
				Workload: wl,
			}
			var hits [2][]bvh.Hit
			var counts [2][2]int64
			for i, scalar := range []bool{false, true} {
				dev.Scalar = scalar
				_, stats, err := r.Render(opts)
				if err != nil {
					t.Fatal(err)
				}
				if want := bvh.Packets() && !scalar; r.arena.quads != want {
					t.Fatalf("Scalar=%v: quads=%v, want %v", scalar, r.arena.quads, want)
				}
				rays := &r.arena.rays
				for k := range rays.hitPrim {
					hits[i] = append(hits[i], bvh.Hit{Prim: rays.hitPrim[k], T: rays.hitT[k], U: rays.hitU[k], V: rays.hitV[k]})
				}
				counts[i] = [2]int64{stats.NodeTests, stats.TriTests}
			}
			if counts[0] != counts[1] {
				t.Errorf("%s ss=%v: box and triangle tests %v with packets, %v without", dev.Name, ss, counts[0], counts[1])
			}
			for k, on := range hits[0] {
				off := hits[1][k]
				if on.Prim != off.Prim || math.Float64bits(on.T) != math.Float64bits(off.T) ||
					math.Float64bits(on.U) != math.Float64bits(off.U) || math.Float64bits(on.V) != math.Float64bits(off.V) {
					t.Fatalf("%s ss=%v ray %d: hit %+v with packets, %+v without", dev.Name, ss, k, on, off)
				}
			}
		}
	}
}

// TestPacketScratchWholeCacheLines keeps each worker's traversal scratch
// a whole number of 64-byte cache lines, so that two workers writing
// their own never share one.
func TestPacketScratchWholeCacheLines(t *testing.T) {
	if n := unsafe.Sizeof(packetScratch{}); n%64 != 0 {
		t.Errorf("packetScratch is %d bytes, not a multiple of 64", n)
	}
}
