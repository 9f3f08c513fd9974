package framebuffer_test

import (
	"bytes"
	"image"
	"image/png"
	"io"
	"testing"

	"insitu/internal/conduit"
	"insitu/internal/core"
	"insitu/internal/device"
	"insitu/internal/framebuffer"
	"insitu/internal/render"
	"insitu/internal/scenario"
	"insitu/internal/sim"
)

// renderScene renders one frame of a backend × sim scene the way the
// serving path prepares it: step the proxy once, publish, parse, orbit
// the camera.
func renderScene(tb testing.TB, backend core.Renderer, simName string, n, size int, azimuth float64) *framebuffer.Image {
	tb.Helper()
	b, err := scenario.Lookup(backend)
	if err != nil {
		tb.Fatal(err)
	}
	sm, err := sim.New(simName, n, 1, 0)
	if err != nil {
		tb.Fatal(err)
	}
	sm.Step()
	node := conduit.NewNode()
	sm.Publish(node)
	pm, err := scenario.ParseMesh(node)
	if err != nil {
		tb.Fatal(err)
	}
	vals, err := pm.FieldValues(sm.PrimaryField())
	if err != nil {
		tb.Fatal(err)
	}
	cam := render.OrbitCamera(pm.LocalBounds(), azimuth, 20, 1)
	runner, err := b.Prepare(scenario.NewScene(device.Serial(), pm, sm.PrimaryField(), vals, cam, size, size))
	if err != nil {
		tb.Fatal(err)
	}
	var in core.Inputs
	_, img, err := runner.RenderFrame(&in)
	if err != nil {
		tb.Fatal(err)
	}
	return img.Clone()
}

// orbitScenes are the benchmark's orbit_miss scene kinds.
var orbitScenes = []struct {
	backend core.Renderer
	sim     string
}{
	{core.RayTrace, "kripke"}, {core.Raster, "kripke"}, {core.Volume, "kripke"},
	{core.RayTrace, "lulesh"}, {core.Raster, "lulesh"},
}

// TestPNGEncoderRenderedScenes: real frames of every orbit_miss scene
// kind at 256² decode to exactly their ToRGBA pixels.
func TestPNGEncoderRenderedScenes(t *testing.T) {
	var e framebuffer.PNGEncoder
	for _, sc := range orbitScenes {
		im := renderScene(t, sc.backend, sc.sim, 16, 256, 41.5)
		var buf bytes.Buffer
		if err := e.Encode(&buf, im); err != nil {
			t.Fatal(err)
		}
		img, err := png.Decode(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s/%s: %v", sc.backend, sc.sim, err)
		}
		got, ok := img.(*image.RGBA)
		if !ok {
			t.Fatalf("%s/%s: decoded %T, want *image.RGBA", sc.backend, sc.sim, img)
		}
		if want := im.ToRGBA(); got.Rect != want.Rect || !bytes.Equal(got.Pix, want.Pix) {
			t.Errorf("%s/%s: decoded pixels differ from ToRGBA", sc.backend, sc.sim)
		}
		t.Logf("%s/%s: %d bytes", sc.backend, sc.sim, buf.Len())
	}
}

// pngEncodeStep renders a 256² volume frame and encodes it once through
// a warm encoder. It returns the steady-state step, one more encode of
// the frame, and the encoded size.
func pngEncodeStep(tb testing.TB) (step func(), size int) {
	im := renderScene(tb, core.Volume, "kripke", 16, 256, 41.5)
	var e framebuffer.PNGEncoder
	var buf bytes.Buffer
	if err := e.Encode(&buf, im); err != nil {
		tb.Fatal(err)
	}
	return func() {
		if err := e.Encode(io.Discard, im); err != nil {
			tb.Fatal(err)
		}
	}, buf.Len()
}

// BenchmarkPNGEncode times pngEncodeStep.
func BenchmarkPNGEncode(b *testing.B) {
	step, size := pngEncodeStep(b)
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// TestZeroAlloc pins BenchmarkPNGEncode's steady state at 0 allocs/op:
// a warm encoder reuses its scanline, deflate and CRC state.
func TestZeroAlloc(t *testing.T) {
	t.Run("PNGEncode", func(t *testing.T) {
		step, _ := pngEncodeStep(t)
		if n := testing.AllocsPerRun(20, step); n != 0 {
			t.Errorf("%.0f allocs/op, want 0", n)
		}
	})
}
