package framebuffer

import (
	"bytes"
	"image"
	"image/png"
	"io"
	"math"
	"math/rand"
	"testing"
)

// decodeRGBA decodes a PNG and returns its pixels as *image.RGBA, the
// type image/png yields for 8-bit truecolor.
func decodeRGBA(t *testing.T, b []byte) *image.RGBA {
	t.Helper()
	img, err := png.Decode(bytes.NewReader(b))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	rgba, ok := img.(*image.RGBA)
	if !ok {
		t.Fatalf("decoded %T, want *image.RGBA (8-bit truecolor)", img)
	}
	return rgba
}

// assertDecodesToRGBA encodes im and requires the decoded pixels to equal
// im.ToRGBA() exactly.
func assertDecodesToRGBA(t *testing.T, e *PNGEncoder, im *Image) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := e.Encode(&buf, im); err != nil {
		t.Fatal(err)
	}
	got, want := decodeRGBA(t, buf.Bytes()), im.ToRGBA()
	if got.Rect != want.Rect {
		t.Fatalf("decoded bounds %v, want %v", got.Rect, want.Rect)
	}
	if !bytes.Equal(got.Pix, want.Pix) {
		for i := range want.Pix {
			if got.Pix[i] != want.Pix[i] {
				t.Fatalf("%dx%d: pixel %d channel %d decodes to %d, ToRGBA has %d", im.W, im.H, i/4, i%4, got.Pix[i], want.Pix[i])
			}
		}
	}
	return buf.Bytes()
}

// randomImage fills a w x h image with premultiplied colors over a mix
// of fully transparent, fully opaque and partial alpha.
func randomImage(rng *rand.Rand, w, h int) *Image {
	im := NewImage(w, h)
	for i := 0; i < w*h; i++ {
		var a float32
		switch rng.Intn(3) {
		case 0:
			a = 0
		case 1:
			a = 1
		default:
			a = rng.Float32()
		}
		im.Color[4*i+0] = a * rng.Float32()
		im.Color[4*i+1] = a * rng.Float32()
		im.Color[4*i+2] = a * rng.Float32()
		im.Color[4*i+3] = a
	}
	return im
}

func TestPNGEncoderMatchesToRGBA(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var e PNGEncoder
	for _, sz := range [][2]int{{1, 1}, {3, 2}, {257, 5}, {64, 48}} {
		assertDecodesToRGBA(t, &e, randomImage(rng, sz[0], sz[1]))
	}
	// Uniform alpha 0 (all background) and alpha 1 (no background).
	assertDecodesToRGBA(t, &e, NewImage(9, 4))
	opaque := NewImage(9, 4)
	for i := 0; i < len(opaque.Color); i += 4 {
		copy(opaque.Color[i:i+4], []float32{0.2, 0.6, 1, 1})
	}
	assertDecodesToRGBA(t, &e, opaque)
}

// TestClamp8Specials pins the conversion at the channel values a float
// pipeline can produce, NaN included: Go leaves uint8(NaN) to the
// implementation, clamp8 defines it as 0 on every GOARCH.
func TestClamp8Specials(t *testing.T) {
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	for _, c := range []struct {
		v    float32
		want uint8
	}{
		{nan, 0}, {inf, 255}, {-inf, 0}, {-0.5, 0}, {0, 0}, {1.5, 255}, {1, 255},
		{0.5, 128}, {1.0 / 255, 1}, {0.4 / 255, 0},
	} {
		if got := clamp8(c.v); got != c.want {
			t.Errorf("clamp8(%v) = %d, want %d", c.v, got, c.want)
		}
	}
	im := NewImage(3, 2)
	copy(im.Color, []float32{
		nan, inf, -inf, 1,
		-0.25, 1.75, 0.5, 1,
		0.3, 0.1, nan, 0.5,
		0, 0, 0, nan,
		2, -1, 0.25, -0.5,
		0.1, 0.2, 0.3, 1.5,
	})
	var e PNGEncoder
	assertDecodesToRGBA(t, &e, im)
}

// TestPNGEncoderReuseAcrossSizes: an encoder's retained state never
// leaks into the next frame, whatever its size.
func TestPNGEncoderReuseAcrossSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var reused PNGEncoder
	for _, n := range []int{256, 64, 256} {
		im := randomImage(rng, n, n)
		got := assertDecodesToRGBA(t, &reused, im)
		var fresh PNGEncoder
		var want bytes.Buffer
		if err := fresh.Encode(&want, im); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("%d²: reused encoder wrote %d bytes, a fresh one %d, and they differ", n, len(got), want.Len())
		}
	}
}

func TestPNGEncoderRejectsEmptySizes(t *testing.T) {
	var e PNGEncoder
	for _, sz := range [][2]int{{0, 4}, {4, 0}, {-1, 3}, {0, 0}} {
		im := &Image{W: sz[0], H: sz[1]}
		if err := e.Encode(io.Discard, im); err == nil {
			t.Errorf("%dx%d encoded without an error", sz[0], sz[1])
		}
		if err := im.EncodePNG(io.Discard); err == nil {
			t.Errorf("EncodePNG %dx%d returned no error", sz[0], sz[1])
		}
	}
}
