// Package framebuffer provides the image types shared by the renderers and
// the compositor: float RGBA color plus depth, a lock-free packed depth
// buffer for the rasterizer, color maps and transfer functions, and PNG
// output. Every PNG the repository writes goes through PNGEncoder, a
// one-pass writer: rows are composited over white, Up-filtered and
// deflated at BestSpeed as they are converted. Its pixels decode to
// exactly ToRGBA's; its bytes are not the standard library encoder's.
package framebuffer

import (
	"fmt"
	"image"
	"image/color"
	"io"
	"math"
	"os"
)

// MaxDepth marks pixels never touched by a renderer.
const MaxDepth = float32(math.MaxFloat32)

// Image is a W x H framebuffer with float RGBA color and a float depth
// channel. Color is stored as 4 floats per pixel in row-major order.
type Image struct {
	W, H  int
	Color []float32 // RGBA, length 4*W*H
	Depth []float32 // length W*H
}

// NewImage allocates a cleared image (transparent black, MaxDepth).
func NewImage(w, h int) *Image {
	img := &Image{W: w, H: h, Color: make([]float32, 4*w*h), Depth: make([]float32, w*h)}
	img.Clear()
	return img
}

// EnsureSize resizes the image to w x h, reallocating only when the
// pixel count grows, and clears it. This is the frame-arena entry point:
// renderers that reuse one Image across frames call EnsureSize instead of
// NewImage, so steady-state frames allocate nothing.
func (im *Image) EnsureSize(w, h int) {
	n := w * h
	if cap(im.Color) < 4*n {
		im.Color = make([]float32, 4*n)
		im.Depth = make([]float32, n)
	}
	im.W, im.H = w, h
	im.Color = im.Color[:4*n]
	im.Depth = im.Depth[:n]
	im.Clear()
}

// Clear resets the image to transparent black at MaxDepth.
func (im *Image) Clear() {
	for i := range im.Color {
		im.Color[i] = 0
	}
	for i := range im.Depth {
		im.Depth[i] = MaxDepth
	}
}

// ClearColor fills every pixel with the given color at MaxDepth.
func (im *Image) ClearColor(r, g, b, a float32) {
	for i := 0; i < im.W*im.H; i++ {
		im.Color[4*i+0] = r
		im.Color[4*i+1] = g
		im.Color[4*i+2] = b
		im.Color[4*i+3] = a
	}
	for i := range im.Depth {
		im.Depth[i] = MaxDepth
	}
}

// Set writes a pixel's color and depth.
//
//insitu:noalloc
func (im *Image) Set(x, y int, r, g, b, a, depth float32) {
	i := y*im.W + x
	im.Color[4*i+0] = r
	im.Color[4*i+1] = g
	im.Color[4*i+2] = b
	im.Color[4*i+3] = a
	im.Depth[i] = depth
}

// At returns a pixel's color.
func (im *Image) At(x, y int) (r, g, b, a float32) {
	i := y*im.W + x
	return im.Color[4*i+0], im.Color[4*i+1], im.Color[4*i+2], im.Color[4*i+3]
}

// ActivePixels counts pixels written by a renderer: any pixel with depth
// below MaxDepth or nonzero alpha. This is the model input variable AP.
func (im *Image) ActivePixels() int {
	n := 0
	for i := 0; i < im.W*im.H; i++ {
		if im.Depth[i] < MaxDepth || im.Color[4*i+3] > 0 {
			n++
		}
	}
	return n
}

// DepthCompositeFrom merges other into im pixel-by-pixel, keeping the
// nearer fragment. This is the z-test operator used for opaque sort-last
// compositing; it is commutative and associative, so any compositing
// schedule produces the same image.
func (im *Image) DepthCompositeFrom(other *Image) error {
	if im.W != other.W || im.H != other.H {
		return fmt.Errorf("framebuffer: size mismatch %dx%d vs %dx%d", im.W, im.H, other.W, other.H)
	}
	for i := 0; i < im.W*im.H; i++ {
		if other.Depth[i] < im.Depth[i] {
			im.Depth[i] = other.Depth[i]
			copy(im.Color[4*i:4*i+4], other.Color[4*i:4*i+4])
		}
	}
	return nil
}

// BlendUnder composites im over other and stores the result in im,
// assuming both use premultiplied alpha and im is in front of other
// (the "under" operator as seen from im). Associative but not commutative:
// callers must respect visibility order.
func (im *Image) BlendUnder(other *Image) error {
	if im.W != other.W || im.H != other.H {
		return fmt.Errorf("framebuffer: size mismatch %dx%d vs %dx%d", im.W, im.H, other.W, other.H)
	}
	for i := 0; i < im.W*im.H; i++ {
		a := im.Color[4*i+3]
		t := 1 - a
		im.Color[4*i+0] += t * other.Color[4*i+0]
		im.Color[4*i+1] += t * other.Color[4*i+1]
		im.Color[4*i+2] += t * other.Color[4*i+2]
		im.Color[4*i+3] = a + t*other.Color[4*i+3]
		if other.Depth[i] < im.Depth[i] {
			im.Depth[i] = other.Depth[i]
		}
	}
	return nil
}

// CopyFrom makes im a deep copy of other, reusing im's buffers when they
// are large enough (the allocation-free form of Clone).
func (im *Image) CopyFrom(other *Image) {
	n := other.W * other.H
	if cap(im.Color) < 4*n {
		im.Color = make([]float32, 4*n)
		im.Depth = make([]float32, n)
	}
	im.W, im.H = other.W, other.H
	im.Color = im.Color[:4*n]
	im.Depth = im.Depth[:n]
	copy(im.Color, other.Color)
	copy(im.Depth, other.Depth)
}

// SubRangeInto copies the pixel range [lo, hi) of the flattened image
// into dst as a standalone strip, reusing dst's buffers (the
// allocation-free form of SubRange).
func (im *Image) SubRangeInto(lo, hi int, dst *Image) {
	n := hi - lo
	if cap(dst.Color) < 4*n {
		dst.Color = make([]float32, 4*n)
		dst.Depth = make([]float32, n)
	}
	dst.W, dst.H = n, 1
	dst.Color = dst.Color[:4*n]
	dst.Depth = dst.Depth[:n]
	copy(dst.Color, im.Color[4*lo:4*hi])
	copy(dst.Depth, im.Depth[lo:hi])
}

// Clone returns a deep copy of the image.
func (im *Image) Clone() *Image {
	out := &Image{W: im.W, H: im.H, Color: make([]float32, len(im.Color)), Depth: make([]float32, len(im.Depth))}
	copy(out.Color, im.Color)
	copy(out.Depth, im.Depth)
	return out
}

// SubRange returns the pixel range [lo, hi) of the flattened image as a
// standalone image strip; used by the compositor's partition exchanges.
func (im *Image) SubRange(lo, hi int) *Image {
	n := hi - lo
	out := &Image{W: n, H: 1, Color: make([]float32, 4*n), Depth: make([]float32, n)}
	copy(out.Color, im.Color[4*lo:4*hi])
	copy(out.Depth, im.Depth[lo:hi])
	return out
}

// WriteRange copies a strip produced by SubRange back into [lo, hi).
func (im *Image) WriteRange(lo int, strip *Image) {
	copy(im.Color[4*lo:], strip.Color)
	copy(im.Depth[lo:], strip.Depth)
}

// ToRGBA converts to an 8-bit image, compositing onto an opaque white
// background and clamping.
func (im *Image) ToRGBA() *image.RGBA {
	out := image.NewRGBA(image.Rect(0, 0, im.W, im.H))
	for y := 0; y < im.H; y++ {
		for x := 0; x < im.W; x++ {
			i := y*im.W + x
			a := im.Color[4*i+3]
			bg := 1 - a
			r := im.Color[4*i+0] + bg
			g := im.Color[4*i+1] + bg
			b := im.Color[4*i+2] + bg
			out.SetRGBA(x, y, color.RGBA{
				R: clamp8(r),
				G: clamp8(g),
				B: clamp8(b),
				A: 255,
			})
		}
	}
	return out
}

// clamp8 converts one channel to 8 bits, rounding to nearest. NaN maps to
// 0 explicitly: converting an out-of-range float to an integer is
// implementation-defined in Go, and 0 is what amd64 produced before.
func clamp8(v float32) uint8 {
	if v >= 1 {
		return 255
	}
	if v > 0 {
		return uint8(v*255 + 0.5)
	}
	return 0 // v <= 0 or NaN
}

// EncodePNG writes the image as PNG through a fresh PNGEncoder; encode
// many frames through one retained PNGEncoder instead.
func (im *Image) EncodePNG(w io.Writer) error {
	var e PNGEncoder
	return e.Encode(w, im)
}

// SavePNG writes the image to a PNG file.
func (im *Image) SavePNG(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := im.EncodePNG(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
