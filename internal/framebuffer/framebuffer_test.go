package framebuffer

import (
	"bytes"
	"image/png"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"insitu/internal/vecmath"
)

func TestPackUnpackRoundTrip(t *testing.T) {
	f := func(depth float32, rgba uint32) bool {
		if depth < 0 {
			depth = -depth
		}
		d, c := Unpack(Pack(depth, rgba))
		return d == depth && c == rgba
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPackOrderingMatchesDepth(t *testing.T) {
	// For non-negative depths, packed words must order like depths, which
	// is what makes the atomic-min z-test correct.
	f := func(a, b float32) bool {
		if a < 0 {
			a = -a
		}
		if b < 0 {
			b = -b
		}
		pa, pb := Pack(a, 0xffffffff), Pack(b, 0)
		if a < b {
			return pa < pb
		}
		if a > b {
			return pa > pb
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPackedBufferConcurrentMin(t *testing.T) {
	b := NewPackedBuffer(4, 4)
	const writers = 8
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for n := 0; n < 2000; n++ {
				i := rng.Intn(16)
				b.Write(i, 1+rng.Float32()*100, uint32(rng.Int63()))
			}
		}(w)
	}
	wg.Wait()
	// Now write a definitive minimum and ensure it sticks.
	for i := 0; i < 16; i++ {
		b.Write(i, 0.001, 0xdeadbeef)
	}
	img := NewImage(4, 4)
	b.Resolve(img)
	for i := 0; i < 16; i++ {
		if img.Depth[i] != 0.001 {
			t.Fatalf("pixel %d depth = %v, min write lost", i, img.Depth[i])
		}
	}
}

func TestDepthCompositeCommutative(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	mk := func() *Image {
		im := NewImage(8, 8)
		for i := 0; i < 64; i++ {
			if rng.Float32() < 0.7 {
				im.Set(i%8, i/8, rng.Float32(), rng.Float32(), rng.Float32(), 1, rng.Float32()*10)
			}
		}
		return im
	}
	a, b := mk(), mk()
	ab := a.Clone()
	if err := ab.DepthCompositeFrom(b); err != nil {
		t.Fatal(err)
	}
	ba := b.Clone()
	if err := ba.DepthCompositeFrom(a); err != nil {
		t.Fatal(err)
	}
	for i := range ab.Depth {
		if ab.Depth[i] != ba.Depth[i] {
			t.Fatalf("depth differs at %d", i)
		}
	}
	for i := range ab.Color {
		if ab.Color[i] != ba.Color[i] {
			t.Fatalf("color differs at %d", i)
		}
	}
}

func TestDepthCompositeSizeMismatch(t *testing.T) {
	a, b := NewImage(4, 4), NewImage(5, 4)
	if err := a.DepthCompositeFrom(b); err == nil {
		t.Error("expected size mismatch error")
	}
	if err := a.BlendUnder(b); err == nil {
		t.Error("expected size mismatch error")
	}
}

func TestBlendUnderAssociative(t *testing.T) {
	// (a under b) under c == a under (b under c) for premultiplied over.
	rng := rand.New(rand.NewSource(9))
	mk := func() *Image {
		im := NewImage(4, 4)
		for i := 0; i < 16; i++ {
			a := rng.Float32()
			im.Set(i%4, i/4, rng.Float32()*a, rng.Float32()*a, rng.Float32()*a, a, rng.Float32())
		}
		return im
	}
	a, b, c := mk(), mk(), mk()

	left := a.Clone()
	if err := left.BlendUnder(b); err != nil {
		t.Fatal(err)
	}
	if err := left.BlendUnder(c); err != nil {
		t.Fatal(err)
	}

	bc := b.Clone()
	if err := bc.BlendUnder(c); err != nil {
		t.Fatal(err)
	}
	right := a.Clone()
	if err := right.BlendUnder(bc); err != nil {
		t.Fatal(err)
	}

	for i := range left.Color {
		diff := left.Color[i] - right.Color[i]
		if diff < -1e-5 || diff > 1e-5 {
			t.Fatalf("blend not associative at %d: %v vs %v", i, left.Color[i], right.Color[i])
		}
	}
}

func TestActivePixels(t *testing.T) {
	im := NewImage(10, 10)
	if im.ActivePixels() != 0 {
		t.Errorf("fresh image has %d active pixels", im.ActivePixels())
	}
	im.Set(3, 4, 1, 0, 0, 1, 2.5)
	im.Set(9, 9, 0, 0, 0, 0.5, MaxDepth) // alpha-only counts too
	if got := im.ActivePixels(); got != 2 {
		t.Errorf("ActivePixels = %d want 2", got)
	}
}

func TestSubRangeWriteRangeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	im := NewImage(8, 4)
	for i := 0; i < 32; i++ {
		im.Set(i%8, i/8, rng.Float32(), rng.Float32(), rng.Float32(), 1, rng.Float32())
	}
	var strip Image
	im.SubRangeInto(5, 21, &strip)
	out := NewImage(8, 4)
	out.WriteRange(5, &strip)
	for i := 5; i < 21; i++ {
		if out.Depth[i] != im.Depth[i] {
			t.Fatalf("depth mismatch at %d", i)
		}
		for c := 0; c < 4; c++ {
			if out.Color[4*i+c] != im.Color[4*i+c] {
				t.Fatalf("color mismatch at %d", i)
			}
		}
	}
}

func TestEncodePNG(t *testing.T) {
	im := NewImage(16, 8)
	im.Set(1, 1, 1, 0, 0, 1, 0.5)
	var buf bytes.Buffer
	if err := im.EncodePNG(&buf); err != nil {
		t.Fatal(err)
	}
	decoded, err := png.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if decoded.Bounds().Dx() != 16 || decoded.Bounds().Dy() != 8 {
		t.Errorf("decoded size = %v", decoded.Bounds())
	}
}

func TestColorMapEndpoints(t *testing.T) {
	cm := CoolToWarm()
	lo := cm.Sample(0)
	hi := cm.Sample(1)
	if lo.Z < lo.X {
		t.Errorf("cold end should be blue-ish: %v", lo)
	}
	if hi.X < hi.Z {
		t.Errorf("warm end should be red-ish: %v", hi)
	}
	// Out-of-range inputs clamp.
	if cm.Sample(-5) != lo || cm.Sample(7) != hi {
		t.Error("Sample should clamp out-of-range input")
	}
}

func TestColorMapInterpolates(t *testing.T) {
	cm := NewColorMap(
		[]float64{0, 1},
		[]vecmath.Vec3{{X: 0, Y: 0, Z: 0}, {X: 1, Y: 1, Z: 1}},
	)
	mid := cm.Sample(0.25)
	if mid.X < 0.2 || mid.X > 0.3 {
		t.Errorf("Sample(0.25) = %v, want ~0.25 gray", mid)
	}
}

func TestTransferFunctionMonotoneAlpha(t *testing.T) {
	tf := DefaultTransferFunction()
	prev := -1.0
	for i := 0; i <= 100; i++ {
		_, _, _, a := tf.Sample(float64(i) / 100)
		if a < prev-1e-12 {
			t.Fatalf("default transfer function opacity not monotone at %d: %v < %v", i, a, prev)
		}
		prev = a
	}
	if _, _, _, a := tf.Sample(0); a != 0 {
		t.Errorf("alpha at 0 = %v", a)
	}
}
