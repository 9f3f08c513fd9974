package cluster

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"insitu/internal/comm"
	"insitu/internal/core"
	"insitu/internal/framebuffer"
)

func TestPackBytesRoundTrip(t *testing.T) {
	for n := 0; n < 9; n++ {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(17*i + 3)
		}
		// Trailing payload words must survive untouched.
		msg := append(comm.PackBytes(b), 1.5, 2.5)
		got, words, err := comm.UnpackBytes(msg)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !bytes.Equal(got, b) {
			t.Fatalf("n=%d: round trip %v != %v", n, got, b)
		}
		if rest := msg[words:]; len(rest) != 2 || rest[0] != 1.5 || rest[1] != 2.5 {
			t.Fatalf("n=%d: trailing payload corrupted: %v", n, rest)
		}
	}
}

func TestUnpackBytesRejectsTruncation(t *testing.T) {
	msg := comm.PackBytes([]byte("hello world"))
	if _, _, err := comm.UnpackBytes(msg[:2]); err == nil {
		t.Fatal("truncated message accepted")
	}
	if _, _, err := comm.UnpackBytes(nil); err == nil {
		t.Fatal("empty message accepted")
	}
}

func TestResultRoundTrip(t *testing.T) {
	img := framebuffer.NewImage(3, 2)
	for i := range img.Color {
		img.Color[i] = float32(i) / 7
	}
	res := &wireResult{
		JobID: 42, W: 3, H: 2,
		In:                core.Inputs{Pixels: 6, Tasks: 3, AP: 5, AvgAP: 4.5},
		BuildSeconds:      0.25,
		RenderSeconds:     1.5,
		CompositeSeconds:  0.125,
		RankRenderSeconds: []float64{1.5, 0.5, 1},
	}
	msg, err := encodeResult(res, img)
	if err != nil {
		t.Fatal(err)
	}
	got, gimg, err := decodeResult(msg)
	if err != nil {
		t.Fatal(err)
	}
	if got.JobID != 42 || got.In.AvgAP != 4.5 || got.RenderSeconds != 1.5 || len(got.RankRenderSeconds) != 3 {
		t.Fatalf("header mangled: %+v", got)
	}
	if gimg.W != 3 || gimg.H != 2 {
		t.Fatalf("image %dx%d", gimg.W, gimg.H)
	}
	for i := range img.Color {
		if gimg.Color[i] != img.Color[i] {
			t.Fatalf("color word %d: %v != %v", i, gimg.Color[i], img.Color[i])
		}
	}

	// Error results carry no image.
	emsg, err := encodeResult(&wireResult{JobID: 7, Err: "boom"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	eres, eimg, err := decodeResult(emsg)
	if err != nil || eres.Err != "boom" || eimg != nil {
		t.Fatalf("error result: %+v %v %v", eres, eimg, err)
	}
}

// FuzzDecodeResult feeds decodeResult arbitrary messages, as
// little-endian float32 words. Whatever a header claims, decodeResult
// must reject the message or return an image whose dimensions are
// positive and account for exactly the words it carried. The hostile
// headers (negative dimensions, a 4*W*H that wraps to 0 at 64 and at 32
// bits, a packed length near 1<<31) are the committed corpus under
// testdata/fuzz, which plain `go test` replays on every GOARCH.
func FuzzDecodeResult(f *testing.F) {
	img := framebuffer.NewImage(3, 2)
	for i := range img.Color {
		img.Color[i] = float32(i) / 7
	}
	for _, m := range []struct {
		res *wireResult
		img *framebuffer.Image
	}{
		{&wireResult{JobID: 42, W: 3, H: 2, In: core.Inputs{Pixels: 6, Tasks: 3}}, img},
		{&wireResult{JobID: 7, Err: "boom", Retryable: true}, nil},
	} {
		msg, err := encodeResult(m.res, m.img)
		if err != nil {
			f.Fatal(err)
		}
		b := make([]byte, 4*len(msg))
		for i, w := range msg {
			binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(w))
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		msg := make([]float32, len(b)/4)
		for i := range msg {
			msg[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
		}
		res, img, err := decodeResult(msg)
		switch {
		case err != nil:
		case res.Err != "":
			if img != nil {
				t.Fatalf("error result %q carries an image", res.Err)
			}
		case img == nil || img.W != res.W || img.H != res.H || img.W <= 0 || img.H <= 0:
			t.Fatalf("header %dx%d decoded to %v", res.W, res.H, img)
		case len(img.Color) != 4*img.W*img.H:
			t.Fatalf("%dx%d image holds %d color words", img.W, img.H, len(img.Color))
		}
	})
}

func TestPlacementDistinctAndStable(t *testing.T) {
	job := Job{Backend: "raytracer", Sim: "kripke", Arch: "serial", N: 8, Width: 64, Height: 64, Shards: 3}
	const workers = 5
	m1, err := placeShards(workers, nil, &job)
	if err != nil {
		t.Fatal(err)
	}
	if len(m1) != 3 {
		t.Fatalf("placement %v", m1)
	}
	seen := map[int]bool{}
	for _, w := range m1 {
		if w < 1 || w > workers {
			t.Fatalf("member %d outside worker range", w)
		}
		if seen[w] {
			t.Fatalf("placement %v reuses a worker", m1)
		}
		seen[w] = true
	}
	// Stable across repeats.
	m2, _ := placeShards(workers, nil, &job)
	for i := range m1 {
		if m1[i] != m2[i] {
			t.Fatalf("placement unstable: %v vs %v", m1, m2)
		}
	}
	// Resolution and workload changes (the degrade ladder's moves) keep
	// shards on the ranks holding their sliced scenes.
	degraded := job
	degraded.Width, degraded.Height, degraded.RTWorkload = 32, 32, 1
	m3, _ := placeShards(workers, nil, &degraded)
	for i := range m1 {
		if m1[i] != m3[i] {
			t.Fatalf("degraded request migrated shards: %v vs %v", m1, m3)
		}
	}
	// Too many shards for the fleet is an error, not a wedge.
	over := job
	over.Shards = workers + 1
	if _, err := placeShards(workers, nil, &over); err == nil {
		t.Fatal("oversharded placement accepted")
	}
}

// TestPlacementCameraAffinity: the shard key excludes the camera, so a
// streaming session's speculative prefetch — the same scene at
// predicted future azimuths and zooms — lands every shard on the ranks
// already holding its sliced scene and warm runner. Speculation across
// a rank fleet inherits rendezvous affinity for free.
func TestPlacementCameraAffinity(t *testing.T) {
	job := Job{Backend: "raytracer", Sim: "kripke", Arch: "serial", N: 8, Width: 64, Height: 64, Shards: 3}
	const workers = 5
	base, err := placeShards(workers, nil, &job)
	if err != nil {
		t.Fatal(err)
	}
	for _, az := range []float64{15, 30, 345, 0.5} {
		for _, zoom := range []float64{1, 1.25, 0.8} {
			moved := job
			moved.Azimuth, moved.Zoom = az, zoom
			m, err := placeShards(workers, nil, &moved)
			if err != nil {
				t.Fatal(err)
			}
			for i := range base {
				if m[i] != base[i] {
					t.Fatalf("camera az=%g zoom=%g migrated shards: %v vs %v", az, zoom, m, base)
				}
			}
		}
	}
}
