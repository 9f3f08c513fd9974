package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"image"
	"image/draw"
	"image/png"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"
)

// decodePixels decodes a PNG to its RGBA pixels. The goldens hash these,
// not the PNG bytes, so an encoder-level change (compression level,
// filter choice) stays legal while a changed pixel does not.
func decodePixels(body []byte) (*image.RGBA, error) {
	img, err := png.Decode(bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	rgba := image.NewRGBA(img.Bounds())
	draw.Draw(rgba, rgba.Bounds(), img, img.Bounds().Min, draw.Src)
	return rgba, nil
}

func pixelHash(img *image.RGBA) string {
	sum := sha256.Sum256(img.Pix)
	return hex.EncodeToString(sum[:])
}

// verifySample checks one answer against what its request allows.
func verifySample(s *sample) error {
	if s.err != nil {
		return s.err
	}
	r := &s.req
	if !r.Feasible {
		if s.status != http.StatusUnprocessableEntity {
			return fmt.Errorf("impossible deadline answered %d, want 422", s.status)
		}
		return nil
	}
	if s.status != http.StatusOK {
		return fmt.Errorf("status %d, want 200", s.status)
	}
	if s.servedW <= 0 || s.servedH <= 0 {
		return errors.New("missing or malformed X-Renderd-Quality")
	}
	if r.DeadlineMS == 0 && (s.degraded || s.servedW != r.Size || s.servedH != r.Size) {
		return fmt.Errorf("degraded to %dx%d without a deadline", s.servedW, s.servedH)
	}
	if s.repeated {
		return nil // byte-identical to an answer that is verified itself
	}
	img, err := decodePixels(s.body)
	if err != nil {
		return fmt.Errorf("undecodable PNG: %w", err)
	}
	if b := img.Bounds(); b.Dx() != s.servedW || b.Dy() != s.servedH {
		return fmt.Errorf("PNG is %dx%d, X-Renderd-Quality says %dx%d", b.Dx(), b.Dy(), s.servedW, s.servedH)
	}
	return nil
}

// verifyAll checks every sample (decoding in parallel: the window is
// over, the cores are free) and returns the failures.
func verifyAll(samples []sample) []error {
	errs := make([]error, len(samples))
	var wg sync.WaitGroup
	workers := runtime.GOMAXPROCS(0)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(samples); i += workers {
				if err := verifySample(&samples[i]); err != nil {
					errs[i] = fmt.Errorf("request %d (%s %s): %w", samples[i].req.Index, samples[i].req.Class, samples[i].req.query(), err)
				}
			}
		}(g)
	}
	wg.Wait()
	var failed []error
	for _, err := range errs {
		if err != nil {
			failed = append(failed, err)
		}
	}
	return failed
}

// goldenFile is bench/golden.json. Pixel hashes are tied to the
// architecture they were rendered on: floating-point contraction (fused
// multiply-add on arm64) legitimately changes low bits, so another
// GOARCH skips the comparison instead of failing it.
type goldenFile struct {
	GOARCH string            `json:"goarch"`
	Note   string            `json:"note"`
	Pixels map[string]string `json:"pixels_sha256"`
}

// probes is the fixed correctness set: one pose per backend × sim the
// server accepts, at a size that keeps the whole set under a second.
func probes(cluster bool) []request {
	var out []request
	for _, k := range []sceneKind{
		{"raytracer", "kripke"}, {"raytracer", "lulesh"}, {"raytracer", "cloverleaf"},
		{"rasterizer", "kripke"}, {"rasterizer", "lulesh"}, {"rasterizer", "cloverleaf"},
		{"volume", "kripke"}, {"volume", "cloverleaf"},
	} {
		out = append(out, request{Class: "probe", Session: -1, Backend: k.backend, Sim: k.sim,
			N: 12, Size: 96, AzMilli: 33333, ZoomMil: 1000, Shards: 1, Feasible: true})
	}
	if cluster {
		out = append(out, shardProbe)
	}
	return out
}

// shardProbe is the one sharded golden; shard_pair also checks it
// against cluster.RenderStandalone rendered in this process.
var shardProbe = request{Class: "probe", Session: -1, Backend: "volume", Sim: "kripke",
	N: 12, Size: 96, AzMilli: 33333, ZoomMil: 1000, Shards: 2, Feasible: true}

func probeName(r *request) string {
	return fmt.Sprintf("%s/%s/n%d/%d/az%s/shards%d", r.Backend, r.Sim, r.N, r.Size, milli(r.AzMilli), r.Shards)
}

// runProbes renders the probe set on the live server and returns each
// probe's pixel hash.
func runProbes(ctx context.Context, base string, cluster bool) (map[string]string, error) {
	c := newClient(base)
	defer c.close()
	got := map[string]string{}
	for _, r := range probes(cluster) {
		s := c.do(ctx, r, time.Now(), nil)
		if s.err != nil {
			return nil, fmt.Errorf("probe %s: %w", probeName(&r), s.err)
		}
		if s.status != http.StatusOK {
			return nil, fmt.Errorf("probe %s: status %d: %s", probeName(&r), s.status, bytes.TrimSpace(s.body))
		}
		img, err := decodePixels(s.body)
		if err != nil {
			return nil, fmt.Errorf("probe %s: %w", probeName(&r), err)
		}
		got[probeName(&r)] = pixelHash(img)
	}
	return got, nil
}

// checkGolden compares probe hashes with the committed goldens.
func checkGolden(path string, got map[string]string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var g goldenFile
	if err := json.Unmarshal(b, &g); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if g.GOARCH != runtime.GOARCH {
		fmt.Fprintf(os.Stderr, "golden: recorded on %s, running on %s: pixel comparison skipped\n", g.GOARCH, runtime.GOARCH)
		return nil
	}
	for name, sum := range got {
		want, ok := g.Pixels[name]
		if !ok {
			return fmt.Errorf("golden: no entry for probe %s", name)
		}
		if want != sum {
			return fmt.Errorf("golden mismatch for %s: pixels hash to %s, golden is %s", name, sum, want)
		}
	}
	return nil
}

func writeGolden(path string, got map[string]string) error {
	b, err := json.MarshalIndent(goldenFile{
		GOARCH: runtime.GOARCH,
		Note:   "SHA-256 of decoded RGBA pixels per probe; regenerate with `go run -C bench . --update-golden` only when a change is meant to move pixels",
		Pixels: got,
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
