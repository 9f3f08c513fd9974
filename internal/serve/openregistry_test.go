package serve

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"insitu/internal/core"
	"insitu/internal/registry"
)

// volumeSamples plants a linear serial volume model (the paper's
// c0·AP·CS + c1·AP·SPR + c2) whose coefficients differ from
// testSnapshot's, so a refit on them visibly changes the served model.
func volumeSamples(n int) []core.Sample {
	rng := rand.New(rand.NewSource(27))
	out := make([]core.Sample, n)
	for i := range out {
		ap := float64(5000 + rng.Intn(50000))
		cs := float64(16 + rng.Intn(64))
		spr := float64(50 + rng.Intn(300))
		out[i] = core.Sample{
			Arch: "serial", Renderer: core.Volume,
			In:         core.Inputs{O: cs * cs * cs, AP: ap, SPR: spr, CS: cs, Pixels: 4 * ap, AvgAP: ap, Tasks: 1},
			RenderTime: 5e-10*ap*cs + 4e-9*ap*spr + 2e-4,
		}
	}
	return out
}

// volumeFit returns the serial volume model's coefficients in s.
func volumeFit(t *testing.T, s *registry.Snapshot) []float64 {
	t.Helper()
	for _, m := range s.Models {
		if m.Arch == "serial" && m.Renderer == string(core.Volume) {
			return m.Fit.Coef
		}
	}
	t.Fatalf("snapshot %q has no serial volume model", s.Source)
	return nil
}

// TestCalibratorPersistsRefit: a refit publishes into the registry and
// rewrites the registry file, and loading that file serves the refitted
// models — what lets calibration survive a restart.
func TestCalibratorPersistsRefit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "models.json")
	if err := testSnapshot().WriteFile(path); err != nil {
		t.Fatal(err)
	}
	reg := registry.New(0)
	if err := reg.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	gen := reg.Generation()
	c := NewCalibrator(reg, path, "serve-test-frames", 8, t.Logf)
	if _, published, reason, err := c.Observe(volumeSamples(12)); err != nil || !published {
		t.Fatalf("refit: published %v (%s), err %v", published, reason, err)
	}
	if got := reg.Generation(); got != gen+1 {
		t.Errorf("generation %d after a refit, want %d", got, gen+1)
	}
	served := reg.Snapshot()
	if served.Source != "serve-test-frames" {
		t.Errorf("served source %q, want the calibrator's", served.Source)
	}
	if reflect.DeepEqual(volumeFit(t, served), volumeFit(t, testSnapshot())) {
		t.Fatal("the refit left the volume model unchanged; the test proves nothing")
	}

	reloaded := registry.New(0)
	if err := reloaded.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	if got := reloaded.Snapshot(); got.Source != served.Source || !reflect.DeepEqual(got.Models, served.Models) {
		t.Errorf("reloaded %q %+v, want the served %q %+v", got.Source, got.Models, served.Source, served.Models)
	}
}

// TestCalibratorPersistFailureStillPublishes: with the registry file in
// a missing directory the refit still publishes and bumps the
// generation; the persist error is logged, not returned, because the
// refitted models are already serving.
func TestCalibratorPersistFailureStillPublishes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "missing", "models.json")
	reg := testRegistry(t)
	gen := reg.Generation()
	var logged []string
	logf := func(format string, args ...any) { logged = append(logged, fmt.Sprintf(format, args...)) }
	c := NewCalibrator(reg, path, "serve-test-frames", 8, logf)
	if _, published, reason, err := c.Observe(volumeSamples(12)); err != nil || !published {
		t.Fatalf("refit: published %v (%s), err %v", published, reason, err)
	}
	if got := reg.Generation(); got != gen+1 {
		t.Errorf("generation %d after a refit, want %d", got, gen+1)
	}
	if len(logged) != 1 || !strings.Contains(logged[0], "persisting "+path) {
		t.Errorf("logged %q, want one persist failure naming %s", logged, path)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("stat %s: %v, want not exist", path, err)
	}
}
