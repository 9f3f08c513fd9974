package study

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"insitu/internal/core"
	"insitu/internal/registry"
)

// syntheticVolumeSamples plants a known linear volume model so refits are
// verifiable without running the measurement harness.
func syntheticVolumeSamples(arch string, n int, seed int64, c0, c1, c2 float64) []core.Sample {
	rng := rand.New(rand.NewSource(seed))
	out := make([]core.Sample, n)
	for i := range out {
		ap := float64(5000 + rng.Intn(50000))
		cs := float64(16 + rng.Intn(64))
		spr := float64(50 + rng.Intn(300))
		in := core.Inputs{O: cs * cs * cs, AP: ap, SPR: spr, CS: cs, Pixels: 4 * ap, AvgAP: ap, Tasks: 1}
		out[i] = core.Sample{
			Arch: arch, Renderer: core.Volume, In: in,
			RenderTime: c0*ap*cs + c1*ap*spr + c2,
		}
	}
	return out
}

func TestCalibratorRefitsOnCadenceAndPublishes(t *testing.T) {
	var (
		mu        sync.Mutex
		published []*registry.Snapshot
	)
	c := &Calibrator{
		Source:     "test",
		RefitEvery: 6,
		Publish: func(s *registry.Snapshot, baseGen uint64) error {
			mu.Lock()
			published = append(published, s)
			mu.Unlock()
			return nil
		},
	}
	samples := syntheticVolumeSamples("cpu", 12, 3, 5e-10, 4e-9, 2e-4)

	// Below cadence: accepted but not published.
	corpus, pub, reason, err := c.Observe(samples[:3])
	if err != nil {
		t.Fatal(err)
	}
	if corpus != 3 || pub || reason == "" {
		t.Fatalf("corpus=%d published=%v reason=%q", corpus, pub, reason)
	}

	// Crossing the cadence triggers a refit and publish.
	corpus, pub, _, err = c.Observe(samples[3:9])
	if err != nil {
		t.Fatal(err)
	}
	if corpus != 9 || !pub {
		t.Fatalf("corpus=%d published=%v", corpus, pub)
	}
	if len(published) != 1 {
		t.Fatalf("published %d snapshots", len(published))
	}
	snap := published[0]
	if snap.Source != "test" || len(snap.Models) != 1 {
		t.Fatalf("snapshot: source=%q models=%d", snap.Source, len(snap.Models))
	}
	// The refit recovers the planted coefficients.
	set, err := snap.ModelSet()
	if err != nil {
		t.Fatal(err)
	}
	coef := set.Models[core.Key("cpu", core.Volume)].Fit.Coef
	for i, want := range []float64{5e-10, 4e-9, 2e-4} {
		if math.Abs(coef[i]-want) > math.Abs(want)*0.05+1e-12 {
			t.Errorf("coef[%d] = %v, want ~%v", i, coef[i], want)
		}
	}

	// Forced refit publishes the trailing rows immediately.
	if _, _, _, err := c.Observe(samples[9:]); err != nil {
		t.Fatal(err)
	}
	pub, _, err = c.Refit()
	if err != nil || !pub {
		t.Fatalf("forced refit: published=%v err=%v", pub, err)
	}
	if c.CorpusSize() != 12 {
		t.Errorf("corpus size = %d", c.CorpusSize())
	}
}

func TestCalibratorThinCorpusIsPendingNotError(t *testing.T) {
	c := &Calibrator{
		Source:  "test",
		Publish: func(*registry.Snapshot, uint64) error { t.Error("published from a 2-sample corpus"); return nil },
	}
	samples := syntheticVolumeSamples("cpu", 2, 5, 5e-10, 4e-9, 2e-4)
	corpus, pub, reason, err := c.Observe(samples)
	if err != nil {
		t.Fatal(err)
	}
	if pub || corpus != 2 || reason == "" {
		t.Errorf("corpus=%d published=%v reason=%q", corpus, pub, reason)
	}
}

// TestCalibratorMergesBaseSnapshot: a corpus that can only refit one group
// must publish a snapshot that still carries the base's other models, its
// compositing model, and the mapping constant the corpus cannot
// recalibrate — a continuous publish refines the served set, never
// shrinks it.
func TestCalibratorMergesBaseSnapshot(t *testing.T) {
	// Base: a full snapshot fitted from the core synthetic corpus shape —
	// build it from planted volume + raytracer samples.
	baseSamples := syntheticVolumeSamples("cpu", 8, 11, 1e-9, 8e-9, 1e-4)
	baseSamples = append(baseSamples, syntheticVolumeSamples("serial", 8, 13, 2e-9, 9e-9, 3e-4)...)
	baseSet, err := core.FitModels(baseSamples)
	if err != nil {
		t.Fatal(err)
	}
	baseMp := core.Mapping{FillFraction: 0.61, SPRBase: 290}
	base := registry.FromModelSet(baseSet, baseMp, "base")

	var got *registry.Snapshot
	c := &Calibrator{
		Source: "refit",
		Base:   func() (*registry.Snapshot, uint64) { return base, 7 },
		Publish: func(s *registry.Snapshot, baseGen uint64) error {
			if baseGen != 7 {
				t.Errorf("publish saw base generation %d, want 7", baseGen)
			}
			got = s
			return nil
		},
	}
	// Fresh corpus refits only cpu/volume (different planted constants).
	fresh := syntheticVolumeSamples("cpu", 8, 17, 3e-9, 2e-9, 5e-4)
	_, pub, _, err := c.Observe(fresh)
	if err != nil {
		t.Fatal(err)
	}
	if !pub || got == nil {
		t.Fatal("refit did not publish")
	}
	if len(got.Models) != 2 {
		t.Fatalf("merged snapshot has %d models, want 2 (refit cpu + carried serial)", len(got.Models))
	}
	set, err := got.ModelSet()
	if err != nil {
		t.Fatal(err)
	}
	refit := set.Models[core.Key("cpu", core.Volume)]
	if math.Abs(refit.Fit.Coef[0]-3e-9) > 3e-10 {
		t.Errorf("cpu/volume not refitted: c0 = %v", refit.Fit.Coef[0])
	}
	carried := set.Models[core.Key("serial", core.Volume)]
	if carried == nil {
		t.Fatal("serial/volume dropped by the merge")
	}
	if math.Abs(carried.Fit.Coef[0]-2e-9) > 2e-10 {
		t.Errorf("serial/volume altered by the merge: c0 = %v", carried.Fit.Coef[0])
	}
	// The corpus has no surface samples, so FillFraction must come from
	// the base, not the paper default; SPRBase is recalibrated.
	if got.Mapping.FillFraction != 0.61 {
		t.Errorf("FillFraction = %v, want the base's 0.61", got.Mapping.FillFraction)
	}
	if got.Mapping.SPRBase == 290 {
		t.Error("SPRBase not recalibrated from the fresh volume corpus")
	}
	// Models stay sorted by key, the registry snapshot invariant.
	for i := 1; i < len(got.Models); i++ {
		a := core.Key(got.Models[i-1].Arch, core.Renderer(got.Models[i-1].Renderer))
		b := core.Key(got.Models[i].Arch, core.Renderer(got.Models[i].Renderer))
		if a >= b {
			t.Errorf("merged models unsorted: %s before %s", a, b)
		}
	}
}

// TestCalibratorMaxCorpusSlidesWindow: a bounded calibrator retains only
// the newest MaxCorpus samples, so long-running ingestion neither grows
// memory nor refit cost without bound.
func TestCalibratorMaxCorpusSlidesWindow(t *testing.T) {
	c := &Calibrator{
		Source:    "test",
		MaxCorpus: 10,
		Publish:   func(*registry.Snapshot, uint64) error { return nil },
	}
	old := syntheticVolumeSamples("cpu", 10, 31, 1e-9, 1e-9, 1e-4)
	if corpus, _, _, err := c.Observe(old); err != nil || corpus != 10 {
		t.Fatalf("corpus=%d err=%v", corpus, err)
	}
	// Planted change: the window must forget the old process entirely.
	fresh := syntheticVolumeSamples("cpu", 10, 37, 6e-9, 3e-9, 8e-4)
	corpus, pub, _, err := c.Observe(fresh)
	if err != nil || corpus != 10 || !pub {
		t.Fatalf("corpus=%d published=%v err=%v", corpus, pub, err)
	}
	var got *registry.Snapshot
	c.Publish = func(s *registry.Snapshot, _ uint64) error { got = s; return nil }
	if _, _, err := c.Refit(); err != nil {
		t.Fatal(err)
	}
	set, err := got.ModelSet()
	if err != nil {
		t.Fatal(err)
	}
	c0 := set.Models[core.Key("cpu", core.Volume)].Fit.Coef[0]
	if math.Abs(c0-6e-9) > 6e-10 {
		t.Errorf("window still mixes evicted samples: c0 = %v, want ~6e-9", c0)
	}
}

func TestCalibratorPublishFailureIsAnError(t *testing.T) {
	c := &Calibrator{
		Source:  "test",
		Publish: func(*registry.Snapshot, uint64) error { return fmt.Errorf("disk full") },
	}
	_, _, _, err := c.Observe(syntheticVolumeSamples("cpu", 8, 23, 5e-10, 4e-9, 2e-4))
	if err == nil {
		t.Fatal("publish failure swallowed")
	}
	// The pending counter was not reset, so the next observation retries.
	ok := false
	c.Publish = func(*registry.Snapshot, uint64) error { ok = true; return nil }
	if _, pub, _, err := c.Observe(syntheticVolumeSamples("cpu", 1, 29, 5e-10, 4e-9, 2e-4)); err != nil || !pub {
		t.Fatalf("retry after publish failure: published=%v err=%v", pub, err)
	}
	if !ok {
		t.Error("publish hook not retried")
	}
}

// TestCalibratorRetriesStalePublish: when a conditional publish loses the
// race to a concurrent registry load (registry.ErrStale), the calibrator
// re-reads the base, re-merges, and retries — the concurrent load's
// models survive into the published snapshot.
func TestCalibratorRetriesStalePublish(t *testing.T) {
	reg := registry.New(0)
	baseSamples := syntheticVolumeSamples("serial", 8, 13, 2e-9, 9e-9, 3e-4)
	baseSet, err := core.FitModels(baseSamples)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Load(registry.FromModelSet(baseSet, core.DefaultMapping(), "base")); err != nil {
		t.Fatal(err)
	}

	// A "concurrent" reload lands between the calibrator's base read and
	// its publish: simulate by bumping the registry on the first publish
	// attempt, before handing the snapshot to PublishIf.
	interfered := false
	c := &Calibrator{
		Source: "refit",
		Base: func() (*registry.Snapshot, uint64) {
			return reg.Snapshot(), reg.Generation()
		},
		Publish: func(s *registry.Snapshot, baseGen uint64) error {
			if !interfered {
				interfered = true
				// The interloper installs a snapshot with an extra model.
				moreSamples := append(append([]core.Sample(nil), baseSamples...),
					syntheticVolumeSamples("mic", 8, 19, 4e-9, 7e-9, 2e-4)...)
				moreSet, err := core.FitModels(moreSamples)
				if err != nil {
					t.Fatal(err)
				}
				if err := reg.Load(registry.FromModelSet(moreSet, core.DefaultMapping(), "interloper")); err != nil {
					t.Fatal(err)
				}
			}
			return reg.PublishIf(s, baseGen)
		},
	}
	_, pub, _, err := c.Observe(syntheticVolumeSamples("cpu", 8, 17, 3e-9, 2e-9, 5e-4))
	if err != nil {
		t.Fatal(err)
	}
	if !pub {
		t.Fatal("refit did not publish after retry")
	}
	snap := reg.Snapshot()
	if snap.Source != "refit" {
		t.Fatalf("serving source %q", snap.Source)
	}
	keys := map[string]bool{}
	for _, d := range snap.Models {
		keys[core.Key(d.Arch, core.Renderer(d.Renderer))] = true
	}
	for _, want := range []string{"cpu|volume", "serial|volume", "mic|volume"} {
		want = strings.ReplaceAll(want, "|", "/")
		if !keys[want] {
			t.Errorf("published snapshot lost %s (have %v)", want, keys)
		}
	}
}
