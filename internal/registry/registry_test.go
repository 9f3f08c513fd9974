package registry

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"insitu/internal/core"
	"insitu/internal/lru"
)

// fittedSet fits a model set from synthetic study-like samples, mirroring
// the generating process of the core package tests.
func fittedSet(t *testing.T, seed int64) (*core.ModelSet, core.Mapping, []core.Sample) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var samples []core.Sample
	for i := 0; i < 60; i++ {
		tasks := []int{1, 2, 4}[rng.Intn(3)]
		pix := float64(10000 + rng.Intn(90000))
		ap := 0.5 * pix / math.Cbrt(float64(tasks))
		objects := float64(2000 + rng.Intn(50000))
		noise := func() float64 { return 1 + 0.01*rng.NormFloat64() }

		rtIn := core.Inputs{O: objects, AP: ap, Pixels: pix, AvgAP: ap * 0.9, Tasks: tasks}
		rt := core.Sample{
			Arch: "cpu", Renderer: core.RayTrace, In: rtIn,
			BuildTime:  (3e-8*objects + 1e-4) * noise(),
			RenderTime: (2e-9*ap*math.Log2(objects) + 4e-8*ap + 2e-4) * noise(),
		}
		if tasks > 1 {
			rt.CompositeTime = (1.5e-8*rtIn.AvgAP + 5e-9*pix + 1e-4) * noise()
		}
		samples = append(samples, rt)

		vo := math.Min(ap, objects)
		raIn := core.Inputs{O: objects, AP: ap, VO: vo, PPT: 4 * ap / vo, Pixels: pix, AvgAP: ap * 0.9, Tasks: tasks}
		ra := core.Sample{
			Arch: "cpu", Renderer: core.Raster, In: raIn,
			RenderTime: (1e-8*objects + 2e-9*4*ap + 1e-4) * noise(),
		}
		if tasks > 1 {
			ra.CompositeTime = (1.5e-8*raIn.AvgAP + 5e-9*pix + 1e-4) * noise()
		}
		samples = append(samples, ra)

		cs := float64(32 + rng.Intn(96))
		spr := 100 / math.Cbrt(float64(tasks))
		vIn := core.Inputs{O: cs * cs * cs, AP: ap, SPR: spr, CS: cs, Pixels: pix, AvgAP: ap * 0.9, Tasks: tasks}
		v := core.Sample{
			Arch: "cpu", Renderer: core.Volume, In: vIn,
			RenderTime: (5e-10*ap*cs + 4e-9*ap*spr + 2e-4) * noise(),
		}
		if tasks > 1 {
			v.CompositeTime = (1.5e-8*vIn.AvgAP + 5e-9*pix + 1e-4) * noise()
		}
		samples = append(samples, v)
	}
	set, err := core.FitModels(samples)
	if err != nil {
		t.Fatal(err)
	}
	return set, core.CalibrateMapping(samples), samples
}

// probeInputs is a spread of input vectors for prediction comparison.
func probeInputs(n int, seed int64) []core.Inputs {
	rng := rand.New(rand.NewSource(seed))
	out := make([]core.Inputs, n)
	for i := range out {
		out[i] = core.Inputs{
			O:      float64(1000 + rng.Intn(1000000)),
			AP:     float64(100 + rng.Intn(4000000)),
			VO:     float64(100 + rng.Intn(100000)),
			PPT:    1 + 8*rng.Float64(),
			SPR:    1 + 400*rng.Float64(),
			CS:     float64(8 + rng.Intn(512)),
			Pixels: float64(10000 + rng.Intn(16000000)),
			AvgAP:  float64(100 + rng.Intn(4000000)),
			Tasks:  1 + rng.Intn(64),
		}
	}
	return out
}

// TestRoundTripPredictsExactly is the registry's contract: save, load, and
// predict must match the in-memory ModelSet.Predict bit for bit. JSON
// emits shortest round-trippable decimals and prediction is a dot product
// over the decoded coefficients, so no tolerance is needed or allowed.
func TestRoundTripPredictsExactly(t *testing.T) {
	set, mp, _ := fittedSet(t, 7)
	snap := FromModelSet(set, mp, "test")

	var buf bytes.Buffer
	if err := snap.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	set2, err := loaded.ModelSet()
	if err != nil {
		t.Fatal(err)
	}
	if len(set2.Models) != len(set.Models) {
		t.Fatalf("models: %d vs %d", len(set2.Models), len(set.Models))
	}
	for _, in := range probeInputs(200, 11) {
		for k, m := range set.Models {
			m2, ok := set2.Models[k]
			if !ok {
				t.Fatalf("model %s lost in round trip", k)
			}
			if got, want := m2.Predict(in), m.Predict(in); got != want {
				t.Fatalf("%s: Predict = %v, want exactly %v", k, got, want)
			}
			if got, want := m2.PredictBuild(in), m.PredictBuild(in); got != want {
				t.Fatalf("%s: PredictBuild = %v, want exactly %v", k, got, want)
			}
		}
		if got, want := set2.Compositing.Predict(in), set.Compositing.Predict(in); got != want {
			t.Fatalf("compositing: Predict = %v, want exactly %v", got, want)
		}
	}
	// Diagnostics survive too.
	for i, d := range loaded.Models {
		if d.Fit.R2 != snap.Models[i].Fit.R2 || d.Fit.N != snap.Models[i].Fit.N {
			t.Fatalf("model %d diagnostics changed in round trip", i)
		}
	}
	if got := loaded.CalibratedMapping(); got != mp {
		t.Fatalf("mapping round trip: %+v vs %+v", got, mp)
	}
}

func TestWriteFileReadFile(t *testing.T) {
	set, mp, _ := fittedSet(t, 13)
	snap := FromModelSet(set, mp, "test")
	path := filepath.Join(t.TempDir(), "models.json")
	if err := snap.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Models) != len(snap.Models) || loaded.Source != "test" {
		t.Fatalf("loaded %d models source %q", len(loaded.Models), loaded.Source)
	}
	// Published snapshots are world-readable (other processes consume
	// them), not CreateTemp's private 0600.
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if perm := fi.Mode().Perm(); perm != 0o644 {
		t.Errorf("snapshot file mode %o, want 644", perm)
	}
}

func TestValidateRejectsBadSnapshots(t *testing.T) {
	set, mp, _ := fittedSet(t, 17)
	good := FromModelSet(set, mp, "test")

	wrongVersion := *good
	wrongVersion.Version = 99
	if err := wrongVersion.Validate(); err == nil {
		t.Error("wrong version accepted")
	}

	empty := Snapshot{Version: SnapshotVersion}
	if err := empty.Validate(); err == nil {
		t.Error("empty snapshot accepted")
	}

	badRenderer := *good
	badRenderer.Models = append([]ModelDoc(nil), good.Models...)
	badRenderer.Models[0].Renderer = "mystery"
	if err := badRenderer.Validate(); err == nil {
		t.Error("unknown renderer accepted")
	}

	badArity := *good
	badArity.Models = append([]ModelDoc(nil), good.Models...)
	badArity.Models[0].Fit.Coef = []float64{1}
	if err := badArity.Validate(); err == nil {
		t.Error("wrong coefficient arity accepted")
	}

	dup := *good
	dup.Models = append(append([]ModelDoc(nil), good.Models...), good.Models[0])
	if err := dup.Validate(); err == nil {
		t.Error("duplicate model accepted")
	}
}

func TestRegistryLoadLookupPredict(t *testing.T) {
	set, mp, _ := fittedSet(t, 19)
	reg := New(128)
	if _, err := reg.Predict("cpu", core.RayTrace, core.Inputs{}); err == nil {
		t.Error("empty registry predicted")
	}
	if err := reg.Load(FromModelSet(set, mp, "test")); err != nil {
		t.Fatal(err)
	}
	if g := reg.Generation(); g != 1 {
		t.Errorf("generation = %d", g)
	}
	if _, ok := reg.Lookup("cpu", core.RayTrace); !ok {
		t.Error("lookup missed cpu/raytracer")
	}
	if _, ok := reg.Lookup("gpu", core.RayTrace); ok {
		t.Error("lookup found a model that was never loaded")
	}
	if archs := reg.Archs(); len(archs) != 1 || archs[0] != "cpu" {
		t.Errorf("archs = %v", archs)
	}

	in := core.Inputs{O: 50000, AP: 200000, Pixels: 500000, AvgAP: 180000, Tasks: 4}
	res, err := reg.Predict("cpu", core.RayTrace, in)
	if err != nil {
		t.Fatal(err)
	}
	m := set.Models[core.Key("cpu", core.RayTrace)]
	if res.RenderSeconds != m.Predict(in) {
		t.Errorf("render = %v want %v", res.RenderSeconds, m.Predict(in))
	}
	if res.BuildSeconds != m.PredictBuild(in) {
		t.Errorf("build = %v want %v", res.BuildSeconds, m.PredictBuild(in))
	}
	if res.CompositeSeconds != set.Compositing.Predict(in) {
		t.Errorf("composite = %v want %v", res.CompositeSeconds, set.Compositing.Predict(in))
	}

	// Single-task predictions carry no compositing cost.
	in1 := in
	in1.Tasks = 1
	res1, err := reg.Predict("cpu", core.RayTrace, in1)
	if err != nil {
		t.Fatal(err)
	}
	if res1.CompositeSeconds != 0 {
		t.Errorf("single-task composite = %v", res1.CompositeSeconds)
	}
}

func TestRegistryCacheHitsAndReloadPurge(t *testing.T) {
	set, mp, _ := fittedSet(t, 23)
	reg := New(8)
	snap := FromModelSet(set, mp, "test")
	path := filepath.Join(t.TempDir(), "models.json")
	if err := snap.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if err := reg.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	in := core.Inputs{O: 10000, AP: 90000, Pixels: 250000, AvgAP: 80000, Tasks: 2}
	for i := 0; i < 5; i++ {
		if _, err := reg.Predict("cpu", core.Volume, in); err != nil {
			t.Fatal(err)
		}
	}
	if cs := reg.CacheStats(); cs != (CacheStats{Hits: 4, Misses: 1, Size: 1}) {
		t.Errorf("cache stats: %+v", cs)
	}

	// Hot reload bumps the generation and purges cached predictions.
	if err := reg.Reload(); err != nil {
		t.Fatal(err)
	}
	if g := reg.Generation(); g != 2 {
		t.Errorf("generation after reload = %d", g)
	}
	if size := reg.CacheStats().Size; size != 0 {
		t.Errorf("cache size after reload = %d", size)
	}
	if reg.LastReload().IsZero() {
		t.Error("LastReload not recorded")
	}
}

func TestReloadFailureKeepsServing(t *testing.T) {
	set, mp, _ := fittedSet(t, 29)
	reg := New(8)
	path := filepath.Join(t.TempDir(), "models.json")
	if err := FromModelSet(set, mp, "test").WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if err := reg.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := reg.Reload(); err == nil {
		t.Fatal("corrupt reload succeeded")
	}
	// The previous snapshot still answers.
	if _, err := reg.Predict("cpu", core.Raster, core.Inputs{O: 1000, AP: 5000, VO: 1000, PPT: 4, Tasks: 1}); err != nil {
		t.Errorf("registry stopped serving after failed reload: %v", err)
	}
	if g := reg.Generation(); g != 1 {
		t.Errorf("generation advanced on failed reload: %d", g)
	}

	// Unknown models answer the typed sentinel.
	if _, err := reg.Predict("gpu", core.Raster, core.Inputs{Tasks: 1}); !errors.Is(err, ErrNoModel) {
		t.Errorf("unknown model error = %v, want ErrNoModel", err)
	}

	// An in-memory Load detaches the registry from the file: Reload must
	// refuse rather than silently revert to stale file contents.
	if err := reg.Load(FromModelSet(set, mp, "memory")); err != nil {
		t.Fatal(err)
	}
	if err := reg.Reload(); err == nil {
		t.Error("reload after in-memory Load should error, not revert to the file")
	}
}

func TestRegistryConcurrentPredictAndReload(t *testing.T) {
	set, mp, _ := fittedSet(t, 31)
	reg := New(64)
	path := filepath.Join(t.TempDir(), "models.json")
	if err := FromModelSet(set, mp, "test").WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if err := reg.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	probes := probeInputs(32, 37)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				in := probes[(w*500+i)%len(probes)]
				if _, err := reg.Predict("cpu", core.Volume, in); err != nil {
					t.Errorf("predict: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if err := reg.Reload(); err != nil {
				t.Errorf("reload: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	if g := reg.Generation(); g != 21 {
		t.Errorf("generation = %d, want 21", g)
	}
}

// TestStalePredictionCannotPoisonCacheAcrossReload pins the reload race:
// a prediction computed from a pre-reload view and inserted into the
// cache after the reload's purge must never answer post-reload lookups.
func TestStalePredictionCannotPoisonCacheAcrossReload(t *testing.T) {
	setA, mpA, _ := fittedSet(t, 43)
	setB, mpB, _ := fittedSet(t, 47) // different noise -> different coefficients
	reg := New(64)
	if err := reg.Load(FromModelSet(setA, mpA, "a")); err != nil {
		t.Fatal(err)
	}
	in := core.Inputs{O: 30000, AP: 120000, Pixels: 300000, AvgAP: 110000, Tasks: 2}

	// An in-flight request captured its view before the reload...
	oldView, err := reg.View()
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Load(FromModelSet(setB, mpB, "b")); err != nil {
		t.Fatal(err)
	}
	// ...and completes (cache insert) after it.
	stale, err := oldView.Predict("cpu", core.RayTrace, in)
	if err != nil {
		t.Fatal(err)
	}
	if want := setA.Models[core.Key("cpu", core.RayTrace)].Predict(in); stale.RenderSeconds != want {
		t.Fatalf("old view predicted %v, want old-model %v", stale.RenderSeconds, want)
	}

	// Fresh lookups must see the new model, not the stale insert.
	fresh, err := reg.Predict("cpu", core.RayTrace, in)
	if err != nil {
		t.Fatal(err)
	}
	want := setB.Models[core.Key("cpu", core.RayTrace)].Predict(in)
	if fresh.RenderSeconds != want {
		t.Fatalf("post-reload predict %v, want new-model %v (stale cache entry answered)", fresh.RenderSeconds, want)
	}
	if fresh.RenderSeconds == stale.RenderSeconds {
		t.Fatal("old and new models coincided; test lost its power")
	}
}

func TestLRUEviction(t *testing.T) {
	c := lru.New[predKey, PredictResult](2)
	k := func(i int) predKey { return predKey{key: "m", in: core.Inputs{O: float64(i)}} }
	c.Add(k(1), PredictResult{RenderSeconds: 1})
	c.Add(k(2), PredictResult{RenderSeconds: 2})
	c.Get(k(1)) // touch 1 so 2 is the eviction victim
	c.Add(k(3), PredictResult{RenderSeconds: 3})
	if _, ok := c.Get(k(2)); ok {
		t.Error("least-recently-used entry survived")
	}
	if v, ok := c.Get(k(1)); !ok || v.RenderSeconds != 1 {
		t.Error("recently used entry evicted")
	}
	if c.Len() != 2 {
		t.Errorf("len = %d", c.Len())
	}
	// Disabled cache never stores.
	d := lru.New[predKey, PredictResult](0)
	d.Add(k(1), PredictResult{})
	if _, ok := d.Get(k(1)); ok || d.Len() != 0 {
		t.Error("disabled cache cached")
	}
}

// TestPublishPreservesReloadPath: Publish hot-swaps an in-memory snapshot
// (generation bump, cache purge) like Load, but keeps the remembered file
// path so a later Reload still re-reads the published registry file —
// the contract the continuous-calibration path depends on.
func TestPublishPreservesReloadPath(t *testing.T) {
	set, mp, _ := fittedSet(t, 51)
	dir := t.TempDir()
	path := filepath.Join(dir, "models.json")
	if err := FromModelSet(set, mp, "on-disk").WriteFile(path); err != nil {
		t.Fatal(err)
	}
	reg := New(64)
	if err := reg.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	gen := reg.Generation()

	// Publish a refitted in-memory snapshot.
	refit := FromModelSet(set, mp, "refit")
	if err := reg.Publish(refit); err != nil {
		t.Fatal(err)
	}
	if reg.Generation() != gen+1 {
		t.Errorf("generation %d, want %d", reg.Generation(), gen+1)
	}
	if got := reg.Snapshot().Source; got != "refit" {
		t.Errorf("serving source %q", got)
	}

	// Reload still works and re-reads the file (Load would have severed it).
	if err := reg.Reload(); err != nil {
		t.Fatalf("reload after publish: %v", err)
	}
	if got := reg.Snapshot().Source; got != "on-disk" {
		t.Errorf("source after reload = %q, want on-disk", got)
	}

	// Publish on a never-file-backed registry keeps working too.
	mem := New(64)
	if err := mem.Load(FromModelSet(set, mp, "mem")); err != nil {
		t.Fatal(err)
	}
	if err := mem.Publish(refit); err != nil {
		t.Fatal(err)
	}
	if err := mem.Reload(); err == nil {
		t.Error("reload on a memory-only registry should still fail")
	}
}

// TestPublishIfRejectsStaleGeneration: a conditional publish derived from
// an outdated generation must fail with ErrStale and leave the registry
// untouched, so read-merge-publish updaters cannot clobber a concurrent
// load.
func TestPublishIfRejectsStaleGeneration(t *testing.T) {
	set, mp, _ := fittedSet(t, 53)
	reg := New(16)
	if err := reg.Load(FromModelSet(set, mp, "first")); err != nil {
		t.Fatal(err)
	}
	gen := reg.Generation()
	if err := reg.Load(FromModelSet(set, mp, "second")); err != nil {
		t.Fatal(err)
	}
	err := reg.PublishIf(FromModelSet(set, mp, "stale-refit"), gen)
	if !errors.Is(err, ErrStale) {
		t.Fatalf("err = %v, want ErrStale", err)
	}
	if got := reg.Snapshot().Source; got != "second" {
		t.Errorf("stale publish replaced serving snapshot: %q", got)
	}
	if reg.Generation() != gen+1 {
		t.Errorf("generation moved to %d on a failed publish", reg.Generation())
	}
	// The current generation succeeds.
	if err := reg.PublishIf(FromModelSet(set, mp, "fresh-refit"), gen+1); err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().Source; got != "fresh-refit" {
		t.Errorf("serving %q", got)
	}
}
