package cluster

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"insitu/internal/comm"
	"insitu/internal/core"
	"insitu/internal/device"
	"insitu/internal/registry"
)

// testSnapshot covers all four backends on the serial profile plus the
// compositing model, with synthetic positive coefficients: the cluster
// path is gated on transport and rendering correctness, not fit quality.
func testSnapshot() *registry.Snapshot {
	fit := func(coef ...float64) registry.FitDoc {
		return registry.FitDoc{Coef: coef, R2: 0.99, N: 16, P: len(coef)}
	}
	build := fit(1e-8, 1e-5)
	return &registry.Snapshot{
		Version: registry.SnapshotVersion, Source: "cluster-test", CreatedUnix: 1,
		Mapping: registry.MappingDoc{FillFraction: 0.55, SPRBase: 373},
		Models: []registry.ModelDoc{
			{Arch: "serial", Renderer: string(core.RayTrace), Fit: fit(1e-7, 5e-8, 1e-4), BuildFit: &build},
			{Arch: "serial", Renderer: string(core.Raster), Fit: fit(1e-9, 1e-8, 1e-4)},
			{Arch: "serial", Renderer: string(core.Volume), Fit: fit(1e-8, 1e-9, 1e-4)},
			{Arch: "serial", Renderer: string(core.VolumeUnstructured), Fit: fit(1e-9, 1e-9, 1e-4)},
		},
		Compositing: &registry.ModelDoc{
			Arch: "all", Renderer: string(core.Compositing), Fit: fit(1e-9, 1e-9, 1e-4),
		},
	}
}

func testRegistry(t testing.TB) *registry.Registry {
	t.Helper()
	reg := registry.New(0)
	if err := reg.Load(testSnapshot()); err != nil {
		t.Fatal(err)
	}
	return reg
}

func testCluster(t testing.TB, workers int) *Cluster {
	t.Helper()
	cl, err := NewWithOptions(workers, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return cl
}

// TestClusterMatchesStandalone is the core correctness claim: for every
// backend, a frame sharded across the fleet is byte-identical to the
// same shard group rendered standalone in one collective run — the
// router, placement, caching, and wire transport add nothing and lose
// nothing.
func TestClusterMatchesStandalone(t *testing.T) {
	cl := testCluster(t, 4)
	cases := []struct {
		backend string
		sim     string
	}{
		{string(core.RayTrace), "kripke"},
		{string(core.Raster), "lulesh"},
		{string(core.Volume), "kripke"}, // structured-only
		{string(core.VolumeUnstructured), "lulesh"},
	}
	for _, tc := range cases {
		t.Run(tc.backend, func(t *testing.T) {
			job := Job{
				Backend: tc.backend, Sim: tc.sim, Arch: "serial",
				N: 8, Width: 48, Height: 48, Shards: 3, Azimuth: 30, Zoom: 1,
			}
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			got, err := cl.Render(ctx, job)
			if err != nil {
				t.Fatal(err)
			}
			want, err := RenderStandalone(job)
			if err != nil {
				t.Fatal(err)
			}
			if got.Image.W != 48 || got.Image.H != 48 {
				t.Fatalf("cluster frame is %dx%d", got.Image.W, got.Image.H)
			}
			if len(got.Image.Color) != len(want.Image.Color) {
				t.Fatalf("color plane sizes differ: %d vs %d", len(got.Image.Color), len(want.Image.Color))
			}
			for i := range got.Image.Color {
				if got.Image.Color[i] != want.Image.Color[i] {
					t.Fatalf("color word %d differs: %v vs %v", i, got.Image.Color[i], want.Image.Color[i])
				}
			}
			if got.In.Tasks != 3 {
				t.Errorf("result inputs carry Tasks=%d, want 3", got.In.Tasks)
			}
			if len(got.RankRenderSeconds) != 3 {
				t.Errorf("per-rank render times: %v", got.RankRenderSeconds)
			}
			if got.RenderSeconds <= 0 || got.CompositeSeconds < 0 {
				t.Errorf("timings: render %v composite %v", got.RenderSeconds, got.CompositeSeconds)
			}
		})
	}
	// The fleet counts every frame it dispatched (retries dispatch
	// again) and the bytes its transport carried.
	if st := cl.Stats(); st.FramesDispatched < int64(len(cases)) || st.BytesSent <= 0 {
		t.Errorf("fleet stats: %d frames dispatched, %d bytes sent; want >= %d frames and some bytes",
			st.FramesDispatched, st.BytesSent, len(cases))
	}
}

// TestClusterFrameIsCacheStable: repeated renders of the same job (now
// served from hot scene and runner caches) stay byte-identical, so the
// serving layer's frame cache can treat cluster frames as deterministic.
func TestClusterFrameIsCacheStable(t *testing.T) {
	cl := testCluster(t, 3)
	job := Job{
		Backend: string(core.Volume), Sim: "cloverleaf", Arch: "serial",
		N: 8, Width: 40, Height: 40, Shards: 2, Azimuth: 45, Zoom: 1,
	}
	ctx := context.Background()
	first, err := cl.Render(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
	second, err := cl.Render(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
	for i := range first.Image.Color {
		if first.Image.Color[i] != second.Image.Color[i] {
			t.Fatalf("warm-cache frame differs at color word %d", i)
		}
	}
}

// TestClusterErrorPropagates: a frame that fails on every rank — in the
// scene setup before the view reduction, or in preparing the backend
// after it — reports the combined error, labelled by shard, to the
// caller, and the fleet survives to serve the next frame.
func TestClusterErrorPropagates(t *testing.T) {
	cl := testCluster(t, 3)
	good := Job{
		Backend: string(core.VolumeUnstructured), Sim: "lulesh", Arch: "serial",
		N: 8, Width: 32, Height: 32, Shards: 2, Zoom: 1,
	}
	for _, c := range []struct {
		name string
		edit func(*Job)
	}{
		{"unknown sim", func(j *Job) { j.Sim = "nosuchsim" }},
		// The structured-only volume backend cannot eat lulesh's
		// unstructured mesh.
		{"backend/sim mismatch", func(j *Job) { j.Backend = string(core.Volume) }},
	} {
		bad := good
		c.edit(&bad)
		_, err := cl.Render(context.Background(), bad)
		if err == nil {
			t.Fatalf("%s: served a frame", c.name)
		}
		if !strings.Contains(err.Error(), "shard") {
			t.Errorf("%s: error does not identify the failing shards: %v", c.name, err)
		}
		if _, err := cl.Render(context.Background(), good); err != nil {
			t.Fatalf("%s: fleet wedged after failed frame: %v", c.name, err)
		}
	}
}

// TestConcurrentShardedRenders hammers one router from many goroutines
// with overlapping worker sets — the race test for dispatch
// serialization, demux routing, and per-worker cache confinement.
func TestConcurrentShardedRenders(t *testing.T) {
	cl := testCluster(t, 4)
	jobs := []Job{
		{Backend: string(core.RayTrace), Sim: "kripke", Arch: "serial", N: 8, Width: 40, Height: 40, Shards: 3, Zoom: 1},
		{Backend: string(core.Volume), Sim: "kripke", Arch: "serial", N: 8, Width: 40, Height: 40, Shards: 2, Zoom: 1},
		{Backend: string(core.Raster), Sim: "lulesh", Arch: "serial", N: 8, Width: 40, Height: 40, Shards: 4, Zoom: 1},
		{Backend: string(core.RayTrace), Sim: "cloverleaf", Arch: "serial", N: 8, Width: 40, Height: 40, Shards: 1, Zoom: 1},
	}
	reference := make([]*Result, len(jobs))
	for i, job := range jobs {
		ref, err := cl.Render(context.Background(), job)
		if err != nil {
			t.Fatal(err)
		}
		reference[i] = ref
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for round := 0; round < 4; round++ {
		for i, job := range jobs {
			wg.Add(1)
			go func(i int, job Job) {
				defer wg.Done()
				res, err := cl.Render(context.Background(), job)
				if err != nil {
					errs <- err
					return
				}
				for w := range res.Image.Color {
					if res.Image.Color[w] != reference[i].Image.Color[w] {
						errs <- &mismatchError{job: job, word: w}
						return
					}
				}
			}(i, job)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

type mismatchError struct {
	job  Job
	word int
}

func (e *mismatchError) Error() string {
	return "concurrent render of " + e.job.Backend + "/" + e.job.Sim + " diverged from reference"
}

// TestRenderTimeoutAndRecovery: a caller that gives up mid-frame gets the
// context error; the late result is dropped and the fleet serves the next
// request normally.
func TestRenderTimeoutAndRecovery(t *testing.T) {
	cl := testCluster(t, 2)
	job := Job{
		Backend: string(core.RayTrace), Sim: "kripke", Arch: "serial",
		N: 8, Width: 32, Height: 32, Shards: 2, Zoom: 1,
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := cl.Render(ctx, job); err == nil {
		t.Fatal("cancelled render returned a frame")
	}
	res, err := cl.Render(context.Background(), job)
	if err != nil {
		t.Fatalf("fleet wedged after abandoned render: %v", err)
	}
	if res.Image == nil {
		t.Fatal("no image")
	}
}

// TestRankDevicesClosed: every device a rank opened to render is closed
// by shardState.Close, and RenderStandalone closes every device its
// ranks opened before it returns.
func TestRankDevicesClosed(t *testing.T) {
	job := Job{Backend: string(core.RayTrace), Sim: "kripke", Arch: "cpu", N: 8, Width: 48, Height: 48, Shards: 2, Azimuth: 30, Zoom: 1}
	deviceOf := func(st *shardState) *device.Device {
		dev, err := st.arenas.Device(job.Arch)
		if err != nil {
			t.Fatal(err)
		}
		return dev
	}

	st := newShardState(1, 1)
	wj := wireJob{Job: job, Members: []int{0}}
	wj.Shards = 1
	if err := comm.NewWorld(1).Run(func(c *comm.Comm) error {
		if res, img := st.render(c, &wj); res == nil || res.Err != "" || img == nil {
			return fmt.Errorf("rank render: %+v", res)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	dev := deviceOf(st)
	if dev.Closed() {
		t.Fatal("the rank's device is closed while its state is live")
	}
	st.Close()
	if !dev.Closed() {
		t.Error("shardState.Close left the rank's device open")
	}

	states := []*shardState{newShardState(1, 1), newShardState(1, 1)}
	if _, err := renderStandalone(job, states); err != nil {
		t.Fatal(err)
	}
	for i, st := range states {
		if !deviceOf(st).Closed() {
			t.Errorf("rank %d's device still open after the standalone render", i)
		}
	}
}
