package main

import (
	"maps"
	"slices"
	"time"

	"insitu/internal/advisor"
	"insitu/internal/bvh"
	"insitu/internal/comm"
	"insitu/internal/composite"
	"insitu/internal/conduit"
	"insitu/internal/core"
	"insitu/internal/device"
	"insitu/internal/dpp"
	"insitu/internal/framebuffer"
	"insitu/internal/lru"
	"insitu/internal/mesh"
	"insitu/internal/mesh/synthdata"
	"insitu/internal/obs"
	"insitu/internal/registry"
	"insitu/internal/scenario"
	"insitu/internal/sim"
	"insitu/internal/study"
)

// Fixed-size loops for the layers that do their work off the request
// path (or too briefly to time one call at a time). Every figure is the
// median over reps of a batch, so one descheduled batch does not move it.

// perCall times batch calls of f together, reps times, and returns the
// median time per call.
func perCall(reps, batch int, f func()) time.Duration {
	per := make([]float64, reps)
	for r := range per {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			f()
		}
		per[r] = float64(time.Since(t0)) / float64(batch)
	}
	return time.Duration(median(per))
}

// layerLoops measures the off-path layers against the committed
// registry and returns metric name → value.
func layerLoops(p paths) (map[string]float64, error) {
	out := map[string]float64{}
	var firstErr error
	check := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}

	// registry + advisor: every admission that misses the memo.
	out["registry.load_ms"] = ms(perCall(9, 1, func() { check(registry.New(4096).LoadFile(p.registry)) }))
	reg := registry.New(4096)
	check(reg.LoadFile(p.registry))
	if firstErr != nil {
		return nil, firstErr
	}
	in := reg.Mapping().Map(core.Config{N: 24, Tasks: 1, Width: 256, Height: 256, Renderer: core.RayTrace})
	out["registry.predict_cached_ns"] = ns(perCall(21, 2000, func() {
		_, err := reg.Predict("cpu", core.RayTrace, in)
		check(err)
	}))
	eng := advisor.New(reg)
	out["advisor.predict_ns"] = ns(perCall(21, 2000, func() {
		_, err := eng.Predict(advisor.PredictRequest{Arch: "cpu", Renderer: "raytracer", N: 24, Tasks: 1, Width: 256, Renderings: 100})
		check(err)
	}))
	out["advisor.max_triangles_us"] = us(perCall(21, 20, func() {
		_, err := eng.MaxTriangles(advisor.MaxTrianglesRequest{Arch: "cpu", Renderer: "raytracer", Tasks: 1, ImageSize: 64, PerImageBudgetSeconds: 0.002, Renderings: 100})
		check(err)
	}))

	// lru + obs: what every cache hit pays.
	cache := lru.New[int, int](256)
	for k := 0; k < 256; k++ {
		cache.Add(k, k)
	}
	k := 0
	out["lru.get_ns"] = ns(perCall(21, 20000, func() { cache.Get(k & 255); k += 7 }))
	var hist obs.Histogram
	v := int64(1000)
	out["obs.histogram_observe_ns"] = ns(perCall(21, 20000, func() { hist.Observe(v); v += 37 }))
	tracer := obs.NewTracer(4, 256)
	var lat obs.StageLatency
	epoch := time.Unix(0, 0)
	out["obs.trace_commit_ns"] = ns(perCall(21, 5000, func() {
		var ft obs.FrameTrace
		ft.Seq = tracer.NextSeq()
		ft.Backend = "raytracer"
		ft.CacheHit = true
		ft.Begin(epoch)
		ft.Span(obs.StageAdmit, epoch, 200*time.Nanosecond)
		ft.Finish(epoch.Add(500 * time.Nanosecond))
		tracer.Commit(&ft)
		lat.ObserveTrace(&ft)
	}))

	// Scene preparation pieces: the cold-runner cost.
	dev := device.CPU()
	defer dev.Close()
	out["sim.step_publish_ms"] = ms(perCall(5, 1, func() {
		sm, err := sim.New("kripke", 16, 1, 0)
		check(err)
		if err == nil {
			sm.Step()
			sm.Publish(conduit.NewNode())
		}
	}))
	sm, err := sim.New("kripke", 16, 1, 0)
	if err != nil {
		return nil, err
	}
	sm.Step()
	node := conduit.NewNode()
	sm.Publish(node)
	out["scenario.parse_mesh_ms"] = ms(perCall(5, 1, func() {
		_, err := scenario.ParseMesh(node)
		check(err)
	}))
	ds, err := synthdata.ByName("rm")
	if err != nil {
		return nil, err
	}
	grid := synthdata.Grid(ds.FieldName, ds.Func, 24, 24, 24, synthdata.UnitBounds())
	var surf *mesh.TriangleMesh
	out["mesh.isosurface_ms"] = ms(perCall(9, 1, func() {
		var err error
		surf, err = grid.Isosurface(dev, ds.FieldName, ds.Isovalue, mesh.IsoOptions{})
		check(err)
	}))
	out["mesh.external_faces_ms"] = ms(perCall(9, 1, func() {
		_, err := grid.ExternalFaces(ds.FieldName)
		check(err)
	}))
	if firstErr != nil {
		return nil, firstErr
	}
	out["bvh.build_lbvh_ms"] = ms(perCall(9, 1, func() { bvh.Build(dev, surf, bvh.LBVH) }))
	out["bvh.build_sah_ms"] = ms(perCall(5, 1, func() { bvh.Build(dev, surf, bvh.SAH) }))

	// dpp: the primitives under every kernel.
	out["dpp.for_launch_ns"] = ns(perCall(21, 200, func() { dpp.For(dev, 64, func(lo, hi int) {}) }))
	scanIn, scanOut := make([]int32, 1<<20), make([]int32, 1<<20)
	for i := range scanIn {
		scanIn[i] = int32(i & 3)
	}
	out["dpp.scan_ms"] = ms(perCall(9, 1, func() {
		dpp.ScanExclusive(dev, scanIn, scanOut, 0, func(a, b int32) int32 { return a + b })
	}))
	keys, vals := make([]uint64, 1<<17), make([]int32, 1<<17)
	out["dpp.sort_pairs_ms"] = ms(perCall(9, 1, func() {
		for i := range keys {
			keys[i] = mix(1, 10, i)
			vals[i] = int32(i)
		}
		dpp.SortPairs64(dev, keys, vals)
	}))

	// comm + composite: the sort-last exchange between two ranks.
	world := comm.NewWorld(2)
	out["comm.roundtrip_us"] = us(perCall(9, 1, func() {
		check(world.Run(func(c *comm.Comm) error {
			buf := make([]float32, 64)
			for i := 0; i < 200; i++ {
				if c.Rank() == 0 {
					c.Send(1, i, buf)
					c.Recv(1, i)
				} else {
					c.Send(0, i, c.Recv(0, i))
				}
			}
			return nil
		}))
	}) / 200)
	out["comm.allreduce_us"] = us(perCall(9, 1, func() {
		check(world.Run(func(c *comm.Comm) error {
			for i := 0; i < 200; i++ {
				c.AllReduceSum(float64(c.Rank()))
			}
			return nil
		}))
	}) / 200)
	imgs := make([]*framebuffer.Image, 2)
	for r := range imgs {
		imgs[r] = framebuffer.NewImage(128, 128)
		for px := r; px < 128*128; px += 2 {
			imgs[r].Set(px%128, px/128, 0.5, 0.5, 0.5, 1, float32(r+1))
		}
	}
	for name, k := range map[string]*composite.Compositor{
		"composite.binary_swap_ms": composite.BinarySwap(),
		"composite.direct_send_ms": composite.DirectSend(2),
	} {
		out[name] = ms(perCall(9, 1, func() {
			w := comm.NewWorld(2)
			check(w.Run(func(c *comm.Comm) error {
				_, _, err := k.Composite(c, imgs[c.Rank()], composite.DepthOp, nil)
				return err
			}))
		}))
	}

	// study + core: what calibration feedback runs on orbit_miss.
	var samples []core.Sample
	var runMS []float64
	for _, n := range []int{8, 10, 12} {
		for _, size := range []int{48, 64, 80} {
			t0 := time.Now()
			row, err := study.RunConfig(study.Config{Arch: "cpu", Renderer: core.Raster, Sim: "kripke", Tasks: 1, ImageSize: size, N: n, Frames: 2})
			if err != nil {
				return nil, err
			}
			runMS = append(runMS, ms(time.Since(t0)))
			samples = append(samples, row.Sample)
		}
	}
	out["study.run_config_ms"] = median(runMS)
	out["core.fit_available_ms"] = ms(perCall(9, 1, func() {
		_, _, err := core.FitAvailable(samples)
		check(err)
	}))
	cal := &study.Calibrator{
		RefitEvery: 1 << 30, MaxCorpus: 4096,
		Publish: func(*registry.Snapshot, uint64) error { return nil },
	}
	out["study.calibrator_ingest_us"] = us(perCall(21, 200, func() {
		_, _, _, err := cal.Observe(samples[:1])
		check(err)
	}))
	return out, firstErr
}

// sortedNames returns a map's keys in order, for stable printing.
func sortedNames[V any](m map[string]V) []string {
	return slices.Sorted(maps.Keys(m))
}
