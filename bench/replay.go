package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"time"

	"insitu/internal/advisor"
	"insitu/internal/cluster"
	"insitu/internal/conduit"
	"insitu/internal/core"
	"insitu/internal/device"
	"insitu/internal/framebuffer"
	"insitu/internal/registry"
	"insitu/internal/render"
	"insitu/internal/scenario"
	"insitu/internal/serve"
	"insitu/internal/sim"
	"insitu/internal/study"
	"insitu/internal/vecmath"
)

// maxReplay is how many requests of a workload's stream the in-process
// replay covers, time permitting.
const maxReplay = 300

// stack is renderd's serving stack built in this process from the same
// public constructors cmd/renderd uses, with the Config its flags imply.
type stack struct {
	dir    string
	reg    *registry.Registry
	engine *advisor.Engine
	fleet  *cluster.Cluster
	srv    *serve.Server
}

func newStack(p paths, w *workload) (*stack, error) {
	dir, err := os.MkdirTemp(p.out, "replay-")
	if err != nil {
		return nil, err
	}
	st := &stack{dir: dir}
	ok := false
	defer func() {
		if !ok {
			st.close()
		}
	}()
	models, err := os.ReadFile(p.registry)
	if err != nil {
		return nil, err
	}
	regPath := filepath.Join(dir, "models.json")
	if err := os.WriteFile(regPath, models, 0o644); err != nil {
		return nil, err
	}
	if st.reg, err = serve.OpenRegistry(regPath, false, 4096, nil); err != nil {
		return nil, err
	}
	st.engine = advisor.New(st.reg)
	cfg := serve.Config{Arch: "cpu", Workers: 2, QueueCap: 64, FrameCacheEntries: 256, RunnerCacheEntries: 8}
	if slices.Contains(w.flags, "-calibrate=false") {
		cfg.ObserveQueue = -1
	} else {
		// The calibrator cmd/renderd installs by default.
		reg := st.reg
		st.engine.SetObserver(&study.Calibrator{
			Source: "renderd-frames", RefitEvery: 8, MaxCorpus: 4096,
			Base: func() (*registry.Snapshot, uint64) {
				v, err := reg.View()
				if err != nil {
					return nil, reg.Generation()
				}
				return v.Snapshot(), v.Generation()
			},
			Publish: func(s *registry.Snapshot, baseGen uint64) error {
				if err := reg.PublishIf(s, baseGen); err != nil {
					return err
				}
				return s.WriteFile(regPath)
			},
		})
	}
	if i := slices.Index(w.flags, "-cluster"); i >= 0 {
		n, err := strconv.Atoi(w.flags[i+1])
		if err != nil {
			return nil, err
		}
		if st.fleet, err = cluster.New(st.reg, n); err != nil {
			return nil, err
		}
		cfg.Cluster = st.fleet
	}
	st.srv = serve.New(st.engine, cfg)
	ok = true
	return st, nil
}

// close shuts the server down before the fleet it dispatches to.
func (st *stack) close() {
	if st.srv != nil {
		st.srv.Close()
	}
	if st.fleet != nil {
		st.fleet.Close()
	}
	os.RemoveAll(st.dir)
}

func frameRequest(r *request) serve.FrameRequest {
	return serve.FrameRequest{
		Backend: core.Renderer(r.Backend), Sim: r.Sim, N: r.N, Width: r.Size,
		Azimuth: float64(r.AzMilli) / 1e3, Zoom: float64(r.ZoomMil) / 1e3,
		DeadlineMillis: r.DeadlineMS, Shards: r.Shards,
	}
}

// replayStream is the first n requests of the workload's stream plus,
// for a workload that pre-renders its poses, the ones these n touch.
func replayStream(w *workload, seed uint64, n int) (warm, reqs []request) {
	for i := 0; i < n; i++ {
		reqs = append(reqs, w.gen(seed, i))
	}
	if w.prewarm != nil {
		seen := map[string]bool{}
		for _, r := range reqs {
			if k := r.key(); !seen[k] {
				seen[k] = true
				warm = append(warm, r)
			}
		}
	}
	return warm, reqs
}

// outcome is what one replayed request did, for the metrics.
type outcome struct {
	dur      time.Duration
	hit      bool
	rejected bool
	session  bool
}

// harnessRunner is a prepared scene the harness renders on itself,
// outside the server, to time the layers under a served frame.
type harnessRunner struct {
	scenario.FrameRunner
	bounds vecmath.AABB
	dev    *device.Device
}

// layerSamples are measurements taken by the harness's own layer calls
// during a traced replay, keyed by metric name.
type layerSamples map[string][]float64

func (ls layerSamples) add(name string, v float64) { ls[name] = append(ls[name], v) }

// replayer replays a stream on a stack; with a tracer it also calls the
// layers under each request and records a span per call.
type replayer struct {
	st      *stack
	tr      *tracer // nil = untraced
	layers  layerSamples
	runners map[string]*harnessRunner
	enc     framebuffer.PNGEncoder
	sess    []*serve.Session
}

func (rp *replayer) close() {
	for _, s := range rp.sess {
		s.Close()
	}
	for _, r := range rp.runners {
		r.dev.Close()
	}
}

// warm serves requests in parallel (the server has two workers), to
// fill the frame cache before a hit replay.
func (rp *replayer) warm(reqs []request) error {
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for g := range errs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(reqs); i += len(errs) {
				if _, err := rp.st.srv.Render(frameRequest(&reqs[i])); err != nil {
					errs[g] = err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// replay serves reqs one after another until they are done or the
// budget is spent, and returns what each did.
func (rp *replayer) replay(ctx context.Context, w *workload, reqs []request, budget time.Duration) ([]outcome, error) {
	if w.shape == sessionLoop {
		for s := 0; s < sessionCount; s++ {
			root := rp.tr.begin("request", -1, -1-s)
			sp := rp.tr.begin("serve.OpenSession", root, -1-s)
			t0 := time.Now()
			sess, err := rp.st.srv.OpenSession(frameRequest(&reqs[s]))
			rp.tr.end(sp)
			rp.tr.end(root)
			if err != nil {
				return nil, err
			}
			rp.layers.add("serve.open_session_ms", ms(time.Since(t0)))
			rp.sess = append(rp.sess, sess)
		}
		reqs = reqs[sessionCount:]
	}
	start := time.Now()
	outs := make([]outcome, 0, len(reqs))
	for i := range reqs {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if budget > 0 && time.Since(start) > budget {
			break
		}
		r := &reqs[i]
		root := rp.tr.begin("request", -1, r.Index)
		var (
			res serve.FrameResult
			err error
			out outcome
		)
		t0 := time.Now()
		if r.Session >= 0 {
			sp := rp.tr.begin("serve.Session.Frame", root, r.Index)
			res, err = rp.sess[r.Session].Frame(float64(r.AzMilli)/1e3, float64(r.ZoomMil)/1e3)
			rp.tr.end(sp)
			out.session = true
		} else {
			sp := rp.tr.begin("serve.Render", root, r.Index)
			res, err = rp.st.srv.Render(frameRequest(r))
			rp.tr.end(sp)
		}
		out.dur = time.Since(t0)
		var rej *serve.RejectionError
		switch {
		case errors.As(err, &rej):
			if r.Feasible {
				return nil, fmt.Errorf("replay: request %d refused: %w", r.Index, err)
			}
			out.rejected = true
		case err != nil:
			return nil, fmt.Errorf("replay: request %d: %w", r.Index, err)
		case !r.Feasible:
			return nil, fmt.Errorf("replay: impossible deadline of request %d was admitted", r.Index)
		}
		out.hit = res.CacheHit
		if rp.tr != nil && err == nil {
			if err := rp.layerCalls(ctx, r, &res, out.dur, root); err != nil {
				return nil, err
			}
		}
		rp.tr.end(root)
		outs = append(outs, out)
		if r.Session >= 0 {
			// The think time prefetch renders into.
			time.Sleep(thinkTime)
		}
	}
	return outs, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ns(d time.Duration) float64 { return float64(d) }

// timed runs f inside a child span and returns how long it took.
func (rp *replayer) timed(name string, parent, request int, f func() error) (time.Duration, error) {
	sp := rp.tr.begin(name, parent, request)
	t0 := time.Now()
	err := f()
	d := time.Since(t0)
	rp.tr.end(sp)
	return d, err
}

// layerCalls repeats, layer by layer, the work behind one served frame
// at the quality it was served at: the admission prediction, and for a
// rendered frame the scene preparation (first use of a scene kind), the
// render on a warm runner and the PNG encode; for shard_pair also the
// fleet dispatch and the router-less reference.
func (rp *replayer) layerCalls(ctx context.Context, r *request, res *serve.FrameResult, served time.Duration, root int) error {
	_, err := rp.timed("advisor.Predict", root, r.Index, func() error {
		_, err := rp.st.engine.Predict(advisor.PredictRequest{
			Arch: "cpu", Renderer: r.Backend, N: res.N, Tasks: max(res.Shards, 1),
			Width: res.Width, Height: res.Height, Renderings: 100,
		})
		return err
	})
	if err != nil {
		return err
	}
	if res.CacheHit {
		return nil
	}
	backend := r.Backend
	key := fmt.Sprintf("%s/%s/%d/%dx%d/%d", backend, r.Sim, res.N, res.Width, res.Height, res.RTWorkload)
	hr, ok := rp.runners[key]
	if !ok {
		prep := rp.tr.begin("scenario.prepare", root, r.Index)
		hr, err = rp.prepare(r, res, prep)
		rp.tr.end(prep)
		if err != nil {
			return err
		}
		rp.runners[key] = hr
	}
	hr.SetCamera(render.OrbitCamera(hr.bounds, float64(r.AzMilli)/1e3, 20, float64(r.ZoomMil)/1e3))
	in := core.Inputs{Pixels: float64(res.Width * res.Height), Tasks: 1}
	var img *framebuffer.Image
	renderDur, err := rp.timed("scenario.RenderFrame."+backend, root, r.Index, func() error {
		var err error
		_, img, err = hr.RenderFrame(&in)
		return err
	})
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	encodeDur, err := rp.timed("framebuffer.EncodePNG", root, r.Index, func() error {
		return rp.enc.Encode(&buf, img)
	})
	if err != nil {
		return err
	}
	rp.layers.add("scenario.render_frame_ms."+backend, ms(renderDur))
	rp.layers.add("render.objects."+backend, in.O)
	rp.layers.add("render.active_pixels."+backend, in.AP)
	if in.SPR > 0 {
		rp.layers.add("render.samples_per_ray."+backend, in.SPR)
	}
	rp.layers.add("framebuffer.encode_png_ms", ms(encodeDur))
	rp.layers.add("framebuffer.png_bytes", float64(buf.Len()))
	if res.Shards == 1 {
		// What the serving layer itself costs on a miss: admission,
		// scheduling, lease, cache store, tracing.
		rp.layers.add("serve.self_ms", ms(served-renderDur-encodeDur))
	}
	if rp.st.fleet == nil {
		return nil
	}
	job := cluster.Job{
		Backend: backend, Sim: r.Sim, Arch: "cpu", N: res.N, Width: res.Width, Height: res.Height,
		Shards: res.Shards, RTWorkload: res.RTWorkload,
		Azimuth: float64(r.AzMilli) / 1e3, Zoom: float64(r.ZoomMil) / 1e3,
	}
	var before, after runtime.MemStats
	bytes0 := rp.st.fleet.Stats().BytesSent
	runtime.ReadMemStats(&before)
	fleetDur, err := rp.timed("cluster.Render", root, r.Index, func() error {
		_, err := rp.st.fleet.Render(ctx, job)
		return err
	})
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&after)
	rp.layers.add(fmt.Sprintf("cluster.render_shards%d_ms", res.Shards), ms(fleetDur))
	if res.Shards > 1 {
		rp.layers.add("cluster.wire_bytes_per_frame", float64(rp.st.fleet.Stats().BytesSent-bytes0))
		rp.layers.add("cluster.allocs_per_frame", float64(after.Mallocs-before.Mallocs))
		aloneDur, err := rp.timed("cluster.RenderStandalone", root, r.Index, func() error {
			_, err := cluster.RenderStandalone(job)
			return err
		})
		if err != nil {
			return err
		}
		rp.layers.add("cluster.standalone_shards2_ms", ms(aloneDur))
	}
	return nil
}

// prepare builds a scene the way serve does — step the proxy one cycle,
// publish, parse, hand the scene to the backend — with a span per layer.
func (rp *replayer) prepare(r *request, res *serve.FrameResult, parent int) (*harnessRunner, error) {
	backend, err := scenario.Lookup(core.Renderer(r.Backend))
	if err != nil {
		return nil, err
	}
	dev, err := device.Profile("cpu")
	if err != nil {
		return nil, err
	}
	node := conduit.NewNode()
	var sm sim.Simulation
	_, err = rp.timed("sim.StepPublish", parent, r.Index, func() error {
		var err error
		if sm, err = sim.New(r.Sim, res.N, 1, 0); err != nil {
			return err
		}
		sm.Step()
		sm.Publish(node)
		return nil
	})
	if err != nil {
		dev.Close()
		return nil, err
	}
	var pm *scenario.ParsedMesh
	_, err = rp.timed("scenario.ParseMesh", parent, r.Index, func() error {
		var err error
		pm, err = scenario.ParseMesh(node)
		return err
	})
	if err != nil {
		dev.Close()
		return nil, err
	}
	vals, err := pm.FieldValues(sm.PrimaryField())
	if err != nil {
		dev.Close()
		return nil, err
	}
	bounds := pm.LocalBounds()
	cam := render.OrbitCamera(bounds, float64(r.AzMilli)/1e3, 20, float64(r.ZoomMil)/1e3)
	sc := scenario.NewScene(dev, pm, sm.PrimaryField(), vals, cam, res.Width, res.Height)
	sc.RTWorkload = res.RTWorkload
	var runner scenario.FrameRunner
	d, err := rp.timed("scenario.Prepare."+r.Backend, parent, r.Index, func() error {
		var err error
		runner, err = backend.Prepare(sc)
		return err
	})
	if err != nil {
		dev.Close()
		return nil, err
	}
	rp.layers.add("scenario.prepare_ms."+r.Backend, ms(d))
	return &harnessRunner{FrameRunner: runner, bounds: bounds, dev: dev}, nil
}
