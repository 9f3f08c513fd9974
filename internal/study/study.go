// Package study is the experiment harness of §5.4: it generates the
// rendering study plan (architectures x scenario backends x simulations
// x task counts x Latin-hypercube-sampled data/image sizes), runs each
// configuration on a simulated MPI world with per-phase instrumentation,
// and reduces the measurements to model-fitting samples using the paper's
// discipline — render several frames, discard the first, keep the slowest
// task's average.
//
// Each task runs its share of a frame through scenario.Group, the
// sort-last frame protocol the in situ pipeline (internal/strawman) and
// the serving fleet (internal/cluster) run too, so the models are fitted
// on exactly the per-rank work those paths charge them for. A
// rank-local failure is agreed across the world before any task acts on
// it, so it fails the configuration instead of hanging it.
//
// The renderers themselves come from the scenario backend registry: the
// plan samples every registered backend against every simulation whose
// published block it can consume, so a newly registered backend is
// measured, fitted, and published without study changes.
package study

import (
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
	"time"

	"insitu/internal/comm"
	"insitu/internal/composite"
	"insitu/internal/core"
	"insitu/internal/device"
	"insitu/internal/framebuffer"
	"insitu/internal/render"
	"insitu/internal/scenario"
	"insitu/internal/sim"
	"insitu/internal/stats"
)

// Config is one study test configuration.
type Config struct {
	Arch      string
	Renderer  core.Renderer
	Sim       string
	Tasks     int
	ImageSize int // square images
	N         int // grid points per axis per task
	Frames    int // rendered frames; the first is discarded
	Cycles    int // simulation cycles before rendering
}

// Row couples a configuration with its measured sample.
type Row struct {
	Config Config
	Sample core.Sample
}

// Plan generates the study configurations over the scenario axis: every
// registered backend is paired with every simulation whose block shape
// it accepts. short shrinks the plan for quick runs while preserving its
// structure.
func Plan(short bool) []Config {
	archs := []string{"serial", "cpu"}
	taskCounts := []int{1, 2, 4}
	pairs := 5
	nLo, nHi := 12, 36
	imgLo, imgHi := 80, 384
	frames := 4
	if short {
		taskCounts = []int{1, 2}
		pairs = 3
		nLo, nHi = 10, 26
		imgLo, imgHi = 64, 224
		frames = 3
	}
	type combo struct {
		r core.Renderer
		s string
	}
	var combos []combo
	for _, r := range scenario.Names() {
		b, err := scenario.Lookup(r)
		if err != nil {
			continue
		}
		for _, s := range sim.Names() {
			if b.NeedsStructured() && !sim.Structured(s) {
				continue
			}
			combos = append(combos, combo{r, s})
		}
	}
	lhs := stats.LatinHypercube(pairs, 2, 20160101)
	var plan []Config
	for _, arch := range archs {
		for _, cb := range combos {
			for _, tasks := range taskCounts {
				for _, u := range lhs {
					n := lhsScale(u[0], nLo, nHi)
					img := lhsScale(u[1], imgLo, imgHi)
					plan = append(plan, Config{
						Arch: arch, Renderer: cb.r, Sim: cb.s,
						Tasks: tasks, ImageSize: img, N: n,
						Frames: frames, Cycles: 1,
					})
				}
			}
		}
	}
	return plan
}

// lhsScale maps a unit sample u in [0,1) to an integer spanning the
// closed range [lo, hi]: the unit interval is split into hi-lo+1 equal
// cells so every value — both bounds included — is reachable with equal
// probability. The previous lo+int(u*(hi-lo)) form could never produce
// hi, silently truncating the sampled design space.
func lhsScale(u float64, lo, hi int) int {
	if hi <= lo {
		return lo
	}
	v := lo + int(u*float64(hi-lo+1))
	if v > hi {
		v = hi // u is < 1, but guard the exact-boundary float case
	}
	return v
}

// Run executes every configuration sequentially, logging progress to w
// (nil for silent), and returns the measured rows. It is the
// single-worker form of RunContext, kept for callers that want the
// paper's serial measurement discipline.
func Run(plan []Config, w io.Writer) ([]Row, error) {
	opts := Options{Workers: 1}
	if w != nil {
		opts.Progress = LogProgress(w)
	}
	return RunContext(context.Background(), plan, opts)
}

// Samples extracts the model-fitting samples.
func Samples(rows []Row) []core.Sample {
	out := make([]core.Sample, len(rows))
	for i, r := range rows {
		out[i] = r.Sample
	}
	return out
}

// RunConfig measures one configuration on a fresh world.
func RunConfig(cfg Config) (Row, error) {
	if cfg.Frames < 2 {
		cfg.Frames = 2
	}
	if cfg.Cycles < 1 {
		cfg.Cycles = 1
	}
	world := comm.NewWorld(cfg.Tasks)
	samples, err := comm.RunCollect(world, func(c *comm.Comm) (core.Sample, error) {
		return runTask(cfg, c)
	})
	if err != nil {
		return Row{}, err
	}
	return Row{Config: cfg, Sample: samples[0]}, nil
}

// runTask is one task's share of a configuration; all returned samples
// agree because the measurements are reduced across the world. The task
// runs the sort-last frame protocol of scenario.Group — the same one the
// in situ pipeline and the serving fleet run — and the renderer-specific
// work (geometry preparation, frame rendering, model input extraction)
// is entirely the scenario backend's.
func runTask(cfg Config, c *comm.Comm) (core.Sample, error) {
	g := scenario.NewGroup(c)
	// Local, fallible setup: a failure is agreed across the world before
	// any task acts on it.
	var sd *scenario.ShardData
	backend, err := scenario.Lookup(cfg.Renderer)
	if err == nil {
		sd, err = scenario.BuildShard(cfg.Sim, cfg.N, cfg.Tasks, c.Rank(), cfg.Cycles)
	}
	view := g.ReduceView(sd)
	cam := render.OrbitCamera(view.Bounds, 30, 20, 1.0)
	var dev *device.Device
	if err == nil {
		dev, err = device.Profile(cfg.Arch)
	}
	var runner scenario.FrameRunner
	if err == nil {
		// Release the device's persistent worker pool when the measurement
		// is done; the study churns through one device per configuration.
		defer dev.Close()
		runner, err = backend.Prepare(view.Scene(dev, sd, cam, cfg.ImageSize, cfg.ImageSize))
		if err != nil {
			err = fmt.Errorf("preparing %s for sim %q: %w", cfg.Renderer, cfg.Sim, err)
		}
	}
	if err = g.Agree(err); err != nil {
		return core.Sample{}, err
	}

	sample := core.Sample{
		Arch:     cfg.Arch,
		Renderer: cfg.Renderer,
		In:       Inputs0(cfg), // pixels/tasks prefilled
	}
	op := backend.CompositeOp()
	order := g.BlendOrder(op, sd.LocalBounds, cam)

	// One compositor per task, reused across every frame of the
	// configuration so its per-rank encode/decode scratch stays warm.
	compositor := composite.BinarySwap()

	// Warm-up frame: discarded, as in the paper (and doubly necessary
	// under the pooled renderers: the first frame pays the arena
	// allocations that steady-state frames never see), and used to
	// calibrate how many measured frames are needed for a stable mean
	// (fast renders repeat more to beat scheduler noise).
	oneFrame := func() (float64, float64, error) {
		var elapsed time.Duration
		var img *framebuffer.Image
		var err error
		if cfg.Tasks > 1 {
			// Tasks render in turn so each measurement sees dedicated
			// hardware, matching the paper's one-task-per-node setup (this
			// sandbox shares two cores among all simulated tasks).
			for r := 0; r < c.Size(); r++ {
				if c.Rank() == r {
					elapsed, img, err = runner.RenderFrame(&sample.In)
				}
				c.Barrier()
			}
		} else {
			elapsed, img, err = runner.RenderFrame(&sample.In)
		}
		if err = g.Agree(err); err != nil {
			return 0, 0, err
		}
		_, ct, err := g.Composite(compositor, img, op, order)
		if err = g.Agree(err); err != nil {
			return 0, 0, err
		}
		// Rendering is only as fast as the slowest task.
		rt := g.Max(elapsed.Seconds())
		return rt, g.Max(ct), nil
	}
	warm, _, err := oneFrame()
	if err != nil {
		return core.Sample{}, err
	}
	kept := cfg.Frames - 1
	if target := int(math.Ceil(0.1 / math.Max(warm, 1e-4))); target > kept {
		kept = target
	}
	if kept > 16 {
		kept = 16
	}
	var renderSum, compSum float64
	for frame := 0; frame < kept; frame++ {
		rt, ct, err := oneFrame()
		if err != nil {
			return core.Sample{}, err
		}
		renderSum += rt
		compSum += ct
	}
	sample.RenderTime = renderSum / float64(kept)
	sample.CompositeTime = compSum / float64(kept)
	sample.In, sample.BuildTime = g.ReduceInputs(sample.In, runner.BuildSeconds())
	return sample, nil
}

// Inputs0 prefills the configuration-known inputs.
func Inputs0(cfg Config) core.Inputs {
	return core.Inputs{
		Pixels: float64(cfg.ImageSize * cfg.ImageSize),
		Tasks:  cfg.Tasks,
	}
}

// csvHeader is the WriteCSV column layout; ReadCSV validates against it.
var csvHeader = []string{
	"arch", "renderer", "sim", "tasks", "n", "image",
	"objects", "active_pixels", "visible_objects", "ppt", "spr", "cs",
	"avg_ap", "build_s", "render_s", "composite_s",
}

// WriteCSV dumps rows for offline analysis.
func WriteCSV(w io.Writer, rows []Row) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	// Shortest round-trippable encoding: the CSV is an archive that ReadCSV
	// re-fits from, so truncating precision would change refitted
	// coefficients.
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, r := range rows {
		rec := []string{
			r.Config.Arch, string(r.Config.Renderer), r.Config.Sim,
			strconv.Itoa(r.Config.Tasks), strconv.Itoa(r.Config.N), strconv.Itoa(r.Config.ImageSize),
			f(r.Sample.In.O), f(r.Sample.In.AP), f(r.Sample.In.VO), f(r.Sample.In.PPT),
			f(r.Sample.In.SPR), f(r.Sample.In.CS), f(r.Sample.In.AvgAP),
			f(r.Sample.BuildTime), f(r.Sample.RenderTime), f(r.Sample.CompositeTime),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV is the inverse of WriteCSV: it parses archived rows back into
// fitting-ready form so a stored corpus can be re-fitted or replayed
// into a Calibrator without re-measuring. Frames and Cycles are run-time
// knobs not recorded in the CSV and come back zero.
func ReadCSV(r io.Reader) ([]Row, error) {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("study: reading CSV header: %w", err)
	}
	if len(header) != len(csvHeader) {
		return nil, fmt.Errorf("study: CSV has %d columns, want %d", len(header), len(csvHeader))
	}
	for i, col := range csvHeader {
		if header[i] != col {
			return nil, fmt.Errorf("study: CSV column %d is %q, want %q", i, header[i], col)
		}
	}
	var rows []Row
	line := 1
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		line++
		if err != nil {
			return nil, fmt.Errorf("study: CSV line %d: %w", line, err)
		}
		atoi := func(col int) (int, error) {
			v, err := strconv.Atoi(rec[col])
			if err != nil {
				return 0, fmt.Errorf("study: CSV line %d, column %q: %w", line, csvHeader[col], err)
			}
			return v, nil
		}
		atof := func(col int) (float64, error) {
			v, err := strconv.ParseFloat(rec[col], 64)
			if err != nil {
				return 0, fmt.Errorf("study: CSV line %d, column %q: %w", line, csvHeader[col], err)
			}
			return v, nil
		}
		var row Row
		row.Config.Arch = rec[0]
		row.Config.Renderer = core.Renderer(rec[1])
		row.Config.Sim = rec[2]
		if row.Config.Tasks, err = atoi(3); err != nil {
			return nil, err
		}
		if row.Config.N, err = atoi(4); err != nil {
			return nil, err
		}
		if row.Config.ImageSize, err = atoi(5); err != nil {
			return nil, err
		}
		row.Sample.Arch = row.Config.Arch
		row.Sample.Renderer = row.Config.Renderer
		row.Sample.In = Inputs0(row.Config)
		for _, field := range []struct {
			col int
			dst *float64
		}{
			{6, &row.Sample.In.O}, {7, &row.Sample.In.AP},
			{8, &row.Sample.In.VO}, {9, &row.Sample.In.PPT},
			{10, &row.Sample.In.SPR}, {11, &row.Sample.In.CS},
			{12, &row.Sample.In.AvgAP}, {13, &row.Sample.BuildTime},
			{14, &row.Sample.RenderTime}, {15, &row.Sample.CompositeTime},
		} {
			if *field.dst, err = atof(field.col); err != nil {
				return nil, err
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}
