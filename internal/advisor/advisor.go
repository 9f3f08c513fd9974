// Package advisor is the online prediction engine over a model registry.
// It answers the paper's viability questions as a service: given a
// user-facing rendering configuration (data size, task count, image
// resolution, technique), it maps the configuration to model inputs
// (§5.8), evaluates the registered per-architecture models, and returns
// per-image cost, images-per-budget curves, and inverse queries such as
// the largest triangle count that still fits a frame budget. Requests can
// be answered singly or in batches, and every operation is instrumented
// with per-request counters and latency so a serving process can report
// its own health.
package advisor

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"time"

	"insitu/internal/core"
	"insitu/internal/registry"
)

// Op names one engine operation for metrics.
type Op string

const (
	OpPredict      Op = "predict"
	OpFeasibility  Op = "feasibility"
	OpMaxTriangles Op = "max_triangles"
	OpObserve      Op = "observe"
)

var ops = []Op{OpPredict, OpFeasibility, OpMaxTriangles, OpObserve}

// checkRenderer validates a request's renderer name against core's
// model spec table: unknown names and the compositing pseudo-renderer
// (fitted across architectures, never served per-arch) are rejected
// with the registered alternatives named, so a typo answers a clear 400
// instead of a misleading "no model" 404.
func checkRenderer(name string) error {
	r := core.Renderer(name)
	if _, ok := core.LookupRenderer(r); !ok || r == core.Compositing {
		return fmt.Errorf("advisor: unknown renderer %q (registered: %v)",
			name, core.ModeledRenderers())
	}
	return nil
}

// cleanFloat zeroes non-finite values and raises the response's flag.
// Degenerate fits can predict NaN, and inverse queries can divide by a
// non-positive prediction into ±Inf; encoding/json rejects both, which
// would turn an otherwise well-formed answer into an opaque serialization
// failure at the API boundary. Flagged zeros keep the response honest and
// encodable.
func cleanFloat(v float64, flagged *bool) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		*flagged = true
		return 0
	}
	return v
}

// opMetrics accumulates one operation's counters with atomics so the hot
// path never takes a lock.
type opMetrics struct {
	count    atomic.Uint64
	errors   atomic.Uint64
	nanos    atomic.Uint64
	maxNanos atomic.Uint64
}

func (m *opMetrics) observe(start time.Time, err error) {
	d := uint64(time.Since(start).Nanoseconds())
	m.count.Add(1)
	m.nanos.Add(d)
	for {
		cur := m.maxNanos.Load()
		if d <= cur || m.maxNanos.CompareAndSwap(cur, d) {
			break
		}
	}
	if err != nil {
		m.errors.Add(1)
	}
}

// OpStats is one operation's metrics snapshot.
type OpStats struct {
	Op        Op      `json:"op"`
	Count     uint64  `json:"count"`
	Errors    uint64  `json:"errors"`
	AvgMicros float64 `json:"avg_micros"`
	MaxMicros float64 `json:"max_micros"`
}

// Observer ingests measured samples and may publish a refitted model
// snapshot into the serving path (study.Calibrator is the canonical
// implementation). It reports the accumulated corpus size, whether a new
// generation was published, and — when not — a human-readable reason.
type Observer interface {
	Observe(samples []core.Sample) (corpus int, published bool, reason string, err error)
}

// Engine answers prediction and feasibility queries over a registry.
type Engine struct {
	reg      *registry.Registry
	metrics  map[Op]*opMetrics
	observer Observer
}

// New returns an engine over the registry.
func New(reg *registry.Registry) *Engine {
	e := &Engine{reg: reg, metrics: map[Op]*opMetrics{}}
	for _, op := range ops {
		e.metrics[op] = &opMetrics{}
	}
	return e
}

// Registry exposes the engine's backing registry.
func (e *Engine) Registry() *registry.Registry { return e.reg }

// SetObserver enables observation ingestion through the given observer.
// Call before serving; it is not synchronized against in-flight requests.
func (e *Engine) SetObserver(o Observer) { e.observer = o }

// HasObserver reports whether observation ingestion is enabled.
func (e *Engine) HasObserver() bool { return e.observer != nil }

// Metrics snapshots every operation's counters in a stable order.
func (e *Engine) Metrics() []OpStats {
	out := make([]OpStats, 0, len(ops))
	for _, op := range ops {
		m := e.metrics[op]
		s := OpStats{Op: op, Count: m.count.Load(), Errors: m.errors.Load()}
		if s.Count > 0 {
			s.AvgMicros = float64(m.nanos.Load()) / float64(s.Count) / 1e3
		}
		s.MaxMicros = float64(m.maxNanos.Load()) / 1e3
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Op < out[j].Op })
	return out
}

// PredictRequest is one user-facing configuration to cost out.
type PredictRequest struct {
	Arch     string `json:"arch"`
	Renderer string `json:"renderer"`
	// N is the per-task data size (an N^3 block), as in core.Config.
	N     int `json:"n"`
	Tasks int `json:"tasks"`
	Width int `json:"width"`
	// Height defaults to Width when 0 (square images).
	Height int `json:"height,omitempty"`
	// Renderings amortizes the one-time acceleration-structure build over
	// this many images (default 1, the paper's 100-image scenario uses 100).
	Renderings int `json:"renderings,omitempty"`
}

func (r *PredictRequest) normalize() error {
	if r.Arch == "" {
		return fmt.Errorf("advisor: missing arch")
	}
	if r.Renderer == "" {
		return fmt.Errorf("advisor: missing renderer")
	}
	if err := checkRenderer(r.Renderer); err != nil {
		return err
	}
	if r.N <= 0 {
		return fmt.Errorf("advisor: n must be positive, got %d", r.N)
	}
	if r.Width <= 0 {
		return fmt.Errorf("advisor: width must be positive, got %d", r.Width)
	}
	if r.Height <= 0 {
		r.Height = r.Width
	}
	if r.Tasks <= 0 {
		r.Tasks = 1
	}
	if r.Renderings <= 0 {
		r.Renderings = 1
	}
	return nil
}

// config converts the request to the core configuration.
func (r *PredictRequest) config() core.Config {
	return core.Config{
		N: r.N, Tasks: r.Tasks, Width: r.Width, Height: r.Height,
		Renderer: core.Renderer(r.Renderer),
	}
}

// PredictResponse is the costed configuration.
type PredictResponse struct {
	Arch     string      `json:"arch"`
	Renderer string      `json:"renderer"`
	Inputs   core.Inputs `json:"inputs"`
	// RenderSeconds is the slowest task's local render time per image.
	RenderSeconds float64 `json:"render_seconds"`
	// BuildSeconds is the one-time acceleration-structure cost (0 when the
	// technique has none).
	BuildSeconds float64 `json:"build_seconds"`
	// CompositeSeconds is the per-image parallel compositing cost.
	CompositeSeconds float64 `json:"composite_seconds"`
	// PerImageSeconds = render + composite + build/renderings.
	PerImageSeconds float64 `json:"per_image_seconds"`
	// ImagesPerSecond is the reciprocal throughput (0 when the prediction
	// is non-positive).
	ImagesPerSecond float64 `json:"images_per_second"`
	// NonFinite reports that one or more predicted values were NaN or
	// infinite (a degenerate fit) and have been zeroed so the response
	// stays JSON-encodable. Treat the numbers as unreliable.
	NonFinite bool `json:"non_finite,omitempty"`
}

// Predict costs one configuration.
func (e *Engine) Predict(req PredictRequest) (PredictResponse, error) {
	start := time.Now()
	resp, err := e.predict(req)
	e.metrics[OpPredict].observe(start, err)
	return resp, err
}

func (e *Engine) predict(req PredictRequest) (PredictResponse, error) {
	if err := req.normalize(); err != nil {
		return PredictResponse{}, err
	}
	// One registry view per request: mapping and models from the same
	// generation, even if a hot reload lands mid-request.
	v, err := e.reg.View()
	if err != nil {
		return PredictResponse{}, err
	}
	in := v.Mapping().Map(req.config())
	res, err := v.Predict(req.Arch, core.Renderer(req.Renderer), in)
	if err != nil {
		return PredictResponse{}, err
	}
	resp := PredictResponse{Arch: req.Arch, Renderer: req.Renderer, Inputs: in}
	resp.RenderSeconds = cleanFloat(res.RenderSeconds, &resp.NonFinite)
	resp.BuildSeconds = cleanFloat(res.BuildSeconds, &resp.NonFinite)
	resp.CompositeSeconds = cleanFloat(res.CompositeSeconds, &resp.NonFinite)
	resp.PerImageSeconds = cleanFloat(res.RenderSeconds+res.CompositeSeconds+
		res.BuildSeconds/float64(req.Renderings), &resp.NonFinite)
	if resp.PerImageSeconds > 0 {
		// A subnormal per-image time overflows the reciprocal to +Inf, so
		// this derived value needs cleaning too.
		resp.ImagesPerSecond = cleanFloat(1/resp.PerImageSeconds, &resp.NonFinite)
	}
	return resp, nil
}

// BatchItem pairs one batch element's response with its error, keeping
// positions aligned with the request slice so one bad element does not
// fail the batch.
type BatchItem struct {
	Response *PredictResponse `json:"response,omitempty"`
	Error    string           `json:"error,omitempty"`
}

// PredictBatch costs every configuration, one BatchItem per request.
func (e *Engine) PredictBatch(reqs []PredictRequest) []BatchItem {
	out := make([]BatchItem, len(reqs))
	for i, req := range reqs {
		resp, err := e.Predict(req)
		if err != nil {
			out[i].Error = err.Error()
			continue
		}
		r := resp
		out[i].Response = &r
	}
	return out
}

// FeasibilityRequest asks the paper's question: can I render Images images
// of each candidate size within BudgetSeconds?
type FeasibilityRequest struct {
	Arch     string `json:"arch"`
	Renderer string `json:"renderer"`
	N        int    `json:"n"`
	Tasks    int    `json:"tasks"`
	// BudgetSeconds is the total rendering budget; the one-time build is
	// charged against it before images are counted (image-database use).
	BudgetSeconds float64 `json:"budget_seconds"`
	// Sizes are the candidate square image sizes.
	Sizes []int `json:"sizes"`
	// Images, when positive, is the desired image count; each point then
	// reports whether it fits.
	Images float64 `json:"images,omitempty"`
}

// FeasibilityPoint is one image size's answer.
type FeasibilityPoint struct {
	ImageSize       int     `json:"image_size"`
	Images          float64 `json:"images"`
	PerImageSeconds float64 `json:"per_image_seconds"`
	// Feasible reports whether the requested image count fits (only
	// populated when the request named one).
	Feasible *bool `json:"feasible,omitempty"`
	// NonFinite flags zeroed NaN/Inf predictions at this point.
	NonFinite bool `json:"non_finite,omitempty"`
}

// FeasibilityResponse is the images-per-budget curve.
type FeasibilityResponse struct {
	Arch            string             `json:"arch"`
	Renderer        string             `json:"renderer"`
	BudgetSeconds   float64            `json:"budget_seconds"`
	RequestedImages float64            `json:"requested_images,omitempty"`
	Points          []FeasibilityPoint `json:"points"`
}

// Feasibility evaluates the images-per-budget curve through the registry's
// predictions. The arithmetic matches core.ModelSet.ImagesInBudget:
// the build is paid once out of the budget, compositing is added for
// multi-task configurations, and non-positive budgets or predictions yield
// zero images.
func (e *Engine) Feasibility(req FeasibilityRequest) (FeasibilityResponse, error) {
	start := time.Now()
	resp, err := e.feasibility(req)
	e.metrics[OpFeasibility].observe(start, err)
	return resp, err
}

func (e *Engine) feasibility(req FeasibilityRequest) (FeasibilityResponse, error) {
	if req.Arch == "" || req.Renderer == "" {
		return FeasibilityResponse{}, fmt.Errorf("advisor: missing arch or renderer")
	}
	if err := checkRenderer(req.Renderer); err != nil {
		return FeasibilityResponse{}, err
	}
	if req.N <= 0 {
		return FeasibilityResponse{}, fmt.Errorf("advisor: n must be positive, got %d", req.N)
	}
	if req.Tasks <= 0 {
		req.Tasks = 1
	}
	resp := FeasibilityResponse{
		Arch: req.Arch, Renderer: req.Renderer,
		BudgetSeconds: req.BudgetSeconds, RequestedImages: req.Images,
		Points: make([]FeasibilityPoint, 0, len(req.Sizes)),
	}
	// The whole curve is answered from one registry view so every point
	// reflects the same model generation.
	v, err := e.reg.View()
	if err != nil {
		return FeasibilityResponse{}, err
	}
	mp := v.Mapping()
	for _, size := range req.Sizes {
		if size <= 0 {
			return FeasibilityResponse{}, fmt.Errorf("advisor: image size must be positive, got %d", size)
		}
		in := mp.Map(core.Config{
			N: req.N, Tasks: req.Tasks, Width: size, Height: size,
			Renderer: core.Renderer(req.Renderer),
		})
		res, err := v.Predict(req.Arch, core.Renderer(req.Renderer), in)
		if err != nil {
			return FeasibilityResponse{}, err
		}
		pt := FeasibilityPoint{ImageSize: size}
		per := cleanFloat(res.RenderSeconds+res.CompositeSeconds, &pt.NonFinite)
		budget := cleanFloat(req.BudgetSeconds-res.BuildSeconds, &pt.NonFinite)
		images := 0.0
		if per > 0 && budget > 0 {
			images = budget / per
		}
		pt.Images = cleanFloat(images, &pt.NonFinite)
		pt.PerImageSeconds = per
		if req.Images > 0 {
			ok := images >= req.Images
			pt.Feasible = &ok
		}
		resp.Points = append(resp.Points, pt)
	}
	return resp, nil
}

// MaxTrianglesRequest inverts a surface model: the largest geometry that
// still renders within a per-image budget.
type MaxTrianglesRequest struct {
	Arch     string `json:"arch"`
	Renderer string `json:"renderer"` // raytracer or rasterizer
	Tasks    int    `json:"tasks"`
	// ImageSize is the square image resolution.
	ImageSize int `json:"image_size"`
	// PerImageBudgetSeconds bounds the per-image cost (render + composite
	// + build/renderings).
	PerImageBudgetSeconds float64 `json:"per_image_budget_seconds"`
	// Renderings amortizes the build (default 1).
	Renderings int `json:"renderings,omitempty"`
}

// MaxTrianglesResponse reports the largest feasible geometry.
type MaxTrianglesResponse struct {
	Arch     string `json:"arch"`
	Renderer string `json:"renderer"`
	// N is the largest per-task data size whose surface fits the budget
	// (0 when even N=1 exceeds it).
	N int `json:"n"`
	// Triangles is the per-task surface triangle count 12*N^2.
	Triangles float64 `json:"triangles"`
	// TotalTriangles sums over tasks.
	TotalTriangles float64 `json:"total_triangles"`
	// PerImageSeconds is the predicted cost at N.
	PerImageSeconds float64 `json:"per_image_seconds"`
	// NonFinite flags zeroed NaN/Inf predictions (degenerate fit).
	NonFinite bool `json:"non_finite,omitempty"`
}

// maxTrianglesCeiling bounds the inversion search; 12*N^2 at the ceiling
// is ~3e9 triangles per task, far beyond the fitted range.
const maxTrianglesCeiling = 1 << 14

// MaxTriangles binary-searches the largest per-task N whose surface render
// fits the per-image budget. All model coefficients enter positively in
// the mapped inputs, so predicted time is monotone in N and bisection is
// sound.
func (e *Engine) MaxTriangles(req MaxTrianglesRequest) (MaxTrianglesResponse, error) {
	start := time.Now()
	resp, err := e.maxTriangles(req)
	e.metrics[OpMaxTriangles].observe(start, err)
	return resp, err
}

func (e *Engine) maxTriangles(req MaxTrianglesRequest) (MaxTrianglesResponse, error) {
	r := core.Renderer(req.Renderer)
	spec, ok := core.LookupRenderer(r)
	if !ok || !spec.Surface {
		return MaxTrianglesResponse{}, fmt.Errorf("advisor: max_triangles needs a registered surface renderer, got %q", req.Renderer)
	}
	if req.ImageSize <= 0 {
		return MaxTrianglesResponse{}, fmt.Errorf("advisor: image size must be positive, got %d", req.ImageSize)
	}
	if req.Tasks <= 0 {
		req.Tasks = 1
	}
	if req.Renderings <= 0 {
		req.Renderings = 1
	}
	// The bisection must evaluate every probe against one model
	// generation, or a mid-search reload breaks monotonicity.
	v, err := e.reg.View()
	if err != nil {
		return MaxTrianglesResponse{}, err
	}
	cost := func(n int) (float64, error) {
		in := v.Mapping().Map(core.Config{
			N: n, Tasks: req.Tasks, Width: req.ImageSize, Height: req.ImageSize, Renderer: r,
		})
		res, err := v.Predict(req.Arch, r, in)
		if err != nil {
			return 0, err
		}
		return res.RenderSeconds + res.CompositeSeconds + res.BuildSeconds/float64(req.Renderings), nil
	}
	resp := MaxTrianglesResponse{Arch: req.Arch, Renderer: req.Renderer}
	// Establish feasibility at the floor before bisecting.
	c1, err := cost(1)
	if err != nil {
		return MaxTrianglesResponse{}, err
	}
	if math.IsNaN(c1) || c1 > req.PerImageBudgetSeconds {
		return resp, nil
	}
	lo, hi := 1, maxTrianglesCeiling // invariant: cost(lo) fits, cost(hi+1) unknown/over
	for lo < hi {
		mid := (lo + hi + 1) / 2
		c, err := cost(mid)
		if err != nil {
			return MaxTrianglesResponse{}, err
		}
		if c <= req.PerImageBudgetSeconds {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	c, err := cost(lo)
	if err != nil {
		return MaxTrianglesResponse{}, err
	}
	if c > req.PerImageBudgetSeconds {
		// Fitted coefficients are OLS output and can come out slightly
		// negative on noisy corpora, breaking the monotonicity the
		// bisection assumes. Degrade to a conservative doubling scan from
		// the floor (which is known to fit) so the answer always respects
		// the budget.
		lo, c = 1, c1
		for n := 2; n <= maxTrianglesCeiling; n *= 2 {
			cn, err := cost(n)
			if err != nil {
				return MaxTrianglesResponse{}, err
			}
			if cn > req.PerImageBudgetSeconds {
				break
			}
			lo, c = n, cn
		}
	}
	resp.N = lo
	objects := spec.Objects
	if objects == nil {
		objects = func(n float64) float64 { return 12 * n * n }
	}
	resp.Triangles = objects(float64(lo))
	resp.TotalTriangles = resp.Triangles * float64(req.Tasks)
	resp.PerImageSeconds = cleanFloat(c, &resp.NonFinite)
	return resp, nil
}

// Observation is one measured sample posted back into the serving path —
// the continuous-calibration input. Inputs follow §5.3; times are in
// seconds.
type Observation struct {
	Arch             string      `json:"arch"`
	Renderer         string      `json:"renderer"`
	Inputs           core.Inputs `json:"inputs"`
	BuildSeconds     float64     `json:"build_seconds,omitempty"`
	RenderSeconds    float64     `json:"render_seconds"`
	CompositeSeconds float64     `json:"composite_seconds,omitempty"`
}

// validate rejects observations that would poison a refit: unknown
// renderers, non-positive render times, and any non-finite number (the
// inbound mirror of the non-finite sanitization on responses).
func (o *Observation) validate() error {
	if o.Arch == "" {
		return fmt.Errorf("advisor: observation missing arch")
	}
	// Any renderer with a model spec is observable — except
	// "compositing", which is fitted across archs from the multi-task
	// samples' CompositeSeconds, not posted as a pseudo-renderer of its
	// own. Validating against the spec table (not a list kept here)
	// means observations for newly added scenario backends flow into
	// refits without advisor changes.
	if err := checkRenderer(o.Renderer); err != nil {
		return err
	}
	// Field names match the JSON tags so a rejection names the exact key
	// to fix. Negative inputs are as poisonous to a refit as non-finite
	// ones: OLS happily fits garbage coefficients over them.
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"inputs.o", o.Inputs.O}, {"inputs.ap", o.Inputs.AP},
		{"inputs.vo", o.Inputs.VO}, {"inputs.ppt", o.Inputs.PPT},
		{"inputs.spr", o.Inputs.SPR}, {"inputs.cs", o.Inputs.CS},
		{"inputs.pixels", o.Inputs.Pixels}, {"inputs.avg_ap", o.Inputs.AvgAP},
		{"build_seconds", o.BuildSeconds}, {"render_seconds", o.RenderSeconds},
		{"composite_seconds", o.CompositeSeconds},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("advisor: observation %s is not finite", f.name)
		}
		if f.v < 0 {
			return fmt.Errorf("advisor: observation %s must be non-negative, got %v", f.name, f.v)
		}
	}
	if o.RenderSeconds <= 0 {
		return fmt.Errorf("advisor: observation render_seconds must be positive, got %v", o.RenderSeconds)
	}
	if o.Inputs.Tasks < 0 {
		return fmt.Errorf("advisor: observation inputs.tasks must be non-negative, got %d", o.Inputs.Tasks)
	}
	return nil
}

// SamplesFromObservations validates a batch and converts it to fitting
// samples. One bad element fails the batch: a refit corpus is shared
// state, so partial ingestion of a malformed payload is worse than a
// clean rejection.
func SamplesFromObservations(obs []Observation) ([]core.Sample, error) {
	if len(obs) == 0 {
		return nil, fmt.Errorf("advisor: empty observation batch")
	}
	out := make([]core.Sample, len(obs))
	for i := range obs {
		o := &obs[i]
		if err := o.validate(); err != nil {
			return nil, fmt.Errorf("observation %d: %w", i, err)
		}
		in := o.Inputs
		if in.Tasks < 1 {
			in.Tasks = 1
		}
		out[i] = core.Sample{
			Arch:          o.Arch,
			Renderer:      core.Renderer(o.Renderer),
			In:            in,
			BuildTime:     o.BuildSeconds,
			RenderTime:    o.RenderSeconds,
			CompositeTime: o.CompositeSeconds,
		}
	}
	return out, nil
}

// ObserveResponse reports the outcome of an ingestion batch.
type ObserveResponse struct {
	Accepted   int    `json:"accepted"`
	CorpusSize int    `json:"corpus_size"`
	Published  bool   `json:"published"`
	Generation uint64 `json:"generation"`
	// Pending explains why no new generation was published (refit cadence
	// not reached, or the corpus cannot fit a model yet).
	Pending string `json:"pending,omitempty"`
}

// Observe feeds validated samples to the configured observer; when the
// observer refits and publishes, the registry generation in the response
// reflects the new models.
func (e *Engine) Observe(samples []core.Sample) (ObserveResponse, error) {
	start := time.Now()
	resp, err := e.doObserve(samples)
	e.metrics[OpObserve].observe(start, err)
	return resp, err
}

func (e *Engine) doObserve(samples []core.Sample) (ObserveResponse, error) {
	if e.observer == nil {
		return ObserveResponse{}, fmt.Errorf("advisor: observation ingestion is not enabled")
	}
	if len(samples) == 0 {
		return ObserveResponse{}, fmt.Errorf("advisor: empty sample batch")
	}
	corpus, published, reason, err := e.observer.Observe(samples)
	if err != nil {
		return ObserveResponse{}, err
	}
	return ObserveResponse{
		Accepted:   len(samples),
		CorpusSize: corpus,
		Published:  published,
		Generation: e.reg.Generation(),
		Pending:    reason,
	}, nil
}
