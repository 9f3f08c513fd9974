// Package core implements the paper's primary contribution (Chapter V):
// statistical performance models, based on algorithmic complexity, that
// predict the run-time cost of in situ rendering. It defines the model
// forms for ray tracing, rasterization, structured volume rendering, and
// image compositing; fits per-architecture coefficients from study
// samples by multiple linear regression; evaluates the fits with R²,
// residual deviation, and k-fold cross validation; maps user-facing
// rendering configurations to model inputs (§5.8); and answers the in
// situ viability questions (§5.9).
package core

import (
	"fmt"
	"math"
	"sort"

	"insitu/internal/stats"
)

// Renderer names the modeled rendering techniques.
type Renderer string

const (
	// RayTrace is modeled as T = (c0*O + c1) + (c2*AP*log2(O) + c3*AP + c4).
	RayTrace Renderer = "raytracer"
	// Raster is modeled as T = c0*O + c1*(VO*PPT) + c2.
	Raster Renderer = "rasterizer"
	// Volume is modeled as T = c0*(AP*CS) + c1*(AP*SPR) + c2.
	Volume Renderer = "volume"
	// VolumeUnstructured (tetrahedral volume rendering) is modeled as
	// T = c0*O + c1*(AP*SPR) + c2 over tetrahedra.
	VolumeUnstructured Renderer = "volume-unstructured"
	// Compositing is modeled as T = c0*avg(AP) + c1*Pixels + c2.
	Compositing Renderer = "compositing"
)

// Inputs are the model input variables of §5.3. The JSON tags define the
// wire form every advisor endpoint uses (predict responses, posted
// observations), matching the snake_case of the rest of the HTTP API.
type Inputs struct {
	O      float64 `json:"o"`      // objects (triangles or cells)
	AP     float64 `json:"ap"`     // active pixels on this task
	VO     float64 `json:"vo"`     // visible objects (rasterization)
	PPT    float64 `json:"ppt"`    // pixels considered per visible triangle
	SPR    float64 `json:"spr"`    // samples per ray (volume rendering)
	CS     float64 `json:"cs"`     // cells spanned (volume rendering)
	Pixels float64 `json:"pixels"` // full image resolution (compositing)
	AvgAP  float64 `json:"avg_ap"` // average active pixels over tasks (compositing)
	Tasks  int     `json:"tasks"`
}

// Sample is one measured study observation.
type Sample struct {
	Arch     string
	Renderer Renderer
	In       Inputs
	// BuildTime is acceleration-structure construction (ray tracing).
	BuildTime float64 // seconds
	// RenderTime is the local rendering time of the slowest task.
	RenderTime float64 // seconds
	// CompositeTime is the parallel compositing time (0 for 1 task).
	CompositeTime float64 // seconds
}

// Term vectors: each model is linear in these complexity-derived terms.

// RTBuildTerms: c0*O + c1.
func RTBuildTerms(in Inputs) []float64 { return []float64{in.O, 1} }

// RTTraceTerms: c2*(AP*log2(O)) + c3*AP + c4.
func RTTraceTerms(in Inputs) []float64 {
	logO := 0.0
	if in.O > 1 {
		logO = math.Log2(in.O)
	}
	return []float64{in.AP * logO, in.AP, 1}
}

// RastTerms: c0*O + c1*(VO*PPT) + c2.
func RastTerms(in Inputs) []float64 { return []float64{in.O, in.VO * in.PPT, 1} }

// VRTerms: c0*(AP*CS) + c1*(AP*SPR) + c2.
func VRTerms(in Inputs) []float64 { return []float64{in.AP * in.CS, in.AP * in.SPR, 1} }

// UVRTerms: c0*O + c1*(AP*SPR) + c2, linear in the tet count (every tet
// is projected and pass-selected) and in the samples taken along active
// rays.
func UVRTerms(in Inputs) []float64 { return []float64{in.O, in.AP * in.SPR, 1} }

// uvrObjects is the tetrahedral O input: six tetrahedra per hex cell of
// an N^3 block.
func uvrObjects(n float64) float64 { return 6 * n * n * n }

// CompTerms: c0*avg(AP) + c1*Pixels + c2.
func CompTerms(in Inputs) []float64 { return []float64{in.AvgAP, in.Pixels, 1} }

// RenderTerms dispatches to the renderer's term vector.
func RenderTerms(r Renderer, in Inputs) ([]float64, error) {
	spec, ok := LookupRenderer(r)
	if !ok {
		return nil, fmt.Errorf("core: unknown renderer %q (registered: %v)", r, Renderers())
	}
	return spec.Terms(in), nil
}

// Model is one fitted architecture+renderer performance model.
type Model struct {
	Arch     string
	Renderer Renderer
	Fit      *stats.Fit
	// BuildFit is the separate c0*O + c1 acceleration-structure model
	// (ray tracing only), kept apart so repeated renderings amortize it.
	BuildFit *stats.Fit
}

// Predict returns the predicted per-image local render time in seconds.
func (m *Model) Predict(in Inputs) float64 {
	terms, err := RenderTerms(m.Renderer, in)
	if err != nil {
		return math.NaN()
	}
	return m.Fit.Predict(terms)
}

// PredictBuild returns the predicted acceleration build time (0 for
// renderers without one).
func (m *Model) PredictBuild(in Inputs) float64 {
	if m.BuildFit == nil {
		return 0
	}
	return m.BuildFit.Predict(RTBuildTerms(in))
}

// Coefficients returns the c_i in the paper's Table 17 layout: ray
// tracing lists build (c0, c1) then trace (c2, c3, c4); the others list
// their three coefficients.
func (m *Model) Coefficients() []float64 {
	if m.BuildFit != nil {
		return append(append([]float64(nil), m.BuildFit.Coef...), m.Fit.Coef...)
	}
	return append([]float64(nil), m.Fit.Coef...)
}

// Key identifies a model by architecture and renderer.
func Key(arch string, r Renderer) string { return arch + "/" + string(r) }

// ModelSet holds every fitted model from a study plus the shared
// compositing model.
type ModelSet struct {
	Models      map[string]*Model
	Compositing *Model
}

// FitModels groups samples by (arch, renderer) and fits each model, plus
// the compositing model over all multi-task samples.
func FitModels(samples []Sample) (*ModelSet, error) {
	groups := map[string][]Sample{}
	for _, s := range samples {
		k := Key(s.Arch, s.Renderer)
		groups[k] = append(groups[k], s)
	}
	set := &ModelSet{Models: map[string]*Model{}}
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		g := groups[k]
		m, err := fitGroup(g)
		if err != nil {
			return nil, fmt.Errorf("core: fitting %s: %w", k, err)
		}
		set.Models[k] = m
	}
	comp, err := FitCompositing(samples)
	if err == nil {
		set.Compositing = comp
	}
	return set, nil
}

// FitAvailable is the incremental-refit variant of FitModels: it fits
// every (arch, renderer) group that has accumulated enough samples and
// skips the rest, instead of failing the whole corpus on its thinnest
// group. The skipped map records why each group was left out so a
// continuous-calibration caller can report progress. An error is
// returned only when no group at all can be fitted.
func FitAvailable(samples []Sample) (*ModelSet, map[string]string, error) {
	groups := map[string][]Sample{}
	for _, s := range samples {
		k := Key(s.Arch, s.Renderer)
		groups[k] = append(groups[k], s)
	}
	set := &ModelSet{Models: map[string]*Model{}}
	skipped := map[string]string{}
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		m, err := fitGroup(groups[k])
		if err != nil {
			skipped[k] = err.Error()
			continue
		}
		set.Models[k] = m
	}
	if len(set.Models) == 0 {
		return nil, skipped, fmt.Errorf("core: no fittable model group among %d samples", len(samples))
	}
	if comp, err := FitCompositing(samples); err == nil {
		set.Compositing = comp
	} else {
		skipped[Key("all", Compositing)] = err.Error()
	}
	return set, skipped, nil
}

// fitGroup fits one (arch, renderer) group.
func fitGroup(g []Sample) (*Model, error) {
	if len(g) < 4 {
		return nil, fmt.Errorf("only %d samples", len(g))
	}
	r := g[0].Renderer
	X := make([][]float64, len(g))
	y := make([]float64, len(g))
	for i, s := range g {
		terms, err := RenderTerms(r, s.In)
		if err != nil {
			return nil, err
		}
		X[i] = terms
		y[i] = s.RenderTime
	}
	fit, err := stats.Regress(X, y)
	if err != nil {
		return nil, err
	}
	m := &Model{Arch: g[0].Arch, Renderer: r, Fit: fit}
	if spec, ok := LookupRenderer(r); ok && spec.HasBuild {
		bX := make([][]float64, len(g))
		bY := make([]float64, len(g))
		for i, s := range g {
			bX[i] = RTBuildTerms(s.In)
			bY[i] = s.BuildTime
		}
		bfit, err := stats.Regress(bX, bY)
		if err != nil {
			return nil, fmt.Errorf("build model: %w", err)
		}
		m.BuildFit = bfit
	}
	return m, nil
}

// FitCompositing fits T_comp = c0*avg(AP) + c1*Pixels + c2 over samples
// from multi-task runs.
func FitCompositing(samples []Sample) (*Model, error) {
	var X [][]float64
	var y []float64
	for _, s := range samples {
		if s.In.Tasks < 2 || s.CompositeTime <= 0 {
			continue
		}
		X = append(X, CompTerms(s.In))
		y = append(y, s.CompositeTime)
	}
	if len(X) < 4 {
		return nil, fmt.Errorf("core: only %d compositing samples", len(X))
	}
	fit, err := stats.Regress(X, y)
	if err != nil {
		return nil, err
	}
	return &Model{Arch: "all", Renderer: Compositing, Fit: fit}, nil
}

// CrossValidate runs k-fold cross validation of one (arch, renderer)
// group's render-time model, the paper's Figure 11 / Table 13 procedure.
func CrossValidate(samples []Sample, arch string, r Renderer, k int) (*stats.CVResult, error) {
	var X [][]float64
	var y []float64
	for _, s := range samples {
		if s.Arch != arch || s.Renderer != r {
			continue
		}
		terms, err := RenderTerms(r, s.In)
		if err != nil {
			return nil, err
		}
		X = append(X, terms)
		y = append(y, s.RenderTime)
	}
	if len(X) == 0 {
		return nil, fmt.Errorf("core: no samples for %s", Key(arch, r))
	}
	return stats.KFoldCV(k, X, y, 42)
}

// CrossValidateCompositing cross-validates the compositing model.
func CrossValidateCompositing(samples []Sample, k int) (*stats.CVResult, error) {
	var X [][]float64
	var y []float64
	for _, s := range samples {
		if s.In.Tasks < 2 || s.CompositeTime <= 0 {
			continue
		}
		X = append(X, CompTerms(s.In))
		y = append(y, s.CompositeTime)
	}
	if len(X) == 0 {
		return nil, fmt.Errorf("core: no compositing samples")
	}
	return stats.KFoldCV(k, X, y, 42)
}
