package core

// RendererSpec describes one modeled rendering technique: the linear
// model form its measurements fit and the configuration-mapping facts the
// advisor needs to answer questions about it. Fitting, snapshot
// validation, prediction, and observation ingestion all consult the spec
// table instead of a hardcoded renderer list, so a new technique becomes
// fittable and servable by adding its row.
type RendererSpec struct {
	// Name is the renderer's wire name (model keys, snapshots, HTTP).
	Name Renderer
	// Terms maps model inputs to the linear term vector, intercept
	// included; its length fixes the coefficient arity snapshots are
	// validated against.
	Terms func(Inputs) []float64
	// HasBuild marks techniques with a separate one-time
	// acceleration-structure model (RTBuildTerms), fitted apart so
	// repeated renderings amortize it.
	HasBuild bool
	// Surface marks external-face surface techniques: they take the
	// surface branch of Mapping.Map, calibrate the mapping's
	// FillFraction, and are eligible for the max-triangles inversion.
	Surface bool
	// Objects maps the per-task data size N to the modeled object count
	// (the O input of §5.8). Nil uses the default for the technique
	// family: 12*N^2 for surfaces, N^3 for volumes.
	Objects func(n float64) float64
}

// rendererSpecs is every modeled technique, sorted by name: the paper's
// four model forms (Chapter V) plus the tetrahedral volume model.
// Renderers lists it in this order.
var rendererSpecs = []RendererSpec{
	{Name: Compositing, Terms: CompTerms},
	{Name: Raster, Terms: RastTerms, Surface: true},
	{Name: RayTrace, Terms: RTTraceTerms, HasBuild: true, Surface: true},
	{Name: Volume, Terms: VRTerms},
	{Name: VolumeUnstructured, Terms: UVRTerms, Objects: uvrObjects},
}

// LookupRenderer returns a renderer's spec.
func LookupRenderer(r Renderer) (RendererSpec, bool) {
	for _, s := range rendererSpecs {
		if s.Name == r {
			return s, true
		}
	}
	return RendererSpec{}, false
}

// Renderers returns every renderer name, sorted, including the
// compositing pseudo-renderer.
func Renderers() []Renderer {
	out := make([]Renderer, len(rendererSpecs))
	for i, s := range rendererSpecs {
		out[i] = s.Name
	}
	return out
}

// ModeledRenderers returns the renderers whose local render time is
// modeled per architecture — every spec except compositing, which is
// fitted across architectures from multi-task composite times.
func ModeledRenderers() []Renderer {
	all := Renderers()
	out := all[:0]
	for _, r := range all {
		if r != Compositing {
			out = append(out, r)
		}
	}
	return out
}
