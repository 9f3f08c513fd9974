package scenario

import (
	"fmt"

	"insitu/internal/device"
	"insitu/internal/mesh"
	"insitu/internal/render"
)

// Scene is the renderer-agnostic description of one rendering
// configuration: what to render (a parsed simulation block or prebuilt
// geometry), from where, on which device, at what resolution, and over
// which scalar range. The same Scene drives every backend, so the study
// harness, the repro table generators, and the in situ pipeline set a
// scene up once and let the backend decide how to consume it.
// Backend.PrepareScene reads only what to render, the device and the
// scalar range; the camera, size, SamplesZ and RTWorkload are what
// Backend.Prepare's runner renders at (per frame, see Frame).
type Scene struct {
	Dev           *device.Device
	Camera        render.Camera
	Width, Height int
	// FieldName and Values are the plotted scalar field, vertex
	// associated. Required for backends that extract geometry from Mesh;
	// prebuilt-geometry scenes may leave them empty.
	FieldName string
	Values    []float64
	// FieldLo/FieldHi fix the scalar normalization (globally reduced in
	// multi-task runs). Both zero means derive from the local values.
	FieldLo, FieldHi float64
	// SamplesZ is the depth sampling density for volume techniques
	// (0 uses the backend's default).
	SamplesZ int
	// RTWorkload selects the ray tracing pipeline depth (1, 2, or 3;
	// 0 uses the backend default, the paper's shaded Workload2). The
	// study leaves it at the default so fitted models stay on one
	// workload; the serving layer degrades Frame.RTWorkload instead.
	RTWorkload int

	// Mesh is the parsed simulation block (nil for prebuilt-geometry
	// scenes).
	Mesh *ParsedMesh

	// surface and tets, when set, bypass extraction: table generators
	// hand prebuilt geometry straight to a backend.
	surface *mesh.TriangleMesh
	tets    *mesh.TetMesh
}

// NewScene describes a parsed simulation block — the study and in situ
// path. Values must be FieldName's vertex-associated scalars.
func NewScene(dev *device.Device, pm *ParsedMesh, fieldName string, vals []float64, cam render.Camera, width, height int) *Scene {
	lo, hi := FieldRange(vals)
	return &Scene{
		Dev: dev, Camera: cam, Width: width, Height: height,
		FieldName: fieldName, Values: vals, FieldLo: lo, FieldHi: hi,
		Mesh: pm,
	}
}

// SceneFromSurface describes prebuilt surface geometry — the repro table
// path, where datasets arrive as extracted isosurfaces.
func SceneFromSurface(dev *device.Device, tri *mesh.TriangleMesh, cam render.Camera, width, height int) *Scene {
	return &Scene{
		Dev: dev, Camera: cam, Width: width, Height: height,
		FieldLo: tri.ScalarMin, FieldHi: tri.ScalarMax,
		surface: tri,
	}
}

// SceneFromTets describes a prebuilt tetrahedral volume.
func SceneFromTets(dev *device.Device, tm *mesh.TetMesh, cam render.Camera, width, height int) *Scene {
	return &Scene{
		Dev: dev, Camera: cam, Width: width, Height: height,
		FieldLo: tm.ScalarMin, FieldHi: tm.ScalarMax,
		tets: tm,
	}
}

// SceneFromGrid describes a structured grid with a named vertex field —
// the figure-rendering path.
func SceneFromGrid(dev *device.Device, g *mesh.StructuredGrid, fieldName string, cam render.Camera, width, height int) (*Scene, error) {
	f, err := g.Field(fieldName)
	if err != nil {
		return nil, err
	}
	sc := NewScene(dev, &ParsedMesh{Grid: g}, fieldName, f.Values, cam, width, height)
	return sc, nil
}

// SetSurface installs prebuilt surface geometry (e.g. an extracted
// isosurface), which surface backends will render instead of the block's
// external faces. This is how a tool renders a *plot* of a parsed block
// rather than its boundary while still dispatching through the backend
// registry.
func (sc *Scene) SetSurface(tri *mesh.TriangleMesh) { sc.surface = tri }

// FieldRange returns the scene's scalar normalization range.
func (sc *Scene) FieldRange() (float64, float64) {
	if sc.FieldLo == 0 && sc.FieldHi == 0 && sc.Values != nil {
		return FieldRange(sc.Values)
	}
	return sc.FieldLo, sc.FieldHi
}

// SurfaceMesh returns the scene's renderable surface, extracting the
// block's external faces when no prebuilt surface was supplied.
func (sc *Scene) SurfaceMesh() (*mesh.TriangleMesh, error) {
	if sc.surface != nil {
		return sc.surface, nil
	}
	if sc.Mesh == nil {
		return nil, fmt.Errorf("scenario: scene has no mesh to extract a surface from")
	}
	tri, err := sc.Mesh.Surface(sc.FieldName, sc.Values)
	if err != nil {
		return nil, err
	}
	tri.ScalarMin, tri.ScalarMax = sc.FieldRange()
	sc.surface = tri
	return tri, nil
}

// TetMesh returns the scene as a tetrahedral volume, tetrahedralizing
// the block (structured or explicit hexes) when no prebuilt tet mesh was
// supplied.
func (sc *Scene) TetMesh() (*mesh.TetMesh, error) {
	if sc.tets != nil {
		return sc.tets, nil
	}
	if sc.Mesh == nil {
		return nil, fmt.Errorf("scenario: scene has no mesh to tetrahedralize")
	}
	tm, err := sc.Mesh.TetVolume(sc.FieldName, sc.Values)
	if err != nil {
		return nil, err
	}
	tm.ScalarMin, tm.ScalarMax = sc.FieldRange()
	sc.tets = tm
	return tm, nil
}

// Grid returns the scene's structured grid, or nil when the block is
// unstructured or the scene holds prebuilt geometry.
func (sc *Scene) Grid() *mesh.StructuredGrid {
	if sc.Mesh == nil {
		return nil
	}
	return sc.Mesh.Grid
}

// Structured reports whether the scene can feed structured-only
// backends.
func (sc *Scene) Structured() bool { return sc.Grid() != nil }
