// Package registry persists fitted performance models and serves them to
// online consumers. A Snapshot is the versioned JSON form of a fitted
// core.ModelSet — per-model coefficients, fit diagnostics, and the
// calibrated configuration mapping — so a one-shot study or repro run can
// publish its models once and any number of advisor processes can answer
// feasibility questions from them later. A Registry holds the current
// snapshot in memory behind a read-write lock, supports atomic hot reload
// (a reload swaps the whole model set and invalidates derived state), and
// memoizes predictions in an LRU cache keyed by the full model input
// vector, since interactive advisors ask the same few configurations over
// and over.
package registry

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"insitu/internal/core"
	"insitu/internal/lru"
	"insitu/internal/stats"
)

// ErrNoModel reports a lookup for an architecture+renderer the registry
// does not hold. Callers classify it with errors.Is rather than matching
// error text.
var ErrNoModel = errors.New("registry: no model")

// SnapshotVersion is the current serialization format version. Decoders
// accept only this version; bump it when the layout changes.
const SnapshotVersion = 1

// FitDoc serializes one stats.Fit: the coefficients that define the model
// plus the diagnostics needed to judge it without refitting.
type FitDoc struct {
	Coef       []float64 `json:"coef"`
	R2         float64   `json:"r2"`
	AdjR2      float64   `json:"adj_r2"`
	ResidualSD float64   `json:"residual_sd"`
	N          int       `json:"n"`
	P          int       `json:"p"`
}

// ModelDoc serializes one fitted architecture+renderer model.
type ModelDoc struct {
	Arch     string  `json:"arch"`
	Renderer string  `json:"renderer"`
	Fit      FitDoc  `json:"fit"`
	BuildFit *FitDoc `json:"build_fit,omitempty"`
}

// MappingDoc serializes the calibrated configuration-to-inputs mapping.
type MappingDoc struct {
	FillFraction float64 `json:"fill_fraction"`
	SPRBase      float64 `json:"spr_base"`
}

// Snapshot is the on-disk registry document: everything needed to answer
// feasibility questions, detached from the study that produced it.
type Snapshot struct {
	Version     int        `json:"version"`
	Source      string     `json:"source"`
	CreatedUnix int64      `json:"created_unix"`
	Mapping     MappingDoc `json:"mapping"`
	Models      []ModelDoc `json:"models"`
	Compositing *ModelDoc  `json:"compositing,omitempty"`
}

func fitDoc(f *stats.Fit) FitDoc {
	return FitDoc{
		Coef:       append([]float64(nil), f.Coef...),
		R2:         f.R2,
		AdjR2:      f.AdjR2,
		ResidualSD: f.ResidualSD,
		N:          f.N,
		P:          f.P,
	}
}

func (d FitDoc) fit() *stats.Fit {
	return &stats.Fit{
		Coef:       append([]float64(nil), d.Coef...),
		R2:         d.R2,
		AdjR2:      d.AdjR2,
		ResidualSD: d.ResidualSD,
		N:          d.N,
		P:          d.P,
	}
}

func modelDoc(m *core.Model) ModelDoc {
	doc := ModelDoc{Arch: m.Arch, Renderer: string(m.Renderer), Fit: fitDoc(m.Fit)}
	if m.BuildFit != nil {
		bd := fitDoc(m.BuildFit)
		doc.BuildFit = &bd
	}
	return doc
}

// FromModelSet packages a fitted model set and its calibrated mapping as a
// snapshot. Models are emitted in the set's sorted key order so snapshots
// of the same fit are byte-identical.
func FromModelSet(set *core.ModelSet, mp core.Mapping, source string) *Snapshot {
	s := &Snapshot{
		Version:     SnapshotVersion,
		Source:      source,
		CreatedUnix: time.Now().Unix(),
		Mapping:     MappingDoc{FillFraction: mp.FillFraction, SPRBase: mp.SPRBase},
	}
	keys := make([]string, 0, len(set.Models))
	for k := range set.Models {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		s.Models = append(s.Models, modelDoc(set.Models[k]))
	}
	if set.Compositing != nil {
		cd := modelDoc(set.Compositing)
		s.Compositing = &cd
	}
	return s
}

// termCount returns the expected coefficient count of a renderer's term
// vector, for validation.
func termCount(r core.Renderer) (int, error) {
	terms, err := core.RenderTerms(r, core.Inputs{})
	if err != nil {
		return 0, err
	}
	return len(terms), nil
}

// Validate checks the snapshot's version, renderer names, and coefficient
// arities, so a stale or hand-edited file fails loudly at load time rather
// than producing silent garbage predictions.
func (s *Snapshot) Validate() error {
	if s.Version != SnapshotVersion {
		return fmt.Errorf("registry: snapshot version %d, want %d", s.Version, SnapshotVersion)
	}
	if len(s.Models) == 0 {
		return fmt.Errorf("registry: snapshot has no models")
	}
	check := func(d *ModelDoc) error {
		r := core.Renderer(d.Renderer)
		want, err := termCount(r)
		if err != nil {
			return fmt.Errorf("registry: model %s/%s: %w", d.Arch, d.Renderer, err)
		}
		if len(d.Fit.Coef) != want {
			return fmt.Errorf("registry: model %s/%s has %d coefficients, want %d",
				d.Arch, d.Renderer, len(d.Fit.Coef), want)
		}
		if d.BuildFit != nil && len(d.BuildFit.Coef) != len(core.RTBuildTerms(core.Inputs{})) {
			return fmt.Errorf("registry: model %s/%s build fit has %d coefficients",
				d.Arch, d.Renderer, len(d.BuildFit.Coef))
		}
		return nil
	}
	seen := map[string]bool{}
	for i := range s.Models {
		d := &s.Models[i]
		if err := check(d); err != nil {
			return err
		}
		k := core.Key(d.Arch, core.Renderer(d.Renderer))
		if seen[k] {
			return fmt.Errorf("registry: duplicate model %s", k)
		}
		seen[k] = true
	}
	if s.Compositing != nil {
		if err := check(s.Compositing); err != nil {
			return err
		}
	}
	return nil
}

// ModelSet reconstructs the in-memory model set. The returned set predicts
// bit-identically to the one the snapshot was built from: coefficients
// survive the JSON round trip exactly (shortest round-trippable decimals)
// and prediction is a plain dot product over them.
func (s *Snapshot) ModelSet() (*core.ModelSet, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	set := &core.ModelSet{Models: map[string]*core.Model{}}
	for i := range s.Models {
		d := &s.Models[i]
		m := &core.Model{Arch: d.Arch, Renderer: core.Renderer(d.Renderer), Fit: d.Fit.fit()}
		if d.BuildFit != nil {
			m.BuildFit = d.BuildFit.fit()
		}
		set.Models[core.Key(d.Arch, m.Renderer)] = m
	}
	if s.Compositing != nil {
		set.Compositing = &core.Model{
			Arch:     s.Compositing.Arch,
			Renderer: core.Renderer(s.Compositing.Renderer),
			Fit:      s.Compositing.Fit.fit(),
		}
	}
	return set, nil
}

// CalibratedMapping reconstructs the calibrated mapping, falling back to
// the paper's defaults when the snapshot predates calibration.
func (s *Snapshot) CalibratedMapping() core.Mapping {
	mp := core.Mapping{FillFraction: s.Mapping.FillFraction, SPRBase: s.Mapping.SPRBase}
	def := core.DefaultMapping()
	if mp.FillFraction <= 0 {
		mp.FillFraction = def.FillFraction
	}
	if mp.SPRBase <= 0 {
		mp.SPRBase = def.SPRBase
	}
	return mp
}

// Encode writes the snapshot as indented JSON.
func (s *Snapshot) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// Decode reads and validates a snapshot.
func Decode(r io.Reader) (*Snapshot, error) {
	var s Snapshot
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("registry: decode: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// WriteFile atomically writes the snapshot next to path (temp file +
// rename), so a concurrent hot reload never observes a torn file.
func (s *Snapshot) WriteFile(path string) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".registry-*.json")
	if err != nil {
		return err
	}
	if err := s.Encode(tmp); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	// CreateTemp makes the file 0600; published snapshots are meant to be
	// consumed by other processes (advisord under a service user), so open
	// it up before the rename makes it visible.
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// ReadFile loads and validates a snapshot file.
func ReadFile(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Decode(f)
}

// PredictResult is one cached prediction: the per-image local render time,
// the one-time acceleration-structure build, and the per-image compositing
// cost (0 for single-task configurations or when no compositing model is
// loaded).
type PredictResult struct {
	RenderSeconds    float64 `json:"render_seconds"`
	BuildSeconds     float64 `json:"build_seconds"`
	CompositeSeconds float64 `json:"composite_seconds"`
}

// predKey identifies a prediction by registry generation, model, and full
// input vector. core.Inputs is a flat struct of numbers, so the key is
// comparable and collision-free. The generation guards against a race
// with hot reload: a prediction computed from the pre-reload model set
// carries the old generation and can never answer a post-reload lookup,
// even if it is inserted after the reload's purge.
type predKey struct {
	gen uint64
	key string
	in  core.Inputs
}

// Registry serves one snapshot's models to concurrent readers.
type Registry struct {
	mu         sync.RWMutex
	snap       *Snapshot
	set        *core.ModelSet
	mapping    core.Mapping
	path       string // last loaded file, for Reload
	generation uint64

	cache      *lru.Cache[predKey, PredictResult]
	hits       atomic.Uint64
	misses     atomic.Uint64
	lastReload atomic.Int64 // unix nanos
}

// New returns an empty registry whose prediction cache holds up to
// cacheSize entries (0 disables caching).
func New(cacheSize int) *Registry {
	return &Registry{cache: lru.New[predKey, PredictResult](cacheSize)}
}

// Load installs an in-memory snapshot, replacing any previous one
// atomically and invalidating the prediction cache. The remembered
// Reload path is cleared: the current models no longer come from a file.
func (r *Registry) Load(s *Snapshot) error { return r.load(s, "") }

// LoadFile loads a snapshot file and remembers the path for Reload.
func (r *Registry) LoadFile(path string) error {
	s, err := ReadFile(path)
	if err != nil {
		return err
	}
	return r.load(s, path)
}

// load installs snapshot and path in one critical section so concurrent
// loads can never pair one file's models with another file's reload path.
func (r *Registry) load(s *Snapshot, path string) error {
	set, err := s.ModelSet()
	if err != nil {
		return err
	}
	mp := s.CalibratedMapping()
	r.mu.Lock()
	r.snap = s
	r.set = set
	r.mapping = mp
	r.path = path
	r.generation++
	r.mu.Unlock()
	r.cache.Purge()
	r.lastReload.Store(time.Now().UnixNano())
	return nil
}

// ErrStale reports a conditional publish whose base generation no longer
// matches the registry — another load or publish won the race. Callers
// re-derive their snapshot from the current state and retry.
var ErrStale = errors.New("registry: stale base generation")

// Publish installs an in-memory snapshot while preserving the remembered
// Reload path — the continuous-calibration path: a refitted snapshot
// replaces the serving models atomically (generation bump, cache purge)
// without disconnecting the registry from the file a later explicit
// reload should re-read. Like Load, a failed Publish leaves the current
// models serving.
func (r *Registry) Publish(s *Snapshot) error {
	return r.publish(s, nil)
}

// PublishIf is Publish conditioned on the registry still being at
// baseGen, the generation the caller derived its snapshot from. It fails
// with ErrStale when a concurrent load or reload has moved the registry
// on — essential for read-merge-publish updates (study.Calibrator),
// which would otherwise silently drop models installed by the concurrent
// load.
func (r *Registry) PublishIf(s *Snapshot, baseGen uint64) error {
	return r.publish(s, &baseGen)
}

// publish installs a snapshot keeping r.path untouched; expect, when
// non-nil, is the required current generation.
func (r *Registry) publish(s *Snapshot, expect *uint64) error {
	set, err := s.ModelSet()
	if err != nil {
		return err
	}
	mp := s.CalibratedMapping()
	r.mu.Lock()
	if expect != nil && r.generation != *expect {
		gen := r.generation
		r.mu.Unlock()
		return fmt.Errorf("%w: registry at generation %d, snapshot derived from %d", ErrStale, gen, *expect)
	}
	r.snap = s
	r.set = set
	r.mapping = mp
	r.generation++
	r.mu.Unlock()
	r.cache.Purge()
	r.lastReload.Store(time.Now().UnixNano())
	return nil
}

// Reload re-reads the last loaded file — the hot-reload path a running
// advisord uses when the study pipeline publishes fresh models. A failed
// reload leaves the current models serving.
func (r *Registry) Reload() error {
	r.mu.RLock()
	path := r.path
	r.mu.RUnlock()
	if path == "" {
		return fmt.Errorf("registry: no file loaded")
	}
	return r.LoadFile(path)
}

// Generation returns the load counter; it increments on every successful
// Load so clients can detect model churn.
//
//insitu:noalloc
func (r *Registry) Generation() uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.generation
}

// Snapshot returns the currently loaded snapshot document (nil when
// empty). Callers must not mutate it.
func (r *Registry) Snapshot() *Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.snap
}

// Mapping returns the active configuration mapping.
func (r *Registry) Mapping() core.Mapping {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.mapping
}

// ModelSet returns the active model set (nil when empty). Callers must
// not mutate it.
func (r *Registry) ModelSet() *core.ModelSet {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.set
}

// Lookup returns the model for an architecture and renderer.
func (r *Registry) Lookup(arch string, renderer core.Renderer) (*core.Model, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.set == nil {
		return nil, false
	}
	m, ok := r.set.Models[core.Key(arch, renderer)]
	return m, ok
}

// Archs returns the sorted architectures with at least one model.
func (r *Registry) Archs() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	seen := map[string]bool{}
	var out []string
	if r.snap != nil {
		for _, d := range r.snap.Models {
			if !seen[d.Arch] {
				seen[d.Arch] = true
				out = append(out, d.Arch)
			}
		}
	}
	sort.Strings(out)
	return out
}

// View is an immutable, internally consistent snapshot of the registry
// state: the model set, the mapping calibrated with it, and the
// generation they were loaded under. Callers that make several dependent
// evaluations (map inputs, then predict; a whole feasibility curve) take
// one View so a concurrent hot reload cannot mix old-mapping inputs with
// new-model coefficients mid-request.
type View struct {
	reg     *Registry
	snap    *Snapshot
	set     *core.ModelSet
	mapping core.Mapping
	gen     uint64
}

// View captures the current consistent state, erroring when empty.
func (r *Registry) View() (View, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.set == nil {
		return View{}, fmt.Errorf("registry: no snapshot loaded")
	}
	return View{reg: r, snap: r.snap, set: r.set, mapping: r.mapping, gen: r.generation}, nil
}

// Mapping returns the view's calibrated configuration mapping.
func (v View) Mapping() core.Mapping { return v.mapping }

// Generation returns the load generation this view was taken at.
func (v View) Generation() uint64 { return v.gen }

// Snapshot returns the snapshot document this view was taken from.
// Callers must not mutate it.
func (v View) Snapshot() *Snapshot { return v.snap }

// Predict evaluates the view's model for the given inputs, memoizing
// through the registry's LRU cache under the view's generation.
func (v View) Predict(arch string, renderer core.Renderer, in core.Inputs) (PredictResult, error) {
	r := v.reg
	k := predKey{gen: v.gen, key: core.Key(arch, renderer), in: in}
	if res, ok := r.cache.Get(k); ok {
		r.hits.Add(1)
		return res, nil
	}
	m, ok := v.set.Models[k.key]
	if !ok {
		return PredictResult{}, fmt.Errorf("%w for %s", ErrNoModel, k.key)
	}
	res := PredictResult{
		RenderSeconds: m.Predict(in),
		BuildSeconds:  m.PredictBuild(in),
	}
	if in.Tasks > 1 && v.set.Compositing != nil {
		res.CompositeSeconds = v.set.Compositing.Predict(in)
	}
	r.misses.Add(1)
	r.cache.Add(k, res)
	return res, nil
}

// Predict evaluates the current model for the given inputs, memoizing
// through the LRU cache. The result separates render, build, and
// compositing time so callers can amortize the build over many images.
func (r *Registry) Predict(arch string, renderer core.Renderer, in core.Inputs) (PredictResult, error) {
	v, err := r.View()
	if err != nil {
		return PredictResult{}, err
	}
	return v.Predict(arch, renderer, in)
}

// CacheStats is prediction-cache effectiveness, JSON-shaped for the
// services' /v1/metrics.
type CacheStats struct {
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	Size   int    `json:"size"`
}

// CacheStats reports prediction-cache effectiveness.
func (r *Registry) CacheStats() CacheStats {
	return CacheStats{Hits: r.hits.Load(), Misses: r.misses.Load(), Size: r.cache.Len()}
}

// LastReload returns when the registry last loaded a snapshot (zero time
// when never loaded).
func (r *Registry) LastReload() time.Time {
	ns := r.lastReload.Load()
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns)
}
