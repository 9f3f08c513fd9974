package study

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"insitu/internal/core"
	"insitu/internal/registry"
)

// Calibrator closes the measure → fit → serve loop continuously: measured
// samples stream in through Observe, accumulate into a corpus, and every
// RefitEvery new samples the models are refitted and published as a fresh
// registry snapshot. Groups too thin to fit yet are carried over from the
// Base snapshot, so a partially calibrated publish never serves fewer
// models than before. Safe for concurrent observers.
type Calibrator struct {
	// Source labels published snapshots (registry.Snapshot.Source).
	Source string
	// RefitEvery is how many new samples must accumulate before another
	// refit is attempted; values below 1 refit on every batch.
	RefitEvery int
	// MaxCorpus bounds the retained corpus; when a new batch pushes past
	// it, the oldest samples are dropped (a sliding window, so a
	// long-running ingestion path neither grows without bound nor refits
	// over an ever-larger corpus). 0 means unbounded, which is fine for
	// finite study runs.
	MaxCorpus int
	// Base, when non-nil, supplies the currently served snapshot and the
	// generation it was taken at. Models (and the compositing model) that
	// the corpus cannot fit yet are carried over from it, and its
	// calibrated mapping fills in for renderer families the corpus
	// lacks. Serving-path implementations should take both from one
	// registry.View so they are consistent.
	Base func() (*registry.Snapshot, uint64)
	// Publish installs a refitted snapshot into the serving path;
	// baseGen is the generation the snapshot's carried-over models were
	// read at. Implementations backed by a live registry should use
	// registry.PublishIf(s, baseGen) so a concurrent reload cannot be
	// silently overwritten — on registry.ErrStale the calibrator
	// re-merges against the fresh base and retries. Required.
	Publish func(s *registry.Snapshot, baseGen uint64) error

	mu      sync.Mutex
	samples []core.Sample
	pending int    // samples accumulated since the last publish
	lastFit string // why the last refit attempt did not publish
}

// Observe ingests a batch of measured samples and refits when due. It
// reports the corpus size, whether a new snapshot was published, and —
// when not published — a human-readable reason (cadence not reached, or
// no group fittable yet). The error is non-nil only for real failures:
// a missing Publish hook or a publish that failed.
func (c *Calibrator) Observe(samples []core.Sample) (corpus int, published bool, reason string, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.samples = append(c.samples, samples...)
	if c.MaxCorpus > 0 && len(c.samples) > c.MaxCorpus {
		drop := len(c.samples) - c.MaxCorpus
		c.samples = append(c.samples[:0], c.samples[drop:]...)
	}
	c.pending += len(samples)
	corpus = len(c.samples)
	every := c.RefitEvery
	if every < 1 {
		every = 1
	}
	if c.pending < every {
		return corpus, false, fmt.Sprintf("awaiting refit cadence (%d/%d new samples)", c.pending, every), nil
	}
	published, reason, err = c.refitLocked()
	return corpus, published, reason, err
}

// Refit forces a refit and publish attempt regardless of the cadence —
// the flush a finished study run uses to capture its trailing rows.
func (c *Calibrator) Refit() (published bool, reason string, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.refitLocked()
}

// CorpusSize returns how many samples have been observed.
func (c *Calibrator) CorpusSize() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.samples)
}

func (c *Calibrator) refitLocked() (bool, string, error) {
	if c.Publish == nil {
		return false, "", fmt.Errorf("study: calibrator has no Publish hook")
	}
	if len(c.samples) == 0 {
		return false, "no samples observed yet", nil
	}
	set, _, err := core.FitAvailable(c.samples)
	if err != nil {
		// Not fatal: the corpus is just too thin. Keep accumulating.
		c.lastFit = err.Error()
		return false, c.lastFit, nil
	}
	fitted := registry.FromModelSet(set, core.CalibrateMapping(c.samples), c.Source)
	// Read-merge-publish can race a concurrent registry load; on a stale
	// publish, re-merge against the fresh base and try again.
	const maxRetries = 3
	for attempt := 0; ; attempt++ {
		snap := cloneSnapshot(fitted)
		var base *registry.Snapshot
		var baseGen uint64
		if c.Base != nil {
			base, baseGen = c.Base()
		}
		mergeSnapshot(snap, base, c.samples)
		if err := snap.Validate(); err != nil {
			c.lastFit = err.Error()
			return false, c.lastFit, nil
		}
		err := c.Publish(snap, baseGen)
		if err == nil {
			break
		}
		if errors.Is(err, registry.ErrStale) && attempt < maxRetries {
			continue
		}
		return false, "", fmt.Errorf("study: publishing refit snapshot: %w", err)
	}
	c.pending = 0
	c.lastFit = ""
	return true, "", nil
}

// cloneSnapshot copies the snapshot's top level and model slice so each
// merge attempt starts from the pristine fit (merge appends to Models).
func cloneSnapshot(s *registry.Snapshot) *registry.Snapshot {
	cp := *s
	cp.Models = append([]registry.ModelDoc(nil), s.Models...)
	return &cp
}

// mergeSnapshot carries models the fresh corpus could not (re)fit over
// from the base snapshot, so a continuous-calibration publish refines the
// served set rather than shrinking it. The mapping constants fall back to
// the base's when the corpus has no samples of the renderer family that
// calibrates them.
//
// Known limitation, inherent to the snapshot format's single shared
// Mapping: when the corpus does contain a renderer family, its constants
// are recalibrated from the corpus alone, and carried-over models of the
// same family on other architectures are then evaluated under the new
// constants even though no new data about them arrived. A camera setup
// consistent with the base study keeps the constants stable; a per-arch
// mapping would need a snapshot format revision.
func mergeSnapshot(fresh, base *registry.Snapshot, samples []core.Sample) {
	if base == nil {
		return
	}
	have := map[string]bool{}
	for _, d := range fresh.Models {
		have[core.Key(d.Arch, core.Renderer(d.Renderer))] = true
	}
	for _, d := range base.Models {
		if !have[core.Key(d.Arch, core.Renderer(d.Renderer))] {
			fresh.Models = append(fresh.Models, d)
		}
	}
	sort.Slice(fresh.Models, func(i, j int) bool {
		a, b := fresh.Models[i], fresh.Models[j]
		return core.Key(a.Arch, core.Renderer(a.Renderer)) < core.Key(b.Arch, core.Renderer(b.Renderer))
	})
	if fresh.Compositing == nil {
		fresh.Compositing = base.Compositing
	}
	var hasSurface, hasVolume bool
	for _, s := range samples {
		if s.Renderer == core.Volume {
			hasVolume = true
		}
		if spec, _ := core.LookupRenderer(s.Renderer); spec.Surface {
			hasSurface = true
		}
	}
	if !hasSurface && base.Mapping.FillFraction > 0 {
		fresh.Mapping.FillFraction = base.Mapping.FillFraction
	}
	if !hasVolume && base.Mapping.SPRBase > 0 {
		fresh.Mapping.SPRBase = base.Mapping.SPRBase
	}
}
