package scenario

import (
	"sync"

	"insitu/internal/lru"
)

// SceneCache keeps prepared scenes alive across requests so a serving
// path pays scene preparation — simulation stepping, geometry
// extraction, acceleration-structure builds — once per distinct
// configuration instead of once per frame. A prepared scene is
// immutable, so every goroutine that looks one up renders it at once on
// its own Arena; the cache hands out shared references, not leases.
//
// Get prepares a missing key outside any lock, so a slow preparation
// stalls no other key. Two concurrent misses of one key may both
// prepare; the first one stored is kept and returned to both. Nothing
// waits on another lookup.
//
// The scenes live in an lru.Cache: storing one past capacity drops the
// least recently used other scene. Dropping only forgets the reference —
// a frame still rendering the scene keeps it alive.
type SceneCache[K comparable] struct {
	scenes *lru.Cache[K, *PreparedScene]
	mu     sync.Mutex // guards stats
	stats  SceneCacheStats
}

// SceneCacheStats is a point-in-time view of scene-cache activity,
// JSON-shaped for /v1/metrics (where the cache keeps its older name,
// runner_cache).
type SceneCacheStats struct {
	// Leases counts lookups that returned a scene; Hits the subset that
	// found it already prepared. A miss prepares the scene, counted in
	// Prepared, so two concurrent misses of one key count two.
	Leases   uint64 `json:"leases"`
	Hits     uint64 `json:"hits"`
	Prepared uint64 `json:"prepared"`
	// PrepareErrors counts failed preparations (not cached; the next
	// lookup retries).
	PrepareErrors uint64 `json:"prepare_errors"`
	// Evicted counts scenes dropped by capacity pressure.
	Evicted uint64 `json:"evicted"`
	// Live is the current scene count.
	Live int `json:"live"`
}

// NewSceneCache returns a cache keeping up to cap scenes (cap < 1 keeps
// 1: an lru.Cache without capacity would cache nothing).
func NewSceneCache[K comparable](cap int) *SceneCache[K] {
	return &SceneCache[K]{scenes: lru.New[K, *PreparedScene](max(cap, 1))}
}

// Get returns key's prepared scene, preparing it with prepare on a miss.
// A failed preparation is not cached: the error propagates and the next
// Get retries.
func (c *SceneCache[K]) Get(key K, prepare func() (*PreparedScene, error)) (*PreparedScene, error) {
	ps, hit := c.scenes.Get(key)
	evicted := false
	if !hit {
		var err error
		if ps, err = prepare(); err != nil {
			c.mu.Lock()
			c.stats.PrepareErrors++
			c.mu.Unlock()
			return nil, err
		}
		// A concurrent miss may have stored first; its scene wins.
		ps, evicted = c.scenes.AddIfAbsent(key, ps)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.Leases++
	if hit {
		c.stats.Hits++
	} else {
		c.stats.Prepared++
	}
	if evicted {
		c.stats.Evicted++
	}
	return ps, nil
}

// Stats snapshots the cache's counters.
func (c *SceneCache[K]) Stats() SceneCacheStats {
	c.mu.Lock()
	st := c.stats
	c.mu.Unlock()
	st.Live = c.scenes.Len()
	return st
}
