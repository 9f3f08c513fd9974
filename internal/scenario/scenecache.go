package scenario

import "sync"

// SceneCache keeps prepared scenes alive across requests so a serving
// path pays scene preparation — simulation stepping, geometry
// extraction, acceleration-structure builds — once per distinct
// configuration instead of once per frame. A prepared scene is
// immutable, so every goroutine that looks one up renders it at once on
// its own Arena; the cache hands out shared references, not leases.
//
// Get prepares a missing key outside the cache lock, so a slow
// preparation stalls no other key. Two concurrent misses of one key may
// both prepare; the first one stored is kept and returned to both.
// Nothing waits on another lookup.
//
// Capacity bounds the cached scenes: storing one past cap drops the
// least recently used other scene. Dropping only forgets the reference —
// a frame still rendering the scene keeps it alive.
//
// Pins are the session-aware layer: a streaming session Pins the key its
// frames render through, and eviction takes unpinned scenes first, so
// one-shot request churn cannot cold-start a live session's scene. Pins
// are soft — when every other scene is pinned the least recently used
// one goes anyway — so a cache smaller than the session population
// stays bounded and degrades to plain LRU instead of growing or
// starving.
type SceneCache[K comparable] struct {
	mu     sync.Mutex
	cap    int
	seq    uint64
	scenes map[K]*cachedScene
	pins   map[K]int
	stats  RunnerCacheStats
}

// RunnerCacheStats is a point-in-time view of scene-cache activity,
// JSON-shaped for /v1/metrics (where the cache keeps its older name,
// runner_cache).
type RunnerCacheStats struct {
	// Leases counts lookups that returned a scene; Hits the subset that
	// found it already prepared. A miss prepares the scene, counted in
	// Prepared, so two concurrent misses of one key count two.
	Leases   uint64 `json:"leases"`
	Hits     uint64 `json:"hits"`
	Prepared uint64 `json:"prepared"`
	// PrepareErrors counts failed preparations (not cached; the next
	// lookup retries).
	PrepareErrors uint64 `json:"prepare_errors"`
	// Evicted counts scenes dropped by capacity pressure; EvictedPinned
	// those that were pinned (pressure exceeded the pin population — the
	// soft-pin degradation path).
	Evicted       uint64 `json:"evicted"`
	EvictedPinned uint64 `json:"evicted_pinned"`
	// Live is the current scene count; Pinned the number of distinct
	// pinned keys.
	Live   int `json:"live"`
	Pinned int `json:"pinned"`
}

// cachedScene is one prepared scene and its recency.
type cachedScene struct {
	scene    *PreparedScene
	lastUsed uint64
}

// NewSceneCache returns a cache keeping up to cap scenes (cap < 1 keeps
// 1).
func NewSceneCache[K comparable](cap int) *SceneCache[K] {
	return &SceneCache[K]{cap: max(cap, 1), scenes: map[K]*cachedScene{}, pins: map[K]int{}}
}

// Get returns key's prepared scene, preparing it with prepare on a miss.
// A failed preparation is not cached: the error propagates and the next
// Get retries.
func (c *SceneCache[K]) Get(key K, prepare func() (*PreparedScene, error)) (*PreparedScene, error) {
	c.mu.Lock()
	if e, ok := c.scenes[key]; ok {
		c.stats.Leases++
		c.stats.Hits++
		c.seq++
		e.lastUsed = c.seq
		c.mu.Unlock()
		return e.scene, nil
	}
	c.mu.Unlock()

	ps, err := prepare()
	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil {
		c.stats.PrepareErrors++
		return nil, err
	}
	c.stats.Leases++
	c.stats.Prepared++
	c.seq++
	if e, ok := c.scenes[key]; ok { // a concurrent miss stored first
		e.lastUsed = c.seq
		return e.scene, nil
	}
	c.scenes[key] = &cachedScene{scene: ps, lastUsed: c.seq}
	for len(c.scenes) > c.cap {
		c.evictLocked(key)
	}
	return ps, nil
}

// evictLocked drops the least recently used scene other than keep,
// unpinned ones first.
func (c *SceneCache[K]) evictLocked(keep K) {
	var victim K
	var best *cachedScene
	bestPinned := true
	for k, e := range c.scenes {
		if k == keep {
			continue
		}
		pinned := c.pins[k] > 0
		if best == nil || bestPinned && !pinned || pinned == bestPinned && e.lastUsed < best.lastUsed {
			victim, best, bestPinned = k, e, pinned
		}
	}
	delete(c.scenes, victim)
	c.stats.Evicted++
	if bestPinned {
		c.stats.EvictedPinned++
	}
}

// Pin marks key as backing a live session: eviction takes unpinned
// scenes first, so request churn cannot cold-start the session's scene.
// Pins nest (each Pin needs an Unpin) and are soft — see the type
// comment. Pinning does not prepare a scene; the first Get does.
func (c *SceneCache[K]) Pin(key K) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pins[key]++
}

// Unpin removes one pin for key.
func (c *SceneCache[K]) Unpin(key K) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n := c.pins[key]; n > 1 {
		c.pins[key] = n - 1
	} else {
		delete(c.pins, key)
	}
}

// Stats snapshots the cache's counters.
func (c *SceneCache[K]) Stats() RunnerCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	st.Live = len(c.scenes)
	st.Pinned = len(c.pins)
	return st
}
