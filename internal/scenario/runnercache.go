package scenario

import (
	"sync"
)

// RunnerCache keeps prepared FrameRunners alive across requests so a
// serving path pays scene preparation — simulation stepping, geometry
// extraction, acceleration-structure builds, device worker-pool spin-up —
// once per distinct configuration instead of once per frame.
//
// A key holds a small pool of runners. FrameRunners are not safe for
// concurrent use, so the cache hands out exclusive leases: Acquire
// leases the key's idle prepared runner, or, when every runner of the
// key is leased, prepares another (outside the cache lock), which may
// fork a prepared runner of the key instead of preparing the scene
// again (see Acquire). Acquire never waits on another lease, so frames
// of one configuration render side by side and requests for different
// keys never wait on each other. The cache does not bound a key's runners; its callers do, by
// bounding their concurrent leases (a server leases only on its render
// workers, a fleet rank renders one job at a time). Extra runners live
// only while the contention does: a key keeps at most one idle runner,
// so a runner released while another of its key is idle closes the
// older of the two, and a key rendered one frame at a time keeps one
// warm runner.
//
// Capacity is a soft bound on *idle* runners, counted in runners: when
// the cache holds more runners than cap, idle ones are closed and
// dropped — first idle extras (a key's idle runner while another of its
// runners is leased), then keys' last runners, least recently released
// first. Runners currently leased or being prepared are never evicted,
// so the live count can exceed cap under load and shrinks back as
// leases return.
//
// Pins are the session-aware layer: a streaming session Pins the key its
// frames render through, and eviction prefers unpinned keys' last
// runners, so one-shot request churn cannot cold-start a live session's
// warm runner (a pin protects a key's last runner, not its extras).
// Pins are soft — when every idle last runner is pinned the LRU one is
// evicted anyway — so a cache smaller than the session population stays
// bounded and degrades to plain LRU instead of growing or starving.
type RunnerCache[K comparable] struct {
	mu     sync.Mutex
	cap    int
	seq    uint64
	pools  map[K]*runnerPool[K]
	pins   map[K]int
	live   int // runners prepared or being prepared, over all keys
	closed bool
	stats  RunnerCacheStats
}

// RunnerCacheStats is a point-in-time view of lease and eviction
// activity, JSON-shaped for /v1/metrics.
type RunnerCacheStats struct {
	// Leases counts Acquire calls that handed out a lease; Hits the
	// subset that found a runner already prepared (a miss prepares one —
	// the full scene preparation, or a fork of a runner of its key —
	// counted in Prepared, so a key rendered on several workers at once
	// counts one per runner).
	Leases   uint64 `json:"leases"`
	Hits     uint64 `json:"hits"`
	Prepared uint64 `json:"prepared"`
	// PrepareErrors counts failed preparations (not cached; the next
	// Acquire retries).
	PrepareErrors uint64 `json:"prepare_errors"`
	// Evicted counts idle runners closed: by capacity pressure, or as
	// the older of a key's two idle runners once contention ended.
	// EvictedPinned counts those that were a pinned key's last runner
	// (pressure exceeded the pin population — the soft-pin degradation
	// path).
	Evicted       uint64 `json:"evicted"`
	EvictedPinned uint64 `json:"evicted_pinned"`
	// Live is the current runner count (leased, idle and being
	// prepared); Pinned the number of distinct pinned keys.
	Live   int `json:"live"`
	Pinned int `json:"pinned"`
}

// runnerPool is one key's runners.
type runnerPool[K comparable] struct {
	key K
	// n counts the key's runners: idle, leased and being prepared.
	n int
	// idle is the prepared runner nobody leases, if any.
	idle *cachedRunner
	// seed is a live runner of the key, idle or leased, that the next
	// preparation may fork; nil when the key has none.
	seed *cachedRunner
}

// cachedRunner is one prepared runner and the hook that frees it.
type cachedRunner struct {
	runner   FrameRunner
	close    func()
	lastUsed uint64
}

// RunnerLease is exclusive access to one cached runner. Release it when
// the frame is done; the runner stays cached for the next request.
type RunnerLease[K comparable] struct {
	cache *RunnerCache[K]
	pool  *runnerPool[K]
	r     *cachedRunner
}

// Runner returns the leased frame runner.
func (l *RunnerLease[K]) Runner() FrameRunner { return l.r.runner }

// Release returns the runner to the cache and triggers idle eviction if
// the cache is over capacity.
func (l *RunnerLease[K]) Release() { l.cache.release(l.pool, l.r) }

// NewRunnerCache returns a cache keeping up to cap idle runners (cap < 1
// keeps 1: a cache that closed every runner immediately would defeat its
// purpose).
func NewRunnerCache[K comparable](cap int) *RunnerCache[K] {
	return &RunnerCache[K]{cap: max(cap, 1), pools: map[K]*runnerPool[K]{}, pins: map[K]int{}}
}

// Acquire leases a runner for key: the key's idle runner if it has one,
// else a new one prepared with prepare. prepare receives seed, a
// prepared runner of the key (nil when the key has none), which may be
// leased and rendering on another goroutine: prepare may Fork it (see
// Forker) but must not otherwise use it. prepare returns the runner and
// a close hook releasing whatever backs it (typically its device).
// Preparation happens outside the cache lock, so requests for other keys
// are not stalled behind a slow preparation. A failed preparation is not
// cached: the error propagates and the next Acquire retries.
func (c *RunnerCache[K]) Acquire(key K, prepare func(seed FrameRunner) (FrameRunner, func(), error)) (*RunnerLease[K], error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, errRunnerCacheClosed
	}
	p, ok := c.pools[key]
	if !ok {
		p = &runnerPool[K]{key: key}
		c.pools[key] = p
	}
	if r := p.idle; r != nil {
		p.idle = nil
		c.stats.Leases++
		c.stats.Hits++
		c.mu.Unlock()
		return &RunnerLease[K]{cache: c, pool: p, r: r}, nil
	}
	var seed FrameRunner
	if p.seed != nil {
		seed = p.seed.runner
	}
	p.n++
	c.live++
	c.mu.Unlock()

	runner, closeFn, err := prepare(seed)
	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil {
		c.stats.PrepareErrors++
		p.n--
		c.live--
		c.dropIfEmptyLocked(p)
		return nil, err
	}
	c.stats.Leases++
	c.stats.Prepared++
	r := &cachedRunner{runner: runner, close: closeFn}
	if p.seed == nil {
		p.seed = r
	}
	return &RunnerLease[K]{cache: c, pool: p, r: r}, nil
}

// dropIfEmptyLocked forgets a key that has no runners left.
func (c *RunnerCache[K]) dropIfEmptyLocked(p *runnerPool[K]) {
	if p.n == 0 && c.pools[p.key] == p {
		delete(c.pools, p.key)
	}
}

// Pin marks key as backing a live session: eviction prefers unpinned
// keys' last runners, so request churn cannot cold-start the session's
// warm runner. Pins nest (each Pin needs an Unpin) and are soft — see
// the type comment. Pinning does not prepare a runner; the first Acquire
// does.
func (c *RunnerCache[K]) Pin(key K) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	c.pins[key]++
}

// Unpin removes one pin for key.
func (c *RunnerCache[K]) Unpin(key K) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n := c.pins[key]; n > 1 {
		c.pins[key] = n - 1
	} else {
		delete(c.pins, key)
	}
}

// Stats snapshots the lease and eviction counters.
func (c *RunnerCache[K]) Stats() RunnerCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	st.Live = c.live
	st.Pinned = len(c.pins)
	return st
}

// release makes the runner its key's idle runner — closing the one it
// replaces — and evicts over-capacity idle runners. After Close it
// closes the runner.
func (c *RunnerCache[K]) release(p *runnerPool[K], r *cachedRunner) {
	var closers []func()
	c.mu.Lock()
	if c.closed {
		p.n--
		c.live--
		if p.seed == r {
			p.seed = nil
		}
		c.dropIfEmptyLocked(p)
		closers = append(closers, r.close)
	} else {
		if p.idle != nil {
			// Contention is over: the key's older idle runner goes.
			c.stats.Evicted++
			closers = append(closers, c.evictLocked(p).close)
		}
		c.seq++
		r.lastUsed = c.seq
		p.idle, p.seed = r, r
		for c.live > c.cap {
			victim, pinned := c.victimLocked()
			if victim == nil {
				break
			}
			c.stats.Evicted++
			if pinned {
				c.stats.EvictedPinned++
			}
			closers = append(closers, c.evictLocked(victim).close)
		}
	}
	c.mu.Unlock()
	for _, fn := range closers {
		if fn != nil {
			fn()
		}
	}
}

// victimLocked returns the pool whose idle runner goes next: idle
// extras before any key's last runner, and among last runners unpinned
// keys before pinned ones (pinned reports the latter), least recently
// released first; nil when no runner is idle.
func (c *RunnerCache[K]) victimLocked() (victim *runnerPool[K], pinned bool) {
	bestRank := 3
	for _, p := range c.pools {
		if p.idle == nil {
			continue
		}
		rank := 0 // an extra runner
		if p.n == 1 {
			rank = 1
			if c.pins[p.key] > 0 {
				rank = 2
			}
		}
		if rank < bestRank || rank == bestRank && p.idle.lastUsed < victim.idle.lastUsed {
			victim, bestRank = p, rank
		}
	}
	return victim, bestRank == 2
}

// evictLocked drops p's idle runner and returns it for closing.
func (c *RunnerCache[K]) evictLocked(p *runnerPool[K]) *cachedRunner {
	r := p.idle
	p.idle = nil
	if p.seed == r {
		p.seed = nil
	}
	p.n--
	c.live--
	c.dropIfEmptyLocked(p)
	return r
}

// Len returns the number of cached runners (leased, idle and being
// prepared).
func (c *RunnerCache[K]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.live
}

// Close drops every idle runner and refuses further Acquires. Leased
// runners are closed when they are released.
func (c *RunnerCache[K]) Close() {
	var closers []func()
	c.mu.Lock()
	c.closed = true
	for _, p := range c.pools {
		if p.idle != nil {
			closers = append(closers, c.evictLocked(p).close)
		}
	}
	c.mu.Unlock()
	for _, fn := range closers {
		if fn != nil {
			fn()
		}
	}
}

type runnerCacheError string

func (e runnerCacheError) Error() string { return string(e) }

const errRunnerCacheClosed = runnerCacheError("scenario: runner cache closed")
