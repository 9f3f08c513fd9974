// Package lru is the one LRU cache shared by every serving-path layer:
// the render-serving subsystem keys admission decisions and encoded
// frames with it, scenario.SceneCache keeps prepared scenes in it, and
// cluster workers keep sliced scenes in it. Keeping one implementation
// means one eviction policy, one concurrency discipline (a single mutex
// — every use site is a lookup measured in nanoseconds), and one place
// to audit for allocation behaviour: Get on a present key performs no
// heap allocation, which the zero-allocation frame path depends on.
package lru

import (
	"container/list"
	"sync"
)

// Cache is a mutex-guarded LRU cache from comparable keys to values.
// The zero value is unusable; construct with New. A capacity <= 0
// disables the cache entirely (every Get misses, Add is a no-op), which
// lets callers expose "0 disables caching" knobs without branching.
type Cache[K comparable, V any] struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List
	items map[K]*list.Element
}

type entry[K comparable, V any] struct {
	key K
	val V
}

// New returns a cache holding up to cap entries.
func New[K comparable, V any](cap int) *Cache[K, V] {
	return &Cache[K, V]{cap: cap, ll: list.New(), items: map[K]*list.Element{}}
}

// Get returns the value for k, marking it most recently used.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	var zero V
	if c.cap <= 0 {
		return zero, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k]
	if !ok {
		return zero, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*entry[K, V]).val, true
}

// Add inserts or refreshes k, evicting the least recently used entry
// when the cache is full.
func (c *Cache[K, V]) Add(k K, v V) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*entry[K, V]).val = v
		return
	}
	c.pushLocked(k, v)
}

// AddIfAbsent inserts k with v unless k is already cached, and returns
// the value stored under k: v, or the one already there, which becomes
// the most recently used. evicted reports that the insert dropped the
// least recently used entry. On a disabled cache it stores nothing and
// returns v.
func (c *Cache[K, V]) AddIfAbsent(k K, v V) (stored V, evicted bool) {
	if c.cap <= 0 {
		return v, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*entry[K, V]).val, false
	}
	return v, c.pushLocked(k, v)
}

// pushLocked inserts the absent key k and drops the least recently used
// entry past capacity, reporting whether it did. Caller holds c.mu.
func (c *Cache[K, V]) pushLocked(k K, v V) (evicted bool) {
	c.items[k] = c.ll.PushFront(&entry[K, V]{key: k, val: v})
	if c.ll.Len() <= c.cap {
		return false
	}
	oldest := c.ll.Back()
	c.ll.Remove(oldest)
	delete(c.items, oldest.Value.(*entry[K, V]).key)
	return true
}

// Len returns the current entry count.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
