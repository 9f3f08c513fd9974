package lru

import "testing"

func TestEvictionOrderAndHook(t *testing.T) {
	c := New[int, string](2)
	c.Add(1, "a")
	c.Add(2, "b")
	c.Get(1) // touch 1: 2 becomes the victim
	c.Add(3, "c")
	if _, ok := c.Get(2); ok {
		t.Error("LRU entry survived eviction")
	}
	if v, ok := c.Get(1); !ok || v != "a" {
		t.Error("recently used entry evicted")
	}
	if c.Len() != 2 {
		t.Errorf("len = %d", c.Len())
	}
}

func TestDisabledCache(t *testing.T) {
	c := New[int, int](0)
	c.Add(1, 1)
	if _, ok := c.Get(1); ok || c.Len() != 0 {
		t.Error("disabled cache cached")
	}
}

func TestAddRefreshesValue(t *testing.T) {
	c := New[string, int](2)
	c.Add("k", 1)
	c.Add("k", 2)
	if v, _ := c.Get("k"); v != 2 {
		t.Errorf("refreshed value = %d", v)
	}
	if c.Len() != 1 {
		t.Errorf("len = %d", c.Len())
	}
}

// TestAddIfAbsent: the first value stored under a key wins and is
// returned to later inserts, an insert past capacity reports its
// eviction, and a disabled cache stores nothing.
func TestAddIfAbsent(t *testing.T) {
	c := New[string, int](2)
	if v, evicted := c.AddIfAbsent("a", 1); v != 1 || evicted {
		t.Errorf("first insert = %d, %v; want 1, false", v, evicted)
	}
	if v, evicted := c.AddIfAbsent("a", 2); v != 1 || evicted {
		t.Errorf("second insert = %d, %v; want the stored 1, false", v, evicted)
	}
	if v, evicted := c.AddIfAbsent("b", 3); v != 3 || evicted {
		t.Errorf("insert at capacity = %d, %v; want 3, false", v, evicted)
	}
	c.AddIfAbsent("a", 4) // a is now the most recently used
	if v, evicted := c.AddIfAbsent("c", 5); v != 5 || !evicted {
		t.Errorf("insert past capacity = %d, %v; want 5, true", v, evicted)
	}
	if _, ok := c.Get("b"); ok {
		t.Error("the least recently used entry survived the eviction")
	}
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Errorf("a = %d, %v; want the first value stored, 1", v, ok)
	}

	off := New[string, int](0)
	if v, evicted := off.AddIfAbsent("a", 1); v != 1 || evicted || off.Len() != 0 {
		t.Errorf("disabled cache: %d, %v, len %d; want 1, false, 0", v, evicted, off.Len())
	}
}
