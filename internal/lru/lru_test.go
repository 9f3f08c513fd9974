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
