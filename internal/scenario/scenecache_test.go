package scenario

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// getScene looks key up in c, preparing a fresh scene on a miss and
// counting preparations in prepared.
func getScene[K comparable](t *testing.T, c *SceneCache[K], key K, prepared *atomic.Int32) *PreparedScene {
	t.Helper()
	ps, err := c.Get(key, func() (*PreparedScene, error) {
		prepared.Add(1)
		return &PreparedScene{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return ps
}

// TestRunnerCachePreparesOncePerKey: the scene cache (reported as
// runner_cache) prepares a key once and hands every later lookup the
// same scene.
func TestRunnerCachePreparesOncePerKey(t *testing.T) {
	c := NewSceneCache[string](4)
	var prepared atomic.Int32
	first := getScene(t, c, "a", &prepared)
	for i := 0; i < 3; i++ {
		if getScene(t, c, "a", &prepared) != first {
			t.Fatal("a later lookup got another scene")
		}
	}
	getScene(t, c, "b", &prepared)
	if got := prepared.Load(); got != 2 {
		t.Errorf("prepared %d times, want 2 (once per key)", got)
	}
	if st := c.Stats(); st.Leases != 5 || st.Hits != 3 || st.Prepared != 2 || st.Live != 2 {
		t.Errorf("stats %+v, want 5 lookups, 3 hits, 2 prepared, 2 live", st)
	}
}

// TestRunnerCacheEvictsLRU: storing a scene past capacity drops the
// least recently used one, and a lookup counts as a use.
func TestRunnerCacheEvictsLRU(t *testing.T) {
	c := NewSceneCache[int](2)
	var prepared atomic.Int32
	getScene(t, c, 1, &prepared)
	getScene(t, c, 2, &prepared)
	getScene(t, c, 1, &prepared) // 2 is now the least recently used
	getScene(t, c, 3, &prepared)
	if st := c.Stats(); st.Evicted != 1 || st.Live != 2 {
		t.Errorf("stats %+v, want 1 evicted, 2 live", st)
	}
	getScene(t, c, 1, &prepared)
	getScene(t, c, 3, &prepared)
	if got := prepared.Load(); got != 3 {
		t.Fatalf("prepared %d scenes, want 3: the recently used scenes were evicted", got)
	}
	getScene(t, c, 2, &prepared)
	if got := prepared.Load(); got != 4 {
		t.Errorf("prepared %d scenes, want 4: the evicted scene came back without a preparation", got)
	}
}

// TestRunnerCachePrepareFailureNotCached: a failed preparation is
// counted, not cached, and the next lookup prepares again.
func TestRunnerCachePrepareFailureNotCached(t *testing.T) {
	c := NewSceneCache[string](2)
	boom := errors.New("boom")
	if _, err := c.Get("k", func() (*PreparedScene, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if live := c.Stats().Live; live != 0 {
		t.Errorf("failed entry cached: %d live", live)
	}
	var prepared atomic.Int32
	getScene(t, c, "k", &prepared)
	if st := c.Stats(); prepared.Load() != 1 || st.PrepareErrors != 1 || st.Prepared != 1 || st.Live != 1 {
		t.Errorf("after a failure and a retry: %+v, %d prepared", st, prepared.Load())
	}
}

// TestRunnerCacheSameKeyConcurrent: concurrent misses of one key never
// wait on each other. They may each prepare, but every lookup gets the
// scene stored first, so the key ends up with one scene. Under -race it
// also checks the cache's locking.
func TestRunnerCacheSameKeyConcurrent(t *testing.T) {
	c := NewSceneCache[string](4)
	var prepared atomic.Int32
	// Every preparation waits until all the lookups have started, so all
	// of them miss at once.
	const n = 4
	var started sync.WaitGroup
	started.Add(n)
	got := make([]*PreparedScene, n)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ps, err := c.Get("a", func() (*PreparedScene, error) {
				prepared.Add(1)
				started.Done()
				started.Wait()
				return &PreparedScene{}, nil
			})
			if err != nil {
				t.Error(err)
			}
			got[i] = ps
		}()
	}
	wg.Wait()
	for i, ps := range got {
		if ps != got[0] {
			t.Fatalf("lookup %d got another scene than lookup 0", i)
		}
	}
	if st := c.Stats(); prepared.Load() != n || st.Prepared != n || st.Live != 1 {
		t.Errorf("stats %+v after %d concurrent misses, want %d prepared and 1 kept", st, n, n)
	}
	// Stress: lookups of a few keys from many goroutines at once.
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := string(rune('a' + (g+i)%6))
				if _, err := c.Get(key, func() (*PreparedScene, error) { return &PreparedScene{}, nil }); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if live := c.Stats().Live; live > 4 {
		t.Errorf("%d scenes cached past the capacity of 4", live)
	}
}
