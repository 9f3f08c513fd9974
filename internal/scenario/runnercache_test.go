package scenario

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"insitu/internal/core"
	"insitu/internal/framebuffer"
	"insitu/internal/render"
)

// fakeRunner counts frames so tests can tell runners apart.
type fakeRunner struct{ id int }

func (r *fakeRunner) RenderFrame(in *core.Inputs) (time.Duration, *framebuffer.Image, error) {
	return time.Millisecond, nil, nil
}
func (r *fakeRunner) BuildSeconds() float64       { return 0 }
func (r *fakeRunner) SetCamera(cam render.Camera) {}

func TestRunnerCachePreparesOncePerKey(t *testing.T) {
	c := NewRunnerCache[string](4)
	defer c.Close()
	var prepared atomic.Int32
	acquire := func(key string) *RunnerLease[string] {
		l, err := c.Acquire(key, func(FrameRunner) (FrameRunner, func(), error) {
			return &fakeRunner{id: int(prepared.Add(1))}, nil, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	l1 := acquire("a")
	r1 := l1.Runner()
	l1.Release()
	l2 := acquire("a")
	if l2.Runner() != r1 {
		t.Error("second acquire prepared a fresh runner")
	}
	l2.Release()
	if got := prepared.Load(); got != 1 {
		t.Errorf("prepared %d times, want 1", got)
	}
	// Concurrent acquires of one key may prepare a runner each, but once
	// they are all released the key keeps one.
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l := acquire("b")
			time.Sleep(time.Millisecond)
			l.Release()
		}()
	}
	wg.Wait()
	if got := c.pools["b"].n; got != 1 {
		t.Errorf("key holds %d runners after the burst, want 1", got)
	}
}

func TestRunnerCacheEvictsIdleLRUAndCloses(t *testing.T) {
	c := NewRunnerCache[int](2)
	defer c.Close()
	closed := map[int]bool{}
	var mu sync.Mutex
	acquire := func(key int) {
		l, err := c.Acquire(key, func(FrameRunner) (FrameRunner, func(), error) {
			return &fakeRunner{id: key}, func() {
				mu.Lock()
				closed[key] = true
				mu.Unlock()
			}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		l.Release()
	}
	acquire(1)
	acquire(2)
	acquire(3) // over capacity: the least recently released (1) goes
	mu.Lock()
	defer mu.Unlock()
	if !closed[1] {
		t.Error("LRU idle runner not closed")
	}
	if closed[2] || closed[3] {
		t.Errorf("recently used runners closed: %v", closed)
	}
	if c.Len() != 2 {
		t.Errorf("len = %d, want 2", c.Len())
	}
}

func TestRunnerCachePrepareFailureNotCached(t *testing.T) {
	c := NewRunnerCache[string](2)
	defer c.Close()
	boom := errors.New("boom")
	calls := 0
	_, err := c.Acquire("k", func(FrameRunner) (FrameRunner, func(), error) {
		calls++
		return nil, nil, boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if c.Len() != 0 {
		t.Errorf("failed entry cached: len = %d", c.Len())
	}
	// The next acquire retries preparation.
	l, err := c.Acquire("k", func(FrameRunner) (FrameRunner, func(), error) {
		calls++
		return &fakeRunner{}, nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	l.Release()
	if calls != 2 {
		t.Errorf("prepare called %d times, want 2", calls)
	}
}

func TestRunnerCacheCloseRefusesAcquire(t *testing.T) {
	c := NewRunnerCache[string](2)
	var closes int
	l, err := c.Acquire("k", func(FrameRunner) (FrameRunner, func(), error) {
		return &fakeRunner{}, func() { closes++ }, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	l.Release()
	c.Close()
	if closes != 1 {
		t.Errorf("idle runner not closed on Close: %d", closes)
	}
	if _, err := c.Acquire("k", func(FrameRunner) (FrameRunner, func(), error) {
		return &fakeRunner{}, nil, nil
	}); err == nil {
		t.Error("Acquire after Close succeeded")
	}
}

// TestRunnerCacheSameKeyConcurrent: a key gets another runner only
// while all of its runners are leased, and its preparation is handed a
// runner of the key to fork. Two leases of one key are held at once on
// different runners, a later acquire gets the released runner, a key
// shrinks back to one runner once contention ends, and eviction closes
// idle extras before any key's last runner and unpinned last runners
// before pinned ones.
func TestRunnerCacheSameKeyConcurrent(t *testing.T) {
	var prepared atomic.Int32
	var mu sync.Mutex
	closed := map[int]bool{}
	var seeds []FrameRunner
	prepare := func(seed FrameRunner) (FrameRunner, func(), error) {
		mu.Lock()
		seeds = append(seeds, seed)
		mu.Unlock()
		r := &fakeRunner{id: int(prepared.Add(1))}
		return r, func() {
			mu.Lock()
			closed[r.id] = true
			mu.Unlock()
		}, nil
	}
	acquire := func(c *RunnerCache[string], key string) *RunnerLease[string] {
		l, err := c.Acquire(key, prepare)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}

	c := NewRunnerCache[string](8)
	defer c.Close()
	l1, l2 := acquire(c, "a"), acquire(c, "a")
	if l1.Runner() == l2.Runner() {
		t.Fatal("two concurrent leases share one runner")
	}
	if seeds[0] != nil || seeds[1] != l1.Runner() {
		t.Errorf("seeds %v, want none for the key's first runner and the leased one for its second", seeds)
	}
	r1 := l1.Runner()
	l1.Release()
	l3 := acquire(c, "a")
	if l3.Runner() != r1 {
		t.Error("an acquire prepared a runner while one of the key's was idle")
	}
	if got := prepared.Load(); got != 2 {
		t.Errorf("prepared %d runners, want 2", got)
	}
	l2.Release()
	l3.Release()
	if st := c.Stats(); st.Live != 1 || st.Evicted != 1 {
		t.Errorf("after contention: %+v, want the key back to 1 runner, 1 closed", st)
	}

	// Stress: many goroutines on one key never share a runner.
	var wg sync.WaitGroup
	inUse := map[FrameRunner]bool{}
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				l, err := c.Acquire("a", prepare)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				if inUse[l.Runner()] {
					t.Error("one runner leased twice at once")
				}
				inUse[l.Runner()] = true
				mu.Unlock()
				mu.Lock()
				delete(inUse, l.Runner())
				mu.Unlock()
				l.Release()
			}
		}()
	}
	wg.Wait()
	if live := c.Stats().Live; live != 1 {
		t.Errorf("live = %d runners after the stress, want 1", live)
	}

	// Eviction order, cap 2: key "b" is released first (the LRU), then
	// "a"'s two runners. Over capacity, an extra of "a" goes, not b.
	e := NewRunnerCache[string](2)
	defer e.Close()
	mu.Lock()
	clear(closed)
	mu.Unlock()
	prepared.Store(100)
	lb := acquire(e, "b")
	rb := lb.Runner().(*fakeRunner).id
	lb.Release()
	la1, la2 := acquire(e, "a"), acquire(e, "a")
	la1.Release()
	la2.Release()
	mu.Lock()
	if closed[rb] {
		t.Error("a key's last runner was evicted before another key's extra")
	}
	nClosed := len(closed)
	mu.Unlock()
	if nClosed != 1 || e.Len() != 2 {
		t.Errorf("closed %d runners, %d live; want 1 extra closed, 2 live", nClosed, e.Len())
	}
	// Now "a" and "b" each have one runner. Pin "b", then bring in "c":
	// the unpinned "a" goes even though "b" is older.
	e.Pin("b")
	acquire(e, "c").Release()
	mu.Lock()
	if closed[rb] {
		t.Error("a pinned key's last runner was evicted before an unpinned one")
	}
	if len(closed) != 2 {
		t.Errorf("closed %d runners, want 2", len(closed))
	}
	mu.Unlock()
	if st := e.Stats(); st.Evicted != 2 || st.EvictedPinned != 0 || st.Live != 2 {
		t.Errorf("stats %+v, want 2 evicted, none pinned, 2 live", st)
	}
}
