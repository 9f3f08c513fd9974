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
		l, err := c.Acquire(key, func() (FrameRunner, func(), error) {
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
	// Concurrent acquires of one key serialize on the lease and still
	// prepare exactly once.
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
	if got := prepared.Load(); got != 2 {
		t.Errorf("prepared %d times, want 2", got)
	}
}

func TestRunnerCacheEvictsIdleLRUAndCloses(t *testing.T) {
	c := NewRunnerCache[int](2)
	defer c.Close()
	closed := map[int]bool{}
	var mu sync.Mutex
	acquire := func(key int) {
		l, err := c.Acquire(key, func() (FrameRunner, func(), error) {
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
	_, err := c.Acquire("k", func() (FrameRunner, func(), error) {
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
	l, err := c.Acquire("k", func() (FrameRunner, func(), error) {
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
	l, err := c.Acquire("k", func() (FrameRunner, func(), error) {
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
	if _, err := c.Acquire("k", func() (FrameRunner, func(), error) {
		return &fakeRunner{}, nil, nil
	}); err == nil {
		t.Error("Acquire after Close succeeded")
	}
}
