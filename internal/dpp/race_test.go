package dpp

import (
	"sync"
	"testing"

	"insitu/internal/device"
)

// TestConcurrentForSharedDevice hammers one shared device pool with
// concurrent launches from many goroutines — the contention pattern of a
// parallel study runner sharing renderer devices — and checks every
// launch still covers its index space exactly once. Run under -race via
// `make race` / `make ci`, this is the pool's data-race certificate.
func TestConcurrentForSharedDevice(t *testing.T) {
	d := device.New("shared", 4)
	d.Grain = 8
	d.Stats = &device.Stats{}
	defer d.Close()

	const goroutines = 6
	const launches = 25
	const n = 2048

	var wg sync.WaitGroup
	results := make([][]int32, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			out := make([]int32, n)
			for l := 0; l < launches; l++ {
				For(d, n, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						out[i]++
					}
				})
			}
			results[g] = out
		}(g)
	}
	wg.Wait()
	for g, out := range results {
		for i, c := range out {
			if c != launches {
				t.Fatalf("goroutine %d index %d visited %d times, want %d", g, i, c, launches)
			}
		}
	}
	if got := d.Stats.Launches(); got != goroutines*launches {
		t.Errorf("launches = %d, want %d", got, goroutines*launches)
	}
}

// TestConcurrentCompactors runs per-goroutine Compactors against one
// shared device, mirroring how each renderer arena owns a compactor but
// shares the device pool.
func TestConcurrentCompactors(t *testing.T) {
	d := device.New("shared", 3)
	d.Grain = 4
	defer d.Close()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var c Compactor
			c.Init(d)
			flags := make([]bool, 1500)
			for i := range flags {
				flags[i] = (i+g)%3 == 0
			}
			for l := 0; l < 10; l++ {
				idx := c.CompactIndices(flags)
				want := 0
				for i, f := range flags {
					if f {
						if idx[want] != int32(i) {
							t.Errorf("goroutine %d: idx[%d] = %d, want %d", g, want, idx[want], i)
							return
						}
						want++
					}
				}
				if len(idx) != want {
					t.Errorf("goroutine %d: len = %d, want %d", g, len(idx), want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestForWorkerSlots checks ForWorker hands every participant a distinct
// slot below Workers, the invariant per-worker scratch indexing relies on.
func TestForWorkerSlots(t *testing.T) {
	d := device.New("slots", 5)
	d.Grain = 1
	defer d.Close()
	n := 500
	hits := make([]int32, n)
	slotSeen := make([]int32, d.Workers)
	var mu sync.Mutex
	ForWorker(d, n, func(w, lo, hi int) {
		if w < 0 || w >= d.Workers {
			t.Errorf("slot %d out of range [0,%d)", w, d.Workers)
		}
		mu.Lock()
		slotSeen[w]++
		mu.Unlock()
		for i := lo; i < hi; i++ {
			hits[i]++
		}
	})
	for i, c := range hits {
		if c != 1 {
			t.Fatalf("index %d visited %d times", i, c)
		}
	}
}

// TestStatsWakesPooled pins the pooled occupancy accounting: wakes count
// pool workers accepting a launch (never the launching goroutine), busy
// time accumulates per wake, and serial devices never wake anything.
func TestStatsWakesPooled(t *testing.T) {
	d := device.New("pooled", 4)
	d.Grain = 1
	d.Stats = &device.Stats{}
	defer d.Close()

	const launches = 8
	for l := 0; l < launches; l++ {
		For(d, 10000, func(lo, hi int) {
			s := 0
			for i := lo; i < hi; i++ {
				s += i
			}
			_ = s
		})
	}
	if got := d.Stats.Launches(); got != launches {
		t.Errorf("launches = %d, want %d", got, launches)
	}
	if w := d.Stats.Wakes(); w < 0 || w > int64(launches*(d.Workers-1)) {
		t.Errorf("wakes = %d, want within [0, %d]", w, launches*(d.Workers-1))
	}
	if d.Stats.Busy() <= 0 {
		t.Error("busy time not accumulated")
	}
	if d.Stats.Items() != launches*10000 {
		t.Errorf("items = %d", d.Stats.Items())
	}

	serial := device.Serial()
	serial.Stats = &device.Stats{}
	For(serial, 5000, func(lo, hi int) {})
	if serial.Stats.Wakes() != 0 {
		t.Errorf("serial device recorded %d wakes", serial.Stats.Wakes())
	}
	if serial.Stats.Launches() != 1 || serial.Stats.Busy() < 0 {
		t.Error("serial stats wrong")
	}
}

// TestCloseFallsBackToInline verifies a closed device still executes
// launches correctly (on the calling goroutine) and stops accumulating
// wakes.
func TestCloseFallsBackToInline(t *testing.T) {
	d := device.New("closed", 4)
	d.Grain = 1
	d.Stats = &device.Stats{}
	For(d, 100, func(lo, hi int) {}) // spin the pool up
	d.Close()
	base := d.Stats.Wakes()

	out := make([]int32, 3000)
	For(d, len(out), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i]++
		}
	})
	for i, c := range out {
		if c != 1 {
			t.Fatalf("index %d visited %d times after Close", i, c)
		}
	}
	if w := d.Stats.Wakes(); w != base {
		t.Errorf("wakes grew after Close: %d -> %d", base, w)
	}
	d.Close() // idempotent
}
