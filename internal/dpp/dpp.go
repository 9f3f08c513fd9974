// Package dpp implements the data-parallel primitives the paper's
// renderers are built from: map, gather, scatter, reduce, scan, stream
// compaction, and key/value radix sort (Blelloch's vector model, the
// vocabulary of EAVL and VTK-m). Every primitive executes on a
// device.Device worker pool, so one algorithm runs unchanged on every
// simulated architecture profile.
//
// Launches are dispatched to the device's persistent worker pool: a
// launch wakes parked goroutines instead of spawning new ones, chunk
// geometry is computed arithmetically (no per-launch bounds allocation),
// and the launch descriptor itself is recycled through a sync.Pool. A
// steady-state For costs a few channel handoffs and zero heap
// allocations, which keeps the harness overhead out of the measured
// per-frame times the performance model is fitted against.
package dpp

import (
	"sync"
	"sync/atomic"
	"time"

	"insitu/internal/device"
)

// chunking is the chunk geometry of one launch: n items split into num
// chunks of size chunk (the last possibly short). It replaces the
// chunk-bounds slice the launcher used to allocate per launch; bounds are
// derived arithmetically instead.
type chunking struct {
	n, chunk, num int
}

// chunksFor splits n items into contiguous chunks compatible with the
// device's grain. The geometry depends only on (Workers, Grain, n), never
// on runtime scheduling, so chunk-ordered reductions stay deterministic
// for a fixed device profile.
func chunksFor(d *device.Device, n int) chunking {
	if n <= 0 {
		return chunking{}
	}
	workers := d.Workers
	if workers < 1 {
		workers = 1
	}
	grain := d.Grain
	if grain < 1 {
		grain = 1
	}
	// Aim for a few chunks per worker so dynamic scheduling can balance
	// irregular work, without dropping below the grain size.
	chunk := (n + workers*4 - 1) / (workers * 4)
	if chunk < grain {
		chunk = grain
	}
	num := (n + chunk - 1) / chunk
	return chunking{n: n, chunk: chunk, num: num}
}

// bounds returns the half-open item range of chunk i.
func (c chunking) bounds(i int) (lo, hi int) {
	lo = i * c.chunk
	hi = lo + c.chunk
	if hi > c.n {
		hi = c.n
	}
	return lo, hi
}

// launch is one in-flight parallel-for. It satisfies device.Runnable:
// every participant (the launcher plus each woken pool worker) calls
// runChunks, grabbing chunk indices from the shared atomic counter until
// the launch is exhausted. Launches are recycled through launchPool so
// the steady-state dispatch path performs no heap allocation.
type launch struct {
	body  func(lo, hi int)
	bodyW func(worker, lo, hi int)
	ch    chunking
	next  atomic.Int64
	slots atomic.Int64
	wg    sync.WaitGroup
	stats *device.Stats
}

var launchPool = sync.Pool{New: func() any { return new(launch) }}

// Run is the pool-worker entry: execute chunks, account the wake.
func (l *launch) Run() {
	start := time.Now()
	l.runChunks()
	if l.stats != nil {
		l.stats.AddBusy(time.Since(start))
		l.stats.AddWake()
	}
	l.wg.Done()
}

func (l *launch) runChunks() {
	slot := 0
	if l.bodyW != nil {
		slot = int(l.slots.Add(1)) - 1
	}
	for {
		c := int(l.next.Add(1)) - 1
		if c >= l.ch.num {
			return
		}
		lo, hi := l.ch.bounds(c)
		if l.bodyW != nil {
			l.bodyW(slot, lo, hi)
		} else {
			l.body(lo, hi)
		}
	}
}

// For executes body over [0, n) in parallel chunks. body receives
// half-open ranges and must be safe to run concurrently with itself on
// disjoint ranges. Chunks are scheduled dynamically so irregular per-item
// cost (long rays, dense cells) balances across workers. The launching
// goroutine always participates; a launch on a multi-worker device wakes
// parked pool workers rather than spawning goroutines, so concurrent
// launches on a shared device are safe and simply share the pool.
func For(d *device.Device, n int, body func(lo, hi int)) {
	forLaunch(d, n, body, nil)
}

// ForWorker is For with a stable per-participant slot id in [0, Workers)
// passed to the body, so kernels can index pre-allocated per-worker
// scratch (packet buffers, histograms) without allocation or false
// sharing. Slots are assigned per launch: the same goroutine may get a
// different slot on the next launch.
func ForWorker(d *device.Device, n int, body func(worker, lo, hi int)) {
	forLaunch(d, n, nil, body)
}

func forLaunch(d *device.Device, n int, body func(lo, hi int), bodyW func(worker, lo, hi int)) {
	ch := chunksFor(d, n)
	if ch.num == 0 {
		return
	}
	stats := d.Stats
	if stats != nil {
		stats.AddLaunch()
		stats.AddItems(int64(n))
	}
	if ch.num == 1 || d.Workers <= 1 {
		start := time.Now()
		if bodyW != nil {
			bodyW(0, 0, n)
		} else {
			body(0, n)
		}
		if stats != nil {
			stats.AddBusy(time.Since(start))
		}
		return
	}

	l := launchPool.Get().(*launch)
	l.body, l.bodyW, l.ch, l.stats = body, bodyW, ch, stats
	l.next.Store(0)
	l.slots.Store(0)

	want := d.Workers
	if want > ch.num {
		want = ch.num
	}
	if p := d.Pool(); p != nil && want > 1 {
		// Reserve the maximum wakes up front so a woken worker can never
		// Done before its Add, then return the unused reservations.
		k := want - 1
		l.wg.Add(k)
		woken := p.TryWake(l, k)
		if woken < k {
			l.wg.Add(woken - k)
		}
	}
	start := time.Now()
	l.runChunks()
	if stats != nil {
		stats.AddBusy(time.Since(start))
	}
	l.wg.Wait()

	l.body, l.bodyW, l.stats = nil, nil, nil
	launchPool.Put(l)
}

// ForEach executes f once per index in [0, n), in parallel.
func ForEach(d *device.Device, n int, f func(i int)) {
	For(d, n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			f(i)
		}
	})
}

// Reduce combines all elements of in with an associative op starting from
// the identity id. Chunk partials are combined in chunk order, so
// floating-point results are deterministic for a fixed device geometry.
func Reduce[T any](d *device.Device, in []T, id T, op func(a, b T) T) T {
	ch := chunksFor(d, len(in))
	if ch.num == 0 {
		return id
	}
	partials := make([]T, ch.num)
	For(d, ch.num, func(clo, chi int) {
		for c := clo; c < chi; c++ {
			lo, hi := ch.bounds(c)
			acc := id
			for i := lo; i < hi; i++ {
				acc = op(acc, in[i])
			}
			partials[c] = acc
		}
	})
	acc := id
	for _, p := range partials {
		acc = op(acc, p)
	}
	return acc
}
