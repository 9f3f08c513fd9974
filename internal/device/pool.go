package device

import (
	"runtime"
	"sync"
)

// Runnable is one unit of pool work. The data-parallel layer hands the
// pool a launch object; every woken worker calls Run, which grabs chunks
// until the launch is exhausted.
type Runnable interface{ Run() }

// Pool is a persistent gang of parked worker goroutines — the device's
// standing compute resource. Workers block on an unbuffered dispatch
// channel, so waking one costs a channel handoff instead of a goroutine
// spawn, and an idle pool consumes no CPU. Launch-grained work is
// distributed by the Runnable itself (an atomic chunk counter), so the
// pool stays scheduling-agnostic.
type Pool struct {
	work      chan Runnable
	stop      chan struct{}
	closeOnce sync.Once
	workers   int
}

func newPool(workers int) *Pool {
	p := &Pool{
		work:    make(chan Runnable),
		stop:    make(chan struct{}),
		workers: workers,
	}
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

func (p *Pool) worker() {
	for {
		select {
		case <-p.stop:
			return
		case r := <-p.work:
			r.Run()
		}
	}
}

// Workers returns the number of goroutines the pool was started with.
func (p *Pool) Workers() int { return p.workers }

// TryWake offers r to up to k parked workers without blocking and returns
// how many accepted. Only workers actually parked on the dispatch channel
// are woken — workers busy with another launch are skipped, so concurrent
// launches on a shared device degrade to fewer helpers instead of
// queueing behind each other. The caller must arrange (before calling)
// for every accepted worker's Run to be awaited.
func (p *Pool) TryWake(r Runnable, k int) int {
	select {
	case <-p.stop:
		// Closed pools wake nobody, deterministically — lingering workers
		// that have not observed stop yet must not accept new launches.
		return 0
	default:
	}
	woken := 0
	for i := 0; i < k; i++ {
		select {
		case p.work <- r:
			woken++
		default:
			return woken
		}
	}
	return woken
}

// Close parks the pool permanently: workers exit after finishing any
// launch they already accepted. Close is idempotent and safe to call
// concurrently with launches — wakes attempted after Close find no
// parked workers and the launcher runs the work itself.
func (p *Pool) Close() {
	p.closeOnce.Do(func() { close(p.stop) })
}

// Pool returns the device's persistent worker pool, starting it on first
// use. Devices with a single worker (or fewer) have no pool and return
// nil — launches run inline. The pool holds Workers-1 goroutines because
// the launching goroutine always participates in its own launch.
//
// A finalizer closes the pool when the device is garbage collected, so
// short-lived devices (the study creates one per measured configuration)
// do not leak parked goroutines; callers that churn through many devices
// should still call Close promptly.
func (d *Device) Pool() *Pool {
	// Once-per-device init; steady-state calls only read d.pool.
	d.poolOnce.Do(func() {
		if d.Workers > 1 {
			d.pool = newPool(d.Workers - 1)
			runtime.SetFinalizer(d, (*Device).Close)
		}
	})
	return d.pool
}

// Close releases the device's worker pool, if one was started. The device
// remains usable afterwards: launches simply run on the calling
// goroutine. Close is idempotent.
func (d *Device) Close() {
	d.closed.Store(true)
	if d.pool != nil {
		d.pool.Close()
	}
}

// Closed reports whether Close has been called: whoever opened the
// device has released it.
func (d *Device) Closed() bool { return d.closed.Load() }
