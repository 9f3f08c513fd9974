// Package device models the execution targets the paper calls
// "architectures". The paper's premise is that one data-parallel
// implementation runs on CPUs, GPUs, and many-core co-processors, with the
// architectural differences absorbed by per-architecture model
// coefficients. This sandbox has no GPU, so each architecture is simulated
// by a device profile: a worker-pool configuration (worker count and
// scheduling grain) that executes the identical data-parallel primitives.
// Vector units are the host's, not the profile's: the render kernels take
// their AVX2 packet paths wherever HasAVX2 reports them, on every profile. Per-profile coefficients are then
// fitted exactly as the paper fits per-architecture coefficients.
package device

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Device describes one execution target for the data-parallel engine.
type Device struct {
	// Name identifies the profile in study output and fitted models.
	Name string
	// Workers is the number of concurrent workers used by parallel
	// primitives. Values above runtime.NumCPU model oversubscribed,
	// massively threaded targets.
	Workers int
	// Grain is the minimum number of items per scheduled chunk.
	Grain int
	// Stats, when non-nil, accumulates occupancy instrumentation.
	Stats *Stats

	// pool is the lazily started persistent worker gang (see Pool).
	// Devices are shared by pointer; copying an initialized Device would
	// share the pool, so treat Device values as handles, not data.
	poolOnce sync.Once
	pool     *Pool
}

// New returns a device with sensible defaults for the given worker count.
func New(name string, workers int) *Device {
	if workers < 1 {
		workers = 1
	}
	return &Device{Name: name, Workers: workers, Grain: 256}
}

// Serial returns a single-worker device.
func Serial() *Device { return New("serial", 1) }

// CPU returns a device using every hardware thread.
func CPU() *Device { return New("cpu", runtime.NumCPU()) }

// Profiles returns fresh copies of the named device profiles used by the
// study. The mapping to the paper's architectures is documented in
// DESIGN.md; "bigiron" is held out of the main study and plays the role of
// the leading-edge machine in the Table 15 experiment.
func Profiles() map[string]*Device {
	n := runtime.NumCPU()
	mk := func(name string, workers, grain int) *Device {
		return &Device{Name: name, Workers: workers, Grain: grain}
	}
	return map[string]*Device{
		"serial":  mk("serial", 1, 1024),
		"cpu":     mk("cpu", n, 512),
		"gpu":     mk("gpu", 4*n, 64),
		"mic":     mk("mic", 2*n, 128),
		"bigiron": mk("bigiron", 3*n, 96),
	}
}

// Profile returns a fresh copy of a named profile.
func Profile(name string) (*Device, error) {
	d, ok := Profiles()[name]
	if !ok {
		return nil, fmt.Errorf("device: unknown profile %q (have %v)", name, ProfileNames())
	}
	return d, nil
}

// ProfileNames returns the sorted list of known profile names.
func ProfileNames() []string {
	m := Profiles()
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// Stats accumulates execution instrumentation across parallel launches. It
// is the substitute for the paper's PAPI and nvprof counters: wall-clock
// busy time, items processed, and launch counts give the occupancy and
// throughput ("IPC analogue") figures reported in Tables 6 and 7.
//
// Under the pooled execution model, busy time is recorded per wake: each
// pool worker that accepts a launch measures the span from accepting it
// to finishing its last chunk, and the launching goroutine measures its
// own participation the same way. Park time never counts as busy, so
// occupancy reflects useful work, not resident goroutines.
type Stats struct {
	busyNS   atomic.Int64
	items    atomic.Int64
	launches atomic.Int64
	wakes    atomic.Int64
}

// AddBusy records ns of worker busy time (one wake's or one launcher's
// span of chunk execution).
//
//insitu:noalloc
func (s *Stats) AddBusy(d time.Duration) { s.busyNS.Add(int64(d)) }

// AddItems records processed work items.
//
//insitu:noalloc
func (s *Stats) AddItems(n int64) { s.items.Add(n) }

// AddLaunch records one parallel launch.
//
//insitu:noalloc
func (s *Stats) AddLaunch() { s.launches.Add(1) }

// AddWake records one pool worker accepting a launch. The launching
// goroutine's own participation is not a wake.
//
//insitu:noalloc
func (s *Stats) AddWake() { s.wakes.Add(1) }

// Busy returns the accumulated worker busy time.
func (s *Stats) Busy() time.Duration { return time.Duration(s.busyNS.Load()) }

// Items returns the accumulated item count.
func (s *Stats) Items() int64 { return s.items.Load() }

// Launches returns the number of parallel launches.
func (s *Stats) Launches() int64 { return s.launches.Load() }

// Wakes returns the number of pool-worker wakes across all launches.
// Wakes/Launches approximates the average helper count per launch; it can
// be below Workers-1 when launches are small or the pool is contended.
func (s *Stats) Wakes() int64 { return s.wakes.Load() }

// Reset zeroes all counters.
func (s *Stats) Reset() {
	s.busyNS.Store(0)
	s.items.Store(0)
	s.launches.Store(0)
	s.wakes.Store(0)
}

// Occupancy is busy time divided by the wall-clock capacity of the device
// (wall * workers), clipped to [0,1]. It is the analogue of nvprof's
// achieved occupancy.
func (s *Stats) Occupancy(wall time.Duration, workers int) float64 {
	if wall <= 0 || workers <= 0 {
		return 0
	}
	occ := float64(s.busyNS.Load()) / (float64(wall) * float64(workers))
	if occ > 1 {
		occ = 1
	}
	if occ < 0 {
		occ = 0
	}
	return occ
}

// Throughput returns items per microsecond of busy time, the study's
// substitute for instructions-per-cycle.
func (s *Stats) Throughput() float64 {
	busy := float64(s.busyNS.Load())
	if busy == 0 {
		return 0
	}
	return float64(s.items.Load()) / (busy / 1e3)
}

// HasAVX2 reports whether this host can run the AVX2 packet kernels:
// the CPU has AVX2 and the OS saves its YMM state. It is false off
// amd64. The render kernels read it once per frame to pick their path.
func HasAVX2() bool { return hasAVX2 }
