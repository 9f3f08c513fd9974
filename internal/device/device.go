// Package device describes the execution profiles the data-parallel
// primitives and render kernels run on. The paper fits one set of model
// coefficients per architecture; here an architecture is a profile, a
// pair (kernel set, workers) that executes differently on the host (see
// Profiles). The host kernel set takes the AVX2 packet kernels of BVH
// primary-ray traversal, ray generation and shading, and structured
// volume sampling wherever HasAVX2 reports them; the scalar set runs
// their scalar loops. Both produce the same pixels.
package device

import (
	"fmt"
	"maps"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Device describes one execution target for the data-parallel engine.
type Device struct {
	// Name identifies the profile in study output and fitted models.
	Name string
	// Workers is the number of concurrent workers used by parallel
	// primitives.
	Workers int
	// Grain is the minimum number of items per scheduled chunk.
	Grain int
	// Scalar turns the render kernels' AVX2 packet paths off: the ray
	// tracer and the structured volume renderer read it once per frame
	// and run their scalar loops, with the same results.
	Scalar bool
	// Stats, when non-nil, accumulates occupancy instrumentation.
	Stats *Stats

	// pool is the lazily started persistent worker gang (see Pool).
	// Devices are shared by pointer; copying an initialized Device would
	// share the pool, so treat Device values as handles, not data.
	poolOnce sync.Once
	pool     *Pool
	closed   atomic.Bool
}

// New returns a device with sensible defaults for the given worker count.
func New(name string, workers int) *Device {
	if workers < 1 {
		workers = 1
	}
	return &Device{Name: name, Workers: workers, Grain: 256}
}

// Serial returns a fresh copy of the serial profile.
func Serial() *Device { return Profiles()["serial"] }

// CPU returns a fresh copy of the cpu profile, which uses every hardware
// thread.
func CPU() *Device { return Profiles()["cpu"] }

// Profiles returns fresh copies of the named device profiles: serial
// and cpu run the host's kernels on 1 and NumCPU workers, cpu-scalar the
// scalar loops on cpu's workers. The study measures serial and cpu;
// cpu-scalar is the held-out kernel set of the Table 15 experiment. A
// profile is added only with a measurement showing that its cost per
// unit of work differs from the others' on some host.
func Profiles() map[string]*Device {
	n := runtime.NumCPU()
	return map[string]*Device{
		"serial":     {Name: "serial", Workers: 1, Grain: 1024},
		"cpu":        {Name: "cpu", Workers: n, Grain: 512},
		"cpu-scalar": {Name: "cpu-scalar", Workers: n, Grain: 512, Scalar: true},
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
func ProfileNames() []string { return slices.Sorted(maps.Keys(Profiles())) }

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
func (s *Stats) AddBusy(d time.Duration) { s.busyNS.Add(int64(d)) }

// AddItems records processed work items.
func (s *Stats) AddItems(n int64) { s.items.Add(n) }

// AddLaunch records one parallel launch.
func (s *Stats) AddLaunch() { s.launches.Add(1) }

// AddWake records one pool worker accepting a launch. The launching
// goroutine's own participation is not a wake.
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
