package device

import (
	"runtime"
	"slices"
	"testing"
	"time"
)

func TestProfilesAreFreshCopies(t *testing.T) {
	a, err := Profile("cpu")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Profile("cpu")
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Error("Profile should return fresh copies")
	}
	a.Workers = 999
	if b.Workers == 999 {
		t.Error("profiles share state")
	}
}

func TestUnknownProfile(t *testing.T) {
	if _, err := Profile("cray-1"); err == nil {
		t.Error("expected unknown-profile error")
	}
}

func TestProfileNamesSortedAndComplete(t *testing.T) {
	names := ProfileNames()
	if len(names) != len(Profiles()) {
		t.Errorf("names = %v", names)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Errorf("names not sorted: %v", names)
		}
	}
}

// TestProfileConfigurations pins each profile's (kernel set, workers,
// grain): serial and cpu run the host's kernels, cpu-scalar the scalar
// loops on cpu's workers. Serial() and CPU() are their profiles.
func TestProfileConfigurations(t *testing.T) {
	type config struct {
		workers, grain int
		scalar         bool
	}
	n := runtime.NumCPU()
	want := map[string]config{"cpu": {n, 512, false}, "cpu-scalar": {n, 512, true}, "serial": {1, 1024, false}}
	if got := ProfileNames(); !slices.Equal(got, []string{"cpu", "cpu-scalar", "serial"}) {
		t.Fatalf("profiles = %v", got)
	}
	for name, w := range want {
		d, err := Profile(name)
		if err != nil {
			t.Fatal(err)
		}
		if got := (config{d.Workers, d.Grain, d.Scalar}); d.Name != name || got != w {
			t.Errorf("%s: %s %+v, want %+v", name, d.Name, got, w)
		}
	}
	for name, d := range map[string]*Device{"serial": Serial(), "cpu": CPU()} {
		if got := (config{d.Workers, d.Grain, d.Scalar}); d.Name != name || got != want[name] {
			t.Errorf("%s(): %s %+v, want %+v", name, d.Name, got, want[name])
		}
	}
}

func TestNewClampsWorkers(t *testing.T) {
	d := New("x", 0)
	if d.Workers != 1 {
		t.Errorf("workers = %d", d.Workers)
	}
}

func TestStatsAccounting(t *testing.T) {
	var s Stats
	s.AddBusy(100 * time.Millisecond)
	s.AddItems(500)
	s.AddLaunch()
	if s.Busy() != 100*time.Millisecond || s.Items() != 500 || s.Launches() != 1 {
		t.Error("counters wrong")
	}
	// Occupancy: 100ms busy over 100ms wall with 2 workers = 50%.
	if occ := s.Occupancy(100*time.Millisecond, 2); occ != 0.5 {
		t.Errorf("occupancy = %v", occ)
	}
	// Clipped to [0,1].
	if occ := s.Occupancy(10*time.Millisecond, 1); occ != 1 {
		t.Errorf("occupancy should clip to 1, got %v", occ)
	}
	if s.Occupancy(0, 2) != 0 {
		t.Error("zero wall should give 0")
	}
	// Throughput: 500 items / 100000 us busy.
	if th := s.Throughput(); th != 500.0/1e5 {
		t.Errorf("throughput = %v", th)
	}
	s.Reset()
	if s.Items() != 0 || s.Busy() != 0 || s.Launches() != 0 {
		t.Error("reset failed")
	}
	if s.Throughput() != 0 {
		t.Error("zero-busy throughput should be 0")
	}
}
