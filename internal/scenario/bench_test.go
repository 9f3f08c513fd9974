package scenario

import (
	"testing"

	"insitu/internal/core"
	"insitu/internal/dpp"
)

// dispatchStep prepares backend name's runner on the kripke n=8 scene
// (registry lookup and scene preparation happen once, as they do for a
// real plan point, where one runner renders many frames) and returns the
// step: one frame through the backend's FrameRunner. The first call pays
// the one-time arena allocations; after it the pooled renderers keep the
// step at zero allocations.
func dispatchStep(tb testing.TB, name core.Renderer) func() {
	tb.Helper()
	backend, err := Lookup(name)
	if err != nil {
		tb.Fatal(err)
	}
	sc := simScene(tb, "kripke", 8, 32)
	if backend.NeedsStructured() && !sc.Structured() {
		tb.Skipf("%s needs a structured scene", name)
	}
	runner, err := backend.Prepare(sc)
	if err != nil {
		tb.Fatal(err)
	}
	var in core.Inputs
	return func() {
		if _, _, err := runner.RenderFrame(&in); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkScenarioDispatch measures the steady-state frame cost through
// the pluggable seam (dispatchStep) for every registered backend.
func BenchmarkScenarioDispatch(b *testing.B) {
	for _, name := range Names() {
		b.Run(string(name), func(b *testing.B) {
			step := dispatchStep(b, name)
			step() // warm frame: the timed loop measures the steady state
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
		})
	}
}

// TestZeroAlloc pins BenchmarkScenarioDispatch's steady state at 0
// allocs/op for every registered backend, after AllocsPerRun's own
// warm-up frame. 20 runs truncate the few one-off allocations a GC cycle
// left running by the warm-up can make to 0; one allocation per frame
// fails.
func TestZeroAlloc(t *testing.T) {
	if dpp.RaceEnabled {
		t.Skip("the race detector drops dpp's pooled launch descriptors, so launches allocate")
	}
	for _, name := range Names() {
		t.Run("ScenarioDispatch/"+string(name), func(t *testing.T) {
			if n := testing.AllocsPerRun(20, dispatchStep(t, name)); n != 0 {
				t.Errorf("%.0f allocs/op, want 0", n)
			}
		})
	}
}
