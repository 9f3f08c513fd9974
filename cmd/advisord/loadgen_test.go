package main

import (
	"strings"
	"testing"
	"time"
)

// TestLoadgenInProcess runs -loadgen against the in-process server over
// the test registry for a short window: every request answers, and the
// report carries the sustained rate and the latency percentiles.
func TestLoadgenInProcess(t *testing.T) {
	path, _, _ := studyRegistry(t)
	rep, err := runLoadgen("", path, false, 256, 300*time.Millisecond, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.failed != 0 || rep.ok == 0 {
		t.Fatalf("loadgen: %d ok, %d failed, want >0 ok and none failed", rep.ok, rep.failed)
	}
	out := rep.String()
	for _, want := range []string{"sustained", "p99"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}
