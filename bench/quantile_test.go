package main

import (
	"math"
	"testing"
	"time"
)

func TestQuantileIsNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100 … 1, unsorted on purpose
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 50}, {0.95, 95}, {0.99, 99}, {1, 100}, {0, 1}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(1..100, %g) = %g, want %g", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of no samples = %g, want 0", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median(3,1,2) = %g, want 2", got)
	}
}

// The reported tail must leave at least ten samples beyond it.
func TestTailPercentKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 50}, {19, 50}, {20, 50}, {40, 75}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {10000, 99.9}} {
		got := tailPercent(c.n)
		if got != c.want {
			t.Errorf("tailPercent(%d) = %g, want %g", c.n, got, c.want)
		}
		if beyond := math.Round(float64(c.n) * (100 - got) / 100); c.n >= 20 && beyond < 10 {
			t.Errorf("tailPercent(%d) = %g leaves %.0f samples beyond it", c.n, got, beyond)
		}
	}
}

func TestRateIsEventsOverTheirSpan(t *testing.T) {
	if got := rate([]float64{2.5, 0.5, 1.5}); got != 1 {
		t.Errorf("rate of 3 events 1 s apart = %g, want 1", got)
	}
	if got := rate([]float64{1}); got != 0 {
		t.Errorf("rate of one event = %g, want 0", got)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := newTracer()
	root := tr.begin("request", -1, 0)
	child := tr.begin("serve.Render", root, 0)
	tr.end(child)
	tr.end(root)
	tr.spans[root].dur, tr.spans[child].dur = 10*time.Millisecond, 7*time.Millisecond
	self := tr.selfTimes()
	if self[root] != 3*time.Millisecond || self[child] != 7*time.Millisecond {
		t.Errorf("self times %v, want [3ms 7ms]", self)
	}
	var none *tracer
	if sp := none.begin("x", -1, 0); sp != -1 {
		t.Errorf("nil tracer returned span %d", sp)
	}
	none.end(-1) // must not panic
}
