package study

import (
	"context"
	"encoding/json"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"insitu/internal/core"
)

// fakeExec is a deterministic, pure executor: the row is a function of
// the configuration alone, so sequential and parallel runs must agree
// byte for byte.
func fakeExec(cfg Config) (Row, error) {
	s := core.Sample{
		Arch:     cfg.Arch,
		Renderer: cfg.Renderer,
		In:       Inputs0(cfg),
	}
	s.In.O = float64(12 * cfg.N * cfg.N)
	s.In.AP = float64(cfg.ImageSize*cfg.ImageSize) / 2
	s.RenderTime = 1e-6 * float64(cfg.N) * float64(cfg.ImageSize)
	if cfg.Tasks > 1 {
		s.CompositeTime = 1e-7 * float64(cfg.ImageSize*cfg.ImageSize)
	}
	return Row{Config: cfg, Sample: s}, nil
}

// TestParallelMatchesSequentialByteIdentical is the determinism contract:
// for the same plan and executor, the parallel runner returns rows that
// are byte-identical (content and ordering) to the sequential runner's,
// regardless of completion order. Run under -race via the Makefile's race
// target.
func TestParallelMatchesSequentialByteIdentical(t *testing.T) {
	plan := Plan(true)
	if len(plan) < 16 {
		t.Fatalf("short plan too small (%d) to exercise concurrency", len(plan))
	}
	seq, err := RunContext(context.Background(), plan, Options{Workers: 1, Exec: fakeExec})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 16} {
		par, err := RunContext(context.Background(), plan, Options{Workers: workers, Exec: fakeExec})
		if err != nil {
			t.Fatal(err)
		}
		seqJSON, err := json.Marshal(seq)
		if err != nil {
			t.Fatal(err)
		}
		parJSON, err := json.Marshal(par)
		if err != nil {
			t.Fatal(err)
		}
		if string(seqJSON) != string(parJSON) {
			t.Fatalf("workers=%d: parallel rows differ from sequential rows", workers)
		}
	}
}

// TestRunnerStreamsSerializedProgress: every completion is streamed
// exactly once, Done counts monotonically, and callbacks never overlap
// (the runner serializes them, so the callback needs no locking).
func TestRunnerStreamsSerializedProgress(t *testing.T) {
	plan := Plan(true)[:24]
	var (
		seen     = map[int]bool{}
		lastDone int
		inCb     atomic.Int32
	)
	_, err := RunContext(context.Background(), plan, Options{
		Workers: 8,
		Exec:    fakeExec,
		Progress: func(p Progress) {
			if inCb.Add(1) != 1 {
				t.Error("progress callbacks overlap")
			}
			defer inCb.Add(-1)
			if seen[p.Index] {
				t.Errorf("index %d streamed twice", p.Index)
			}
			seen[p.Index] = true
			if p.Done != lastDone+1 || p.Total != len(plan) {
				t.Errorf("done=%d (last %d) total=%d", p.Done, lastDone, p.Total)
			}
			lastDone = p.Done
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(plan) {
		t.Errorf("streamed %d of %d rows", len(seen), len(plan))
	}
}

// TestRunnerCancellation: cancelling the context stops the run promptly
// and reports the context error; configurations never started stay
// unexecuted.
func TestRunnerCancellation(t *testing.T) {
	plan := make([]Config, 64)
	for i := range plan {
		plan[i] = Config{Arch: "cpu", Renderer: core.RayTrace, Sim: "kripke", Tasks: 1, ImageSize: 32, N: 8}
	}
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int32
	_, err := RunContext(ctx, plan, Options{
		Workers: 2,
		Exec: func(cfg Config) (Row, error) {
			if started.Add(1) == 3 {
				cancel()
			}
			time.Sleep(time.Millisecond)
			return fakeExec(cfg)
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := started.Load(); n >= int32(len(plan)) {
		t.Errorf("cancellation did not stop the run (started %d/%d)", n, len(plan))
	}
}

// TestRunnerFirstErrorCancelsAndIdentifiesConfig: the first failure wins,
// carries the plan index, and stops the remaining work.
func TestRunnerFirstErrorCancelsAndIdentifiesConfig(t *testing.T) {
	plan := Plan(true)[:32]
	boom := errors.New("boom")
	var ran atomic.Int32
	_, err := RunContext(context.Background(), plan, Options{
		Workers: 4,
		Exec: func(cfg Config) (Row, error) {
			n := ran.Add(1)
			if n == 5 {
				return Row{}, boom
			}
			time.Sleep(time.Millisecond)
			return fakeExec(cfg)
		},
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if ran.Load() >= int32(len(plan)) {
		t.Error("error did not stop the remaining work")
	}
}

// TestRunnerConcurrencyIsReal: with slow work and N workers, wall clock
// must beat the sequential bound by a wide margin.
func TestRunnerConcurrencyIsReal(t *testing.T) {
	const itemMillis, items, workers = 20, 16, 8
	plan := make([]Config, items)
	var peak, cur atomic.Int32
	start := time.Now()
	_, err := RunContext(context.Background(), plan, Options{
		Workers: workers,
		Exec: func(cfg Config) (Row, error) {
			c := cur.Add(1)
			for {
				p := peak.Load()
				if c <= p || peak.CompareAndSwap(p, c) {
					break
				}
			}
			time.Sleep(itemMillis * time.Millisecond)
			cur.Add(-1)
			return Row{Config: cfg}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	sequential := itemMillis * items * time.Millisecond
	if elapsed > sequential/2 {
		t.Errorf("parallel run took %v, sequential bound is %v", elapsed, sequential)
	}
	if peak.Load() < 2 {
		t.Errorf("peak concurrency %d, want >= 2", peak.Load())
	}
}

// TestRunMeasuresRealConfigsInParallel runs two tiny real configurations
// through the pool to keep the integration honest (everything else above
// uses the fake executor).
func TestRunMeasuresRealConfigsInParallel(t *testing.T) {
	plan := []Config{
		{Arch: "cpu", Renderer: core.RayTrace, Sim: "kripke", Tasks: 1, ImageSize: 48, N: 8, Frames: 2},
		{Arch: "cpu", Renderer: core.Volume, Sim: "kripke", Tasks: 1, ImageSize: 48, N: 8, Frames: 2},
	}
	var mu sync.Mutex
	got := 0
	rows, err := RunContext(context.Background(), plan, Options{
		Workers: 2,
		Progress: func(p Progress) {
			mu.Lock()
			got++
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || got != 2 {
		t.Fatalf("rows=%d streamed=%d", len(rows), got)
	}
	for i, r := range rows {
		if r.Config.Renderer != plan[i].Renderer {
			t.Errorf("row %d out of order: %s", i, r.Config.Renderer)
		}
		if r.Sample.RenderTime <= 0 {
			t.Errorf("row %d: render time %v", i, r.Sample.RenderTime)
		}
	}
}
