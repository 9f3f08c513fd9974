package study

import (
	"context"
	"fmt"
	"io"
	"sync"
)

// Options configures a study run.
type Options struct {
	// Workers caps how many configurations are measured concurrently.
	// Values below 1 mean sequential execution, which reproduces the
	// paper's one-at-a-time measurement discipline exactly; higher values
	// trade some measurement isolation for wall-clock speed on full
	// plans.
	Workers int
	// Progress, when non-nil, receives every completed row as it
	// finishes. Calls are serialized by the runner, so the callback may
	// mutate shared state without its own locking; completion order is
	// nondeterministic under concurrency (use Progress.Index for the plan
	// position).
	Progress func(Progress)
	// Exec overrides the per-configuration executor (default RunConfig).
	// It must be safe for concurrent use when Workers > 1. Intended for
	// dry runs and deterministic tests of the runner itself.
	Exec func(Config) (Row, error)
}

// Progress is one streamed completion event.
type Progress struct {
	// Index is the completed configuration's position in the plan.
	Index int
	// Done counts completed configurations so far, including this one.
	Done int
	// Total is the plan length.
	Total int
	// Row is the finished measurement.
	Row Row
}

// LogProgress returns a Progress callback writing the harness's standard
// per-row log line to w.
func LogProgress(w io.Writer) func(Progress) {
	return func(p Progress) {
		cfg := p.Row.Config
		fmt.Fprintf(w, "[%3d/%3d] %-7s %-10s %-10s tasks=%d n=%d img=%d render=%.4fs\n",
			p.Done, p.Total, cfg.Arch, cfg.Renderer, cfg.Sim,
			cfg.Tasks, cfg.N, cfg.ImageSize, p.Row.Sample.RenderTime)
	}
}

// RunContext executes the plan on a pool of Workers goroutines, streaming
// completions through Options.Progress and returning the rows ordered by
// plan index regardless of completion order. The first configuration
// error cancels the remaining work, as does ctx; queued configurations
// are abandoned, in-flight ones finish and are discarded.
func RunContext(ctx context.Context, plan []Config, opts Options) ([]Row, error) {
	workers := opts.Workers
	if workers < 1 {
		workers = 1
	}
	if workers > len(plan) {
		workers = len(plan)
	}
	exec := opts.Exec
	if exec == nil {
		exec = RunConfig
	}
	if len(plan) == 0 {
		return []Row{}, ctx.Err()
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	rows := make([]Row, len(plan))
	var (
		mu       sync.Mutex
		firstErr error
		done     int
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		cancel()
	}

	indices := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range indices {
				if runCtx.Err() != nil {
					return
				}
				row, err := exec(plan[i])
				if err != nil {
					fail(fmt.Errorf("study: config %d (%+v): %w", i, plan[i], err))
					return
				}
				rows[i] = row
				mu.Lock()
				done++
				if opts.Progress != nil {
					opts.Progress(Progress{Index: i, Done: done, Total: len(plan), Row: row})
				}
				mu.Unlock()
			}
		}()
	}
feed:
	for i := range plan {
		select {
		case indices <- i:
		case <-runCtx.Done():
			break feed
		}
	}
	close(indices)
	wg.Wait()

	mu.Lock()
	err := firstErr
	mu.Unlock()
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return rows, nil
}
