package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"time"
)

// runAA runs every selected workload twice on the same build and prints,
// per workload and metric, both values, how much worse the second is as
// a share of the first, and the bound. Any breach fails the run: a
// metric that cannot hold its bound on unchanged code belongs among the
// client.* diagnostics, not behind a wider bound.
func runAA(ctx context.Context, p paths, spec *benchmarkSpec, selected []workload, seed uint64, window time.Duration) (bool, error) {
	ok := true
	var err error
	for i := range selected {
		w := &selected[i]
		var runs [2]result
		for k := range runs {
			if runs[k], err = runEndToEnd(ctx, p, w, seed, window); err != nil {
				return false, fmt.Errorf("%s run %d: %w", w.name, k+1, err)
			}
			ok = ok && runs[k].Correct
		}
		fmt.Fprintf(os.Stderr, "\nA/A %s\n  %-22s %14s %14s %9s %7s\n", w.name, "metric", "run 1", "run 2", "worse by", "bound")
		for _, m := range spec.EndToEnd {
			a, c := runs[0].Metrics[m.Name].Value, runs[1].Metrics[m.Name].Value
			worse := (c - a) / math.Abs(a)
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := ""
			if worse > m.Bound {
				verdict = "  BREACH"
				ok = false
			}
			fmt.Fprintf(os.Stderr, "  %-22s %14.6g %14.6g %8.1f%% %6.0f%%%s\n", m.Name, a, c, 100*worse, 100*m.Bound, verdict)
		}
	}
	return ok, nil
}
