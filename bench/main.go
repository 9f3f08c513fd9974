// Command bench is the end-to-end and per-layer benchmark for renderd.
//
// End to end (--trace 0): it builds cmd/renderd from the checkout,
// starts it as a subprocess on a free loopback port against a copy of
// the committed registry, warms it, drives one seeded workload over HTTP
// for --seconds, checks every answer, and prints the end-to-end metrics.
// Per layer (--trace 1): it rebuilds the same stack in this process from
// the layers' public constructors, replays the workload's stream with a
// span around every call into a layer, times the layers off the request
// path in fixed loops, and writes the spans as a Chrome trace.
//
//	go run -C bench . --workload orbit_miss --seed 1 --seconds 15 --trace 0
//	go run -C bench .                  # every workload, end to end
//	go run -C bench . --trace 1        # every workload, per layer
//	go run -C bench . --aa             # every workload twice; compare within bounds
//
// The last line of standard output is one JSON object per workload:
// {"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}.
// Everything for a human goes to standard error. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"
)

func main() {
	var (
		name         = flag.String("workload", "all", "workload to run (all = each in turn)")
		seed         = flag.Uint64("seed", 1, "seed for every request generator")
		seconds      = flag.Int("seconds", 15, "measured window per workload, seconds")
		trace        = flag.Int("trace", 0, "0 = end-to-end metrics over HTTP; 1 = per-layer metrics from the traced replay")
		aa           = flag.Bool("aa", false, "run every workload twice on one build and compare the runs within the bounds")
		updateGolden = flag.Bool("update-golden", false, "re-record golden.json from the current build and exit")
	)
	flag.Parse()
	if *seconds < 1 || *trace < 0 || *trace > 1 || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}

	// SIGINT/SIGTERM cancel ctx; every server is stopped on the way out.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)

	ok, err := run(ctx, *name, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *aa, *updateGolden)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
	}
	if err != nil || !ok {
		os.Exit(1) // after run returned: its servers are already stopped
	}
}

func run(ctx context.Context, name string, seed uint64, window time.Duration, traced, aa, updateGolden bool) (bool, error) {
	p, err := locate()
	if err != nil {
		return false, err
	}
	if err := buildRenderd(ctx, p); err != nil {
		return false, err
	}
	if updateGolden {
		return true, recordGolden(ctx, p)
	}
	selected := workloads
	if name != "all" {
		w, found := findWorkload(name)
		if !found {
			return false, fmt.Errorf("unknown workload %q", name)
		}
		selected = []workload{*w}
	}
	spec, err := loadSpec(p.root)
	if err != nil {
		return false, err
	}
	fmt.Fprintln(os.Stderr, fingerprint(p, seed, window))
	if aa {
		return runAA(ctx, p, spec, selected, seed, window)
	}
	allOK := true
	for i := range selected {
		w := &selected[i]
		var res result
		if traced {
			res, err = runTraced(ctx, p, spec, w, seed, window)
		} else {
			res, err = runEndToEnd(ctx, p, w, seed, window)
		}
		if err != nil {
			return false, fmt.Errorf("%s: %w", w.name, err)
		}
		line, err := json.Marshal(res)
		if err != nil {
			return false, err
		}
		fmt.Println(string(line))
		allOK = allOK && res.Correct
	}
	return allOK, nil
}

// runEndToEnd is one --trace 0 run: the HTTP window and its metrics.
func runEndToEnd(ctx context.Context, p paths, w *workload, seed uint64, window time.Duration) (result, error) {
	run, err := runHTTP(ctx, p, w, seed, window, setupRounds)
	if err != nil {
		return result{}, err
	}
	metrics := endToEnd(run)
	describe(w, seed, run, metrics)
	return result{
		Correct:   len(run.failures) == 0,
		Attempted: run.attempted,
		Failed:    len(run.failures),
		Metrics:   metrics,
	}, nil
}

// recordGolden renders the probe set on a fresh clustered server and
// writes golden.json.
func recordGolden(ctx context.Context, p paths) error {
	srv, err := startServer(ctx, p, []string{"-cluster", "2", "-calibrate=false"})
	if err != nil {
		return err
	}
	defer srv.stop()
	got, err := runProbes(ctx, srv.base, true)
	if err != nil {
		return err
	}
	if err := checkStandalone(got[probeName(&shardProbe)]); err != nil {
		return err
	}
	return writeGolden(p.golden, got)
}
