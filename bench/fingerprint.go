package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// fingerprint stamps a result with the host and run it came from, so
// numbers from different machines are never compared by accident.
func fingerprint(p paths, seed uint64, window time.Duration) string {
	return fmt.Sprintf("host: cpu=%q nproc=%d GOMAXPROCS=%d go=%s %s/%s commit=%s seed=%d seconds=%g deadline_mix.rate_per_s=%g",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH,
		gitCommit(p.root), seed, window.Seconds(), deadlineRate)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}

// gitCommit is the checkout's HEAD, or "none" where the benchmark runs
// from an exported tree that is not a git repository.
func gitCommit(root string) string {
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}
