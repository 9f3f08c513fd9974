package main

import (
	"errors"
	"path/filepath"
	"testing"
)

// TestRefusesBadFlags: every value serve.Config's defaults would
// silently replace, and every value with no meaning, is a usage error
// that run returns before it opens the registry (which does not exist
// here, so getting past the flags would fail differently) or binds a
// port.
func TestRefusesBadFlags(t *testing.T) {
	reg := filepath.Join(t.TempDir(), "missing.json")
	for _, args := range [][]string{
		{"-workers", "0"},
		{"-workers", "-1"},
		{"-queue", "0"},
		{"-queue", "-3"},
		{"-runners", "0"},
		{"-frame-cache", "0"},
		{"-cluster", "-1"},
		{"-refit-every", "0"},
		{"-arch", "gpu"},
		{"stray"},
	} {
		err := run(append([]string{"-registry", reg, "-addr", "127.0.0.1:1"}, args...))
		if !errors.Is(err, errUsage) {
			t.Errorf("%v: err = %v, want a usage error", args, err)
		}
	}
}

// TestParsesDocumentedValues: the flags the benchmark passes parse
// unchanged, as do the documented edge values: -cluster 0 (no fleet), a
// negative -frame-cache (no frame cached), -refit-every 1 and every
// device profile as -arch.
func TestParsesDocumentedValues(t *testing.T) {
	o, err := parseFlags([]string{"-registry", "models.json", "-addr", "127.0.0.1:18090", "-calibrate=false", "-cluster", "2"})
	if err != nil {
		t.Fatal(err)
	}
	if o.regPath != "models.json" || o.addr != "127.0.0.1:18090" || o.calibrate || o.clusterN != 2 {
		t.Errorf("benchmark flags parsed to %+v", o)
	}
	if c := o.cfg; c.Arch != "cpu" || c.Workers != 2 || c.QueueCap != 64 || c.FrameCacheEntries != 256 || c.RunnerCacheEntries != 8 || o.refitEvery != 8 {
		t.Errorf("defaults parsed to %+v, refit-every %d", c, o.refitEvery)
	}
	for _, args := range [][]string{
		{"-cluster", "0"},
		{"-frame-cache", "-1"},
		{"-refit-every", "1"},
		{"-arch", "serial"},
		{"-arch", "cpu-scalar"},
		{"-workers", "1", "-queue", "1", "-runners", "1"},
	} {
		if _, err := parseFlags(args); err != nil {
			t.Errorf("%v: %v", args, err)
		}
	}
}
