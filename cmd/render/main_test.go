package main

import (
	"bytes"
	"errors"
	"image/png"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"insitu/internal/scenario"
)

// TestRenderEveryBackend runs the command once per scenario backend and
// decodes the PNG it writes.
func TestRenderEveryBackend(t *testing.T) {
	dir := t.TempDir()
	for _, name := range scenario.Names() {
		t.Run(string(name), func(t *testing.T) {
			out := filepath.Join(dir, string(name)+".png")
			var stdout bytes.Buffer
			if err := run([]string{"-renderer", string(name), "-n", "8", "-size", "32", "-out", out}, &stdout); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(stdout.String(), "wrote "+out) {
				t.Errorf("stdout does not name the PNG:\n%s", stdout.String())
			}
			f, err := os.Open(out)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			img, err := png.Decode(f)
			if err != nil {
				t.Fatal(err)
			}
			if b := img.Bounds(); b.Dx() != 32 || b.Dy() != 32 {
				t.Errorf("PNG is %dx%d, want 32x32", b.Dx(), b.Dy())
			}
		})
	}
}

// TestRenderRefusesBadFlags: a workload outside 1-3, an empty image or
// a grid without a cell is a usage error, returned before anything
// renders or is written.
func TestRenderRefusesBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "0"},
		{"-workload", "7"},
		{"-size", "0"},
		{"-size", "-32"},
		{"-n", "1"},
	} {
		out := filepath.Join(t.TempDir(), "render.png")
		err := run(append([]string{"-n", "8", "-out", out}, args...), &bytes.Buffer{})
		if !errors.Is(err, errUsage) {
			t.Errorf("%v: err = %v, want a usage error", args, err)
		}
		if _, err := os.Stat(out); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%v: wrote %s anyway", args, out)
		}
	}
}
