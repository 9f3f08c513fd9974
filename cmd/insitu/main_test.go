package main

import (
	"bytes"
	"errors"
	"fmt"
	"image/png"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestInsituWritesOneImagePerCycle steps a proxy on one and on two
// simulated tasks and decodes every image the run saves.
func TestInsituWritesOneImagePerCycle(t *testing.T) {
	for _, tasks := range []int{1, 2} {
		t.Run(fmt.Sprintf("tasks=%d", tasks), func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "out")
			var stdout bytes.Buffer
			args := []string{"-steps", "2", "-n", "8", "-size", "32", "-tasks", fmt.Sprint(tasks), "-out", out}
			if err := run(args, &stdout); err != nil {
				t.Fatal(err)
			}
			if got := strings.Count(stdout.String(), "cycle "); got != 2 {
				t.Errorf("stdout has %d cycle lines, want 2 (rank 0 only):\n%s", got, stdout.String())
			}
			pngs, err := filepath.Glob(filepath.Join(out, "*.png"))
			if err != nil {
				t.Fatal(err)
			}
			if len(pngs) != 2 {
				t.Fatalf("wrote %v, want one PNG per cycle", pngs)
			}
			for _, p := range pngs {
				b, err := os.ReadFile(p)
				if err != nil {
					t.Fatal(err)
				}
				img, err := png.Decode(bytes.NewReader(b))
				if err != nil {
					t.Fatalf("%s: %v", p, err)
				}
				if r := img.Bounds(); r.Dx() != 32 || r.Dy() != 32 {
					t.Errorf("%s is %dx%d, want 32x32", p, r.Dx(), r.Dy())
				}
			}
		})
	}
}

// TestInsituRefusesBadFlags: each out-of-range value is a usage error
// returned before the output directory exists or any task starts.
func TestInsituRefusesBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-every", "0"},
		{"-every", "-1"},
		{"-tasks", "0"},
		{"-steps", "-1"},
		{"-size", "0"},
	} {
		out := filepath.Join(t.TempDir(), "out")
		var stdout bytes.Buffer
		err := run(append(args, "-n", "8", "-out", out), &stdout)
		if !errors.Is(err, errUsage) {
			t.Errorf("%v: err = %v, want a usage error", args, err)
		}
		if _, err := os.Stat(out); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%v: created %s anyway", args, out)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: a task ran: %s", args, stdout.String())
		}
	}
}
