package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"text/tabwriter"
)

// TestTableColumnsFitWidestCell prints a table whose first column holds
// a name longer than the old fixed 14-character cells: every column
// starts at the same offset on every line, two spaces past its widest
// neighbour, so no cell runs into the next.
func TestTableColumnsFitWidestCell(t *testing.T) {
	defer func(w *tabwriter.Writer) { stdout = w }(stdout)
	var buf bytes.Buffer
	stdout = newTableWriter(&buf)
	printHeader("renderer", "cpu", "serial")
	fmt.Fprintln(stdout, cell("raytracer")+cell(fmt.Sprintf("%.4f", 0.9312))+cell("n/a"))
	fmt.Fprintln(stdout, cell("volume-unstructured")+cell(fmt.Sprintf("%.4f", 0.4246))+cell(0.5))
	stdout.Flush()

	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want header, rule and 2 rows:\n%s", len(lines), buf.String())
	}
	starts := []int{0, len("volume-unstructured") + 2, len("volume-unstructured") + 2 + len("0.4246") + 2}
	for _, line := range lines {
		fields := strings.Fields(line)
		if len(fields) != len(starts) {
			t.Fatalf("line %q has %d cells, want %d", line, len(fields), len(starts))
		}
		at := 0
		for i, f := range fields {
			at += strings.Index(line[at:], f)
			if at != starts[i] {
				t.Errorf("line %q: cell %q starts at %d, want %d", line, f, at, starts[i])
			}
			at += len(f)
		}
	}
}

// TestListNamesEveryExperiment: "list" prints every registered
// experiment and creates no output directory.
func TestListNamesEveryExperiment(t *testing.T) {
	defer func(w *tabwriter.Writer) { stdout = w }(stdout)
	var buf bytes.Buffer
	stdout = newTableWriter(&buf)
	out := filepath.Join(t.TempDir(), "out")
	if err := run([]string{"-out", out, "list"}); err != nil {
		t.Fatal(err)
	}
	if len(experiments) == 0 {
		t.Fatal("no experiments registered")
	}
	listed := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		listed[strings.Fields(line)[0]] = true
	}
	for _, ex := range experiments {
		if !listed[ex.name] {
			t.Errorf("list does not name %q:\n%s", ex.name, buf.String())
		}
	}
	if _, err := os.Stat(out); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("list created %s", out)
	}
}

// TestRefusesBadArguments: no experiment, or an unknown one, is a usage
// error, returned before the output directory is created.
func TestRefusesBadArguments(t *testing.T) {
	for _, args := range [][]string{{}, {"bogus"}, {"table1", "bogus"}} {
		out := filepath.Join(t.TempDir(), "out")
		err := run(append([]string{"-out", out}, args...))
		if !errors.Is(err, errUsage) {
			t.Errorf("%q: err = %v, want a usage error", args, err)
		}
		if _, err := os.Stat(out); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%q: created %s anyway", args, out)
		}
	}
}
