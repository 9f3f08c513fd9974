package main

import (
	"bytes"
	"fmt"
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
