// Command repro regenerates every table and figure of the paper's
// evaluation chapters on this machine. Each experiment is a subcommand;
// "all" runs the full set. Absolute numbers differ from the paper's
// testbeds: its machines are the execution profiles of internal/device,
// named in each table's header. The shapes — who wins, by what factor,
// where crossovers fall — are the reproduction targets.
//
// Usage:
//
//	repro [-short] [-out DIR] [-parallel N] <experiment>...
//	repro list
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"text/tabwriter"
)

// experiment is one regenerable table or figure.
type experiment struct {
	name string
	desc string
	run  func(*env) error
	// standalone experiments measure their own corpus (or otherwise do
	// not belong in a tables-and-figures sweep) and are excluded from
	// "all"; they run only when named explicitly.
	standalone bool
}

// env carries shared state: flags plus the lazily built study corpus.
type env struct {
	short    bool
	outDir   string
	parallel int
	corpus   *corpusCache
}

var experiments []experiment

func register(name, desc string, run func(*env) error) {
	experiments = append(experiments, experiment{name: name, desc: desc, run: run})
}

func registerStandalone(name, desc string, run func(*env) error) {
	experiments = append(experiments, experiment{name: name, desc: desc, run: run, standalone: true})
}

// errUsage marks arguments run refuses; main exits 2 on it, as flag does.
var errUsage = errors.New("usage")

func main() {
	if err := run(os.Args[1:]); errors.Is(err, errUsage) {
		fmt.Fprintln(os.Stderr, "repro:", err)
		usage()
		os.Exit(2)
	} else if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run parses the flags and runs the named experiments. It refuses an
// empty or unknown experiment list before it creates the output
// directory; "list" names the experiments and creates nothing.
func run(args []string) error {
	slices.SortFunc(experiments, func(a, b experiment) int { return strings.Compare(a.name, b.name) })
	fs := flag.NewFlagSet("repro", flag.ExitOnError)
	fs.Usage = usage
	short := fs.Bool("short", false, "run reduced-size experiments")
	out := fs.String("out", "repro_out", "output directory for images and CSVs")
	parallel := fs.Int("parallel", 1, "concurrent study configurations (1 reproduces the paper's serial measurement discipline)")
	_ = fs.Parse(args) // ExitOnError: flag itself exits on a bad flag or -h
	args = fs.Args()
	if len(args) == 0 {
		return fmt.Errorf("%w: name an experiment, all, or list", errUsage)
	}
	if args[0] == "list" {
		for _, ex := range experiments {
			fmt.Fprintf(stdout, "  %-10s %s\n", ex.name, ex.desc)
		}
		return stdout.Flush()
	}
	want := map[string]bool{}
	for _, a := range args {
		if a == "all" {
			for _, ex := range experiments {
				// Standalone experiments (calibrate) measure their own
				// corpus; including them in "all" would re-run the whole
				// study on top of the shared corpus.
				if !ex.standalone {
					want[ex.name] = true
				}
			}
			continue
		}
		if !slices.ContainsFunc(experiments, func(ex experiment) bool { return ex.name == a }) {
			return fmt.Errorf("%w: unknown experiment %q (try: repro list)", errUsage, a)
		}
		want[a] = true
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	e := &env{short: *short, outDir: *out, parallel: *parallel, corpus: &corpusCache{}}
	for _, ex := range experiments {
		if !want[ex.name] {
			continue
		}
		fmt.Fprintf(stdout, "\n================ %s — %s ================\n", ex.name, ex.desc)
		err := ex.run(e)
		stdout.Flush()
		if err != nil {
			return fmt.Errorf("%s: %w", ex.name, err)
		}
	}
	return nil
}

func usage() {
	fmt.Fprintf(os.Stderr, `repro regenerates the paper's tables and figures.

usage: repro [-short] [-out DIR] [-parallel N] <experiment>... | all | list

experiments:
`)
	for _, ex := range experiments {
		fmt.Fprintf(os.Stderr, "  %-10s %s\n", ex.name, ex.desc)
	}
}

// stdout is where the experiments print. Rows of cells are held back
// until the table ends, so that every column is as wide as its widest
// cell; any line without a cell (a title, a note, a blank line) ends
// the table and prints it.
var stdout = newTableWriter(os.Stdout)

func newTableWriter(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
}

// printHeader prints a table header and, under each column name, a rule
// as long as the name.
func printHeader(cols ...string) {
	var names, rules strings.Builder
	for _, c := range cols {
		names.WriteString(cell(c))
		rules.WriteString(cell(strings.Repeat("-", max(len(c), 1))))
	}
	fmt.Fprintln(stdout, names.String())
	fmt.Fprintln(stdout, rules.String())
}

// cell is one table cell.
func cell(v any) string { return fmt.Sprint(v) + "\t" }
