// Package driver runs the insitulint analyzers as a unitchecker
// (`go vet -vettool=insitulint`): it speaks cmd/go's vet.cfg protocol
// one compilation unit at a time and threads facts through the vetx
// files cmd/go manages.
package driver

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"strings"

	"insitu/internal/analysis"
)

// modulePrefix identifies this module's packages; only they are
// analyzed (dependencies contribute facts, the stdlib contributes none).
const modulePrefix = "insitu"

func inModule(importPath string) bool {
	return importPath == modulePrefix || strings.HasPrefix(importPath, modulePrefix+"/")
}

// exportAll is this package's outgoing facts: its own annotations plus
// everything inherited, so dependents see transitive marks.
func exportAll(ann *analysis.Annotations, imported *analysis.Facts, path string) *analysis.Facts {
	f := ann.ExportedFacts(path)
	f.Merge(imported)
	return f
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// vetConfig mirrors the JSON cmd/go writes for -vettool invocations.
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// RunUnit processes one vet.cfg compilation unit: typecheck, run
// analyzers (unless VetxOnly), and always write the facts vetx file so
// dependent units can read it. Exit codes follow vet convention: 0
// clean, 2 diagnostics.
func RunUnit(analyzers []*analysis.Analyzer, cfgPath string, w io.Writer) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintf(w, "insitulint: %v\n", err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(w, "insitulint: parsing %s: %v\n", cfgPath, err)
		return 1
	}

	// Non-module units (stdlib and, hypothetically, vendored deps) carry
	// no //insitu: annotations: write empty facts and move on without
	// typechecking them.
	if !inModule(strings.TrimSuffix(cfg.ImportPath, ".test")) {
		return writeFacts(cfg.VetxOutput, analysis.NewFacts(), w)
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			fmt.Fprintf(w, "insitulint: %v\n", err)
			return 1
		}
		files = append(files, f)
	}

	compiler := cfg.Compiler
	if compiler == "" {
		compiler = "gc"
	}
	gcImp := importer.ForCompiler(fset, compiler, func(path string) (io.ReadCloser, error) {
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no package file for %q", path)
		}
		return os.Open(file)
	})
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		return gcImp.Import(path)
	})}
	info := analysis.NewTypesInfo()
	pkg, err := conf.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return writeFacts(cfg.VetxOutput, analysis.NewFacts(), w)
		}
		fmt.Fprintf(w, "insitulint: typecheck %s: %v\n", cfg.ImportPath, err)
		return 1
	}

	ann := analysis.BuildAnnotations(fset, files, info)
	imported := analysis.NewFacts()
	for _, vetx := range cfg.PackageVetx {
		imported.Merge(readFacts(vetx))
	}
	out := exportAll(ann, imported, cfg.ImportPath)
	if code := writeFacts(cfg.VetxOutput, out, w); code != 0 {
		return code
	}
	if cfg.VetxOnly {
		return 0
	}

	diags, err := analysis.RunAnalyzers(analyzers, fset, files, pkg, info, ann, imported)
	if err != nil {
		fmt.Fprintf(w, "insitulint: %s: %v\n", cfg.ImportPath, err)
		return 1
	}
	for _, d := range diags {
		fmt.Fprintf(w, "%s: [%s] %s\n", fset.Position(d.Pos), d.Analyzer, d.Message)
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}

func writeFacts(path string, f *analysis.Facts, w io.Writer) int {
	if path == "" {
		return 0
	}
	data, err := json.Marshal(f)
	if err != nil {
		fmt.Fprintf(w, "insitulint: %v\n", err)
		return 1
	}
	if err := os.WriteFile(path, data, 0o666); err != nil {
		fmt.Fprintf(w, "insitulint: %v\n", err)
		return 1
	}
	return 0
}

// readFacts tolerates missing or malformed vetx files (a dep whose
// facts we skipped still yields an empty, usable set).
func readFacts(path string) *analysis.Facts {
	f := analysis.NewFacts()
	data, err := os.ReadFile(path)
	if err != nil {
		return f
	}
	var parsed analysis.Facts
	if json.Unmarshal(data, &parsed) == nil {
		f.Merge(&parsed)
	}
	return f
}
