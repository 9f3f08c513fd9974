// Command insitulint runs the repo's static-analysis suite (noalloc,
// collective, leaselife, ctxcomm) as a go vet tool:
//
//	go vet -vettool=$(pwd)/bin/insitulint ./...
//
// cmd/go probes the tool with -V=full and -flags, then invokes it once
// per compilation unit (test units included) with a *.cfg JSON file;
// facts (//insitu: annotations) flow between units through vetx files.
package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"insitu/internal/analysis"
	"insitu/internal/analysis/collective"
	"insitu/internal/analysis/ctxcomm"
	"insitu/internal/analysis/driver"
	"insitu/internal/analysis/leaselife"
	"insitu/internal/analysis/noalloc"
)

var analyzers = []*analysis.Analyzer{
	noalloc.Analyzer,
	collective.Analyzer,
	leaselife.Analyzer,
	ctxcomm.Analyzer,
}

func main() {
	args := os.Args[1:]

	// cmd/go identity probe: the first field must be the executable's
	// base name, the second "version"; the buildID makes vet's action
	// cache key on the tool binary.
	if len(args) == 1 && strings.HasPrefix(args[0], "-V") {
		fmt.Printf("%s version devel buildID=%s\n", progName(), buildID())
		return
	}
	// cmd/go flags probe: we define none.
	if len(args) == 1 && args[0] == "-flags" {
		fmt.Println("[]")
		return
	}
	// Unitchecker invocation: a single *.cfg argument.
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		os.Exit(driver.RunUnit(analyzers, args[0], os.Stderr))
	}
	fmt.Fprintf(os.Stderr, "usage: go vet -vettool=$(which %s) ./...\n", progName())
	os.Exit(1)
}

func progName() string {
	return strings.TrimSuffix(filepath.Base(os.Args[0]), ".exe")
}

// buildID hashes the running executable, matching what unitchecker-based
// vet tools report so cmd/go can cache per-binary.
func buildID() string {
	exe, err := os.Executable()
	if err != nil {
		return "unknown"
	}
	f, err := os.Open(exe)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "unknown"
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}
