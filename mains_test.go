package insitu

import (
	"errors"
	"go/build"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestEveryMainHasATest: `go test ./...` compiles a command with no test
// file but never runs it, so its flag handling and output can break
// unnoticed. Every package main in the module needs a _test.go beside
// it. Nested modules (bench/) are walked by their own test runs.
func TestEveryMainHasATest(t *testing.T) {
	var mains []string
	err := filepath.WalkDir(".", func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() || dir == "." {
			return err
		}
		if strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" {
			return filepath.SkipDir
		}
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return filepath.SkipDir
		}
		pkg, err := build.ImportDir(dir, 0)
		var noGo *build.NoGoError
		if errors.As(err, &noGo) {
			return nil
		}
		if err != nil || pkg.Name != "main" {
			return err
		}
		mains = append(mains, dir)
		if len(pkg.TestGoFiles)+len(pkg.XTestGoFiles) == 0 {
			t.Errorf("%s: package main has no _test.go, so tier-1 never runs it", dir)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(mains) == 0 {
		t.Fatal("found no package main; the walk missed the commands")
	}
}
