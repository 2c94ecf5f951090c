package main

import (
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"strings"
	"sync"
)

// repoRoot is the module root, seen from this package's directory.
const repoRoot = "../.."

// goFile is one parsed Go file of the repository.
type goFile struct {
	path  string // relative to repoRoot
	ast   *ast.File
	test  bool // a _test.go file
	build bool // its build constraints hold in the default build
}

// sourceTree is every Go file under repoRoot outside hidden and testdata
// directories, by directory relative to repoRoot.
type sourceTree struct {
	fset *token.FileSet
	dirs map[string][]goFile
}

// parseTree parses the tree once for every repository-wide test of this
// package.
var parseTree = sync.OnceValues(func() (*sourceTree, error) {
	t := &sourceTree{fset: token.NewFileSet(), dirs: map[string][]goFile{}}
	err := filepath.WalkDir(repoRoot, func(name string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if base := d.Name(); name != repoRoot && (strings.HasPrefix(base, ".") || base == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		f, err := parser.ParseFile(t.fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		match, err := build.Default.MatchFile(filepath.Dir(name), d.Name())
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(repoRoot, name)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		t.dirs[path.Dir(rel)] = append(t.dirs[path.Dir(rel)], goFile{
			path: rel, ast: f, test: strings.HasSuffix(name, "_test.go"), build: match,
		})
		return nil
	})
	return t, err
})
