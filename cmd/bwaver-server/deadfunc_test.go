package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestNoDeadFunctions parses every package in the repository, test files
// included, and fails on an unexported top-level function that nothing in
// its package names outside the function's own body: code no caller runs.
// Methods are left out, since an interface can call them without naming
// them.
func TestNoDeadFunctions(t *testing.T) {
	const root = "../.."
	fset := token.NewFileSet()
	pkgs := map[string][]*ast.File{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.Dir(path)
		pkgs[dir] = append(pkgs[dir], f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("no Go file found in the tree")
	}
	var dead []string
	for _, files := range pkgs {
		// Every use of a name in the package, by position.
		uses := map[string][]token.Pos{}
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					uses[id.Name] = append(uses[id.Name], id.Pos())
				}
				return true
			})
		}
		for _, f := range files {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Recv != nil || ast.IsExported(fn.Name.Name) {
					continue
				}
				switch fn.Name.Name {
				case "main", "init", "_":
					continue
				}
				used := false
				for _, pos := range uses[fn.Name.Name] {
					if pos < fn.Pos() || pos >= fn.End() {
						used = true
						break
					}
				}
				if !used {
					p := fset.Position(fn.Pos())
					rel, _ := filepath.Rel(root, p.Filename)
					dead = append(dead, fmt.Sprintf("%s:%d: %s", rel, p.Line, fn.Name.Name))
				}
			}
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s is never referenced", d)
	}
}
