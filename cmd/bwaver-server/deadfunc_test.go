package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"testing"
)

// TestNoDeadFunctions fails on an unexported top-level function, constant
// or variable that nothing in its package names outside its own
// declaration: code no caller runs. A declaration in a non-test file counts
// only its package's non-test files as uses, so code only tests call lives
// in a _test.go file. Methods are left out, since an interface can call them
// without naming them.
func TestNoDeadFunctions(t *testing.T) {
	tree, err := parseTree()
	if err != nil {
		t.Fatal(err)
	}
	if len(tree.dirs) == 0 {
		t.Fatal("no Go file found in the tree")
	}
	var dead []string
	for _, files := range tree.dirs {
		// Every use of a name in the package, by position, and whether it
		// is in a non-test file.
		type use struct {
			pos  token.Pos
			prod bool
		}
		uses := map[string][]use{}
		for _, f := range files {
			ast.Inspect(f.ast, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					uses[id.Name] = append(uses[id.Name], use{id.Pos(), !f.test})
				}
				return true
			})
		}
		for _, f := range files {
			// Each top-level function, constant and variable, with the node
			// that declares it.
			type decl struct {
				name *ast.Ident
				span ast.Node
			}
			var decls []decl
			for _, d := range f.ast.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil {
						decls = append(decls, decl{d.Name, d})
					}
				case *ast.GenDecl:
					if d.Tok != token.CONST && d.Tok != token.VAR {
						continue
					}
					for _, spec := range d.Specs {
						for _, name := range spec.(*ast.ValueSpec).Names {
							decls = append(decls, decl{name, spec})
						}
					}
				}
			}
			for _, d := range decls {
				switch name := d.name.Name; {
				case name == "main", name == "init", name == "_", ast.IsExported(name):
					continue
				}
				used := false
				for _, u := range uses[d.name.Name] {
					if (u.prod || f.test) && (u.pos < d.span.Pos() || u.pos >= d.span.End()) {
						used = true
						break
					}
				}
				if !used {
					dead = append(dead, fmt.Sprintf("%s:%d: %s", f.path, tree.fset.Position(d.name.Pos()).Line, d.name.Name))
				}
			}
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s is never referenced", d)
	}
}
