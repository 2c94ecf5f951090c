package main

import (
	"go/ast"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

var (
	// fuzzLine is one fuzz-smoke recipe line: the target and its package.
	fuzzLine = regexp.MustCompile(`-fuzz='\^(Fuzz\w+)\$\$'.* (\./\S+)$`)
	// fuzzCount is the target count the fuzz-smoke comment states.
	fuzzCount = regexp.MustCompile(`\((\d+) targets`)
)

// TestFuzzSmokeRunsEveryTarget: `make fuzz-smoke` runs every fuzz target in
// the repository exactly once, against the package that declares it, and the
// comment above the recipe states how many there are.
func TestFuzzSmokeRunsEveryTarget(t *testing.T) {
	makefile, err := os.ReadFile(filepath.Join(repoRoot, "Makefile"))
	if err != nil {
		t.Fatal(err)
	}
	comment, recipe, ok := strings.Cut(string(makefile), "\nfuzz-smoke:\n")
	if !ok {
		t.Fatal("the Makefile has no fuzz-smoke target")
	}
	comment = comment[strings.LastIndex(comment, "\n\n")+1:]
	recipe, _, _ = strings.Cut(recipe, "\n\n")

	runs := map[string]int{}
	for _, line := range strings.Split(recipe, "\n") {
		m := fuzzLine.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("fuzz-smoke line %q runs no single fuzz target", line)
			continue
		}
		runs[m[2]+"."+m[1]]++
	}

	tree, err := parseTree()
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	for dir, files := range tree.dirs {
		for _, f := range files {
			if !f.test {
				continue
			}
			for _, decl := range f.ast.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && isFuzzTarget(fn) {
					declared["./"+dir+"."+fn.Name.Name] = true
				}
			}
		}
	}
	if len(declared) == 0 {
		t.Fatal("no fuzz target found in the tree")
	}
	for target := range declared {
		if runs[target] != 1 {
			t.Errorf("fuzz-smoke runs %s %d times, want once", target, runs[target])
		}
	}
	for target := range runs {
		if !declared[target] {
			t.Errorf("fuzz-smoke runs %s, which no test file declares", target)
		}
	}
	m := fuzzCount.FindStringSubmatch(comment)
	if m == nil {
		t.Fatalf("the fuzz-smoke comment %q states no target count", comment)
	}
	if n, _ := strconv.Atoi(m[1]); n != len(declared) {
		t.Errorf("the fuzz-smoke comment counts %d targets, the tree declares %d", n, len(declared))
	}
}

// isFuzzTarget reports whether fn is a top-level func FuzzXxx(*testing.F).
func isFuzzTarget(fn *ast.FuncDecl) bool {
	if fn.Recv != nil || !strings.HasPrefix(fn.Name.Name, "Fuzz") || fn.Type.Params.NumFields() != 1 {
		return false
	}
	star, ok := fn.Type.Params.List[0].Type.(*ast.StarExpr)
	if !ok {
		return false
	}
	sel, ok := star.X.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	return ok && pkg.Name == "testing" && sel.Sel.Name == "F"
}
