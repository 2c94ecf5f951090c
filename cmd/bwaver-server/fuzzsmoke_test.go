package main

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

var (
	fuzzFunc = regexp.MustCompile(`(?m)^func (Fuzz\w+)\(\w+ \*testing\.F\)`)
	// fuzzLine is one fuzz-smoke recipe line: the target and its package.
	fuzzLine = regexp.MustCompile(`-fuzz='\^(Fuzz\w+)\$\$'.* (\./\S+)$`)
	// fuzzCount is the target count the fuzz-smoke comment states.
	fuzzCount = regexp.MustCompile(`\((\d+) targets`)
)

// TestFuzzSmokeRunsEveryTarget: `make fuzz-smoke` runs every fuzz target in
// the repository exactly once, against the package that declares it, and the
// comment above the recipe states how many there are.
func TestFuzzSmokeRunsEveryTarget(t *testing.T) {
	const root = "../.."
	makefile, err := os.ReadFile(filepath.Join(root, "Makefile"))
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

	declared := map[string]bool{}
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		for _, m := range fuzzFunc.FindAllStringSubmatch(string(src), -1) {
			declared["./"+filepath.ToSlash(rel)+"."+m[1]] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
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
