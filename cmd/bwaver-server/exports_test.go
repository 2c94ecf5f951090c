package main

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// module is the module path go.mod declares.
const module = "bwaver"

// exportAllowlist names the exported declarations in internal/ that no
// non-test file outside their package names but that stay exported, each
// with its reason. Keys are "pkg.Name" or "pkg.Type.Method".
var exportAllowlist = map[string]string{
	"bench.Reference.String":   "fmt.Stringer: the tables and their errors format a reference with %v and %s",
	"core.LocateMode.String":   "fmt.Stringer: the cache key and the index errors format a mode with %v",
	"dna.Base.String":          "fmt.Stringer: bwaver verify's mismatch error formats bases with %v",
	"fpga.FaultStage.String":   "fmt.Stringer: fault messages format a stage with %s",
	"fastx.RecordError.Error":  "error: the reader returns a *RecordError as an error",
	"fpga.FaultError.Error":    "error: the device returns a *FaultError as an error",
	"fastx.ReadAll":            "test helper: tests of cmd/bwaver, cmd/readsim, core, qc and readsim parse whole files with it",
	"core.NewContigSet":        "test fixture: runner's and server's tests build contig tables with it; non-test code reads them from FASTA",
	"fmindex.Index.OnText":     "test oracle: core's and fpga's tests tell a text-finished range from a ranked one with it",
	"fmindex.Index.CountSteps": "test oracle: core's tests count a read's steps with the plain search",
	"wavelet.ErrTreeKind":      "test oracle: core's tests match it through ReadIndex's error",
}

// TestExportsHaveOutsideCallers fails on an exported top-level function,
// method, constant or variable in internal/ that no non-test file of another
// package names, so a package exports only what other packages use. Uses are
// resolved by type-checking every package's non-test files, so a method is
// used only where a selector resolves to it, not where another type's method
// of the same name is called. A method that implements a method of one of
// the module's interfaces counts as used where that interface method is
// called, and methods on unexported types are skipped: only an interface
// can reach them from outside. What a standard-library interface reaches,
// or what tests of two packages share, is kept by exportAllowlist.
func TestExportsHaveOutsideCallers(t *testing.T) {
	tree, err := parseTree()
	if err != nil {
		t.Fatal(err)
	}
	imp := &moduleImporter{
		tree:    tree,
		std:     importer.ForCompiler(tree.fset, "source", nil),
		checked: map[string]*types.Package{},
		outside: map[types.Object]bool{},
		named:   map[types.Object]bool{},
	}
	var dirs []string
	for dir, files := range tree.dirs {
		for _, f := range files {
			if !f.test && f.build {
				dirs = append(dirs, dir)
				break
			}
		}
	}
	sort.Strings(dirs)
	for _, dir := range dirs {
		if _, err := imp.Import(module + "/" + dir); err != nil {
			t.Fatal(err)
		}
	}

	// The module's interfaces. A method that implements a method of one
	// is reached through it wherever non-test code calls that method.
	var ifaces []*types.Interface
	for _, pkg := range imp.checked {
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || named.TypeParams().Len() > 0 {
				continue
			}
			if it, ok := named.Underlying().(*types.Interface); ok {
				ifaces = append(ifaces, it)
			}
		}
	}
	viaInterface := func(t *types.Named, m *types.Func) bool {
		for _, it := range ifaces {
			for i := range it.NumMethods() {
				im := it.Method(i)
				if im.Name() == m.Name() && imp.named[im] && (types.Implements(t, it) || types.Implements(types.NewPointer(t), it)) {
					return true
				}
			}
		}
		return false
	}

	exported, allowed := 0, map[string]bool{}
	for _, dir := range dirs {
		if !strings.HasPrefix(dir, "internal/") {
			continue
		}
		pkg := imp.checked[module+"/"+dir]
		check := func(obj types.Object, key string) {
			if imp.outside[obj] {
				return
			}
			if _, ok := exportAllowlist[key]; ok {
				allowed[key] = true
				return
			}
			p := tree.fset.Position(obj.Pos())
			t.Errorf("%s:%d: %s is exported but no other package's non-test code names it", p.Filename[len(repoRoot)+1:], p.Line, key)
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !obj.Exported() {
				continue
			}
			switch obj := obj.(type) {
			case *types.Func, *types.Const, *types.Var:
				exported++
				check(obj, pkg.Name()+"."+name)
			case *types.TypeName:
				named, ok := obj.Type().(*types.Named)
				if !ok || obj.IsAlias() {
					continue
				}
				for i := range named.NumMethods() {
					if m := named.Method(i); m.Exported() {
						exported++
						if !viaInterface(named, m) {
							check(m, pkg.Name()+"."+name+"."+m.Name())
						}
					}
				}
			}
		}
	}
	for key := range exportAllowlist {
		if !allowed[key] {
			t.Errorf("allowlist entry %s names no exported declaration without an outside caller", key)
		}
	}
	t.Logf("%d exported top-level functions, methods, constants and variables in internal/, %d allowlisted", exported, len(exportAllowlist))
}

// moduleImporter type-checks the module's packages from the parsed tree,
// non-test files only, and the standard library from source. It records
// every object of a module package that non-test code names, and in outside
// those that another module package names.
type moduleImporter struct {
	tree    *sourceTree
	std     types.Importer
	checked map[string]*types.Package
	outside map[types.Object]bool
	named   map[types.Object]bool
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	dir, ok := strings.CutPrefix(path, module+"/")
	if !ok {
		return m.std.Import(path)
	}
	if pkg, ok := m.checked[path]; ok {
		return pkg, nil
	}
	var files []*ast.File
	for _, f := range m.tree.dirs[dir] {
		if !f.test && f.build {
			files = append(files, f.ast)
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no package %s in the tree", path)
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	pkg, err := (&types.Config{Importer: m}).Check(path, m.tree.fset, files, info)
	if err != nil {
		return nil, err
	}
	m.checked[path] = pkg
	for _, obj := range info.Uses {
		if obj.Pkg() == nil || !strings.HasPrefix(obj.Pkg().Path(), module+"/") {
			continue
		}
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		}
		m.named[obj] = true
		if obj.Pkg() != pkg {
			m.outside[obj] = true
		}
	}
	return pkg, nil
}
