package hypertp_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// maxFuncLines is the longest a non-test function in a censused package
// may be. The fleet layer once held a 426-line function with five
// nested closures, and the cluster layer a 123-line planner-and-timer
// twin of its own executor; the census is a gate so neither grows back.
const maxFuncLines = 100

// censusPackages are the layers that plan and execute transplants.
var censusPackages = []string{"internal/core", "internal/orchestrator", "internal/cluster"}

func TestNoLongFunctions(t *testing.T) {
	fset := token.NewFileSet()
	for _, dir := range censusPackages {
		pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, 0)
		if err != nil {
			t.Fatal(err)
		}
		funcs := 0
		for _, pkg := range pkgs {
			for _, file := range pkg.Files {
				for _, decl := range file.Decls {
					fn, ok := decl.(*ast.FuncDecl)
					if !ok {
						continue
					}
					funcs++
					lines := fset.Position(fn.End()).Line - fset.Position(fn.Pos()).Line + 1
					if lines > maxFuncLines {
						t.Errorf("%s: %s is %d lines, over the %d-line limit",
							fset.Position(fn.Pos()), fn.Name.Name, lines, maxFuncLines)
					}
				}
			}
		}
		if funcs == 0 {
			t.Fatalf("census parsed no functions in %s", dir)
		}
	}
}

// handReadAllowlist names the non-test files outside the bounded reader
// (internal/uisr/reader.go) that may still read integers through
// binary.LittleEndian, each with why it is not a parser of hostile bytes.
var handReadAllowlist = map[string]string{
	"internal/uisr/reader.go":    "the bounded reader itself",
	"internal/hv/xen/convert.go": "unpacks a fixed [1024]byte LAPIC register page, already parsed",
	"internal/hv/kvm/state.go":   "unpacks a fixed [1024]byte LAPIC register page of in-memory state",
}

// TestNoHandIndexedReads holds every parser to the bounded reader: a
// Uint16/32/64 read through binary.LittleEndian, or through a local bound
// to it, in non-test internal/ code outside the allowlist fails. Each
// such read is offset arithmetic the reader's bounds never see — the
// class that let counts size allocations before they were checked.
func TestNoHandIndexedReads(t *testing.T) {
	isLE := func(e ast.Expr) bool {
		sel, ok := e.(*ast.SelectorExpr)
		if !ok {
			return false
		}
		pkg, ok := sel.X.(*ast.Ident)
		return ok && pkg.Name == "binary" && sel.Sel.Name == "LittleEndian"
	}
	fset := token.NewFileSet()
	used := map[string]bool{}
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		bound := map[string]bool{} // locals holding binary.LittleEndian
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, rhs := range n.Rhs {
					if id, ok := n.Lhs[i].(*ast.Ident); ok && len(n.Lhs) == len(n.Rhs) && isLE(rhs) {
						bound[id.Name] = true
					}
				}
			case *ast.ValueSpec:
				for i, v := range n.Values {
					if len(n.Names) == len(n.Values) && isLE(v) {
						bound[n.Names[i].Name] = true
					}
				}
			}
			return true
		})
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || (sel.Sel.Name != "Uint16" && sel.Sel.Name != "Uint32" && sel.Sel.Name != "Uint64") {
				return true
			}
			if id, ok := sel.X.(*ast.Ident); !isLE(sel.X) && !(ok && bound[id.Name]) {
				return true
			}
			if _, ok := handReadAllowlist[filepath.ToSlash(path)]; ok {
				used[filepath.ToSlash(path)] = true
			} else {
				t.Errorf("%s: hand-indexed %s read; parse through uisr.Reader", fset.Position(call.Pos()), sel.Sel.Name)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for path := range handReadAllowlist {
		if !used[path] {
			t.Errorf("%s is allowlisted but reads nothing by hand: drop it from handReadAllowlist", path)
		}
	}
}

// poolImporters names the only packages whose non-test files may import
// internal/par, each with why. The pool runs at the outermost fan-out,
// and a pool task never opens a pool: everything a scheduler batch or a
// sweep point calls is a plain loop.
var poolImporters = map[string]string{
	"internal/sched":       "runs each admitted batch of independent host operations",
	"internal/experiments": "fans out the sweep points of each figure",
	"cmd/benchfig":         "sets the pool width from -workers",
	"cmd/chaoscheck":       "sets the pool width from -workers",
	"cmd/clustersim":       "sets the pool width from -workers",
}

// TestPoolOnlyAtTheTop fails when a non-test file under internal/ or cmd/
// outside poolImporters imports internal/par, and when an allowlisted
// package no longer imports it.
func TestPoolOnlyAtTheTop(t *testing.T) {
	fset := token.NewFileSet()
	used := map[string]bool{}
	for _, root := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			file, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
			if err != nil {
				return err
			}
			for _, imp := range file.Imports {
				if imp.Path.Value != `"hypertp/internal/par"` {
					continue
				}
				dir := filepath.ToSlash(filepath.Dir(path))
				if _, ok := poolImporters[dir]; ok {
					used[dir] = true
				} else {
					t.Errorf("%s imports internal/par; only the outermost fan-out may (poolImporters)", path)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for dir := range poolImporters {
		if !used[dir] {
			t.Errorf("%s is allowlisted but does not import internal/par: drop it from poolImporters", dir)
		}
	}
}

// testOnlyPackages names the internal/ packages that only test files may
// import, each with why it is a package at all.
var testOnlyPackages = map[string]string{
	"internal/fuzzseed": "the seed-corpus and golden-file helper that the fuzz and CLI tests of several packages share; a test file cannot be imported",
}

// TestEveryPackageHasANonTestImporter fails on an internal/ package that
// no non-test Go file of the tree imports, bench/ included, outside
// testOnlyPackages. Code that only tests call belongs in the test
// files beside the code it tests, not in a package of its own.
func TestEveryPackageHasANonTestImporter(t *testing.T) {
	fset := token.NewFileSet()
	imported, pkgs := map[string]bool{}, map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir // fixtures, build caches
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		if strings.HasPrefix(dir, "internal/") {
			pkgs[dir] = true
		}
		file, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range file.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if rel, ok := strings.CutPrefix(p, "hypertp/"); ok {
				imported[rel] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("census found no packages under internal/")
	}
	names := make([]string, 0, len(pkgs))
	for pkg := range pkgs {
		names = append(names, pkg)
	}
	sort.Strings(names)
	for _, pkg := range names {
		_, allowed := testOnlyPackages[pkg]
		switch {
		case !imported[pkg] && !allowed:
			t.Errorf("%s: no non-test file imports it; move its code beside its test callers", pkg)
		case imported[pkg] && allowed:
			t.Errorf("%s is allowlisted but has a non-test importer: drop it from testOnlyPackages", pkg)
		}
	}
}

// TestNoSingleImplementationInterfaces fails on an interface declared in
// non-test internal/ code that fewer than two named types of the module
// implement, test fakes included. An interface with one implementation
// only stands between callers and the type they use, and the callers end
// up asserting their way back to it: call the type. A type implements an
// interface here when the methods it declares itself cover the
// interface's method names; a wrapper that embeds an implementation and
// adds nothing is not a second one.
func TestNoSingleImplementationInterfaces(t *testing.T) {
	fset := token.NewFileSet()
	censused := map[string]token.Position{} // "dir.Name" of each interface to check
	ifaces := map[string][]string{}         // every interface → the interfaces it embeds
	methods := map[string]map[string]bool{} // "dir.Type" → method names it declares
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() && !strings.HasSuffix(path, ".go") {
			return err
		}
		if d.IsDir() {
			_, statErr := os.Stat(filepath.Join(path, "go.mod"))
			if path != "." && (statErr == nil || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir // other modules, fixtures, build caches
			}
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		pkgDir := map[string]string{} // import name → module dir
		for _, imp := range file.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if rel, ok := strings.CutPrefix(p, "hypertp/"); ok {
				name := filepath.Base(rel)
				if imp.Name != nil {
					name = imp.Name.Name
				}
				pkgDir[name] = rel
			}
		}
		declare := func(k, name string) {
			if methods[k] == nil {
				methods[k] = map[string]bool{}
			}
			methods[k][name] = true
		}
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv != nil {
				declare(typeKey(dir, pkgDir, fn.Recv.List[0].Type), fn.Name.Name)
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok {
					return true
				}
				it, ok := ts.Type.(*ast.InterfaceType)
				if !ok {
					return false
				}
				k := dir + "." + ts.Name.Name
				ifaces[k] = nil
				for _, f := range it.Methods.List {
					for _, name := range f.Names {
						declare(k, name.Name)
					}
					if len(f.Names) == 0 {
						ifaces[k] = append(ifaces[k], typeKey(dir, pkgDir, f.Type))
					}
				}
				if strings.HasPrefix(dir, "internal/") && !strings.HasSuffix(path, "_test.go") {
					censused[k] = fset.Position(ts.Pos())
				}
				return false
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(censused) == 0 {
		t.Fatal("census found no interfaces under internal/")
	}
	// required is an interface's method names, embedded interfaces' included.
	var required func(k string, into map[string]bool)
	required = func(k string, into map[string]bool) {
		for name := range methods[k] {
			into[name] = true
		}
		for _, e := range ifaces[k] {
			required(e, into)
		}
	}
	names := make([]string, 0, len(censused))
	for iface := range censused {
		names = append(names, iface)
	}
	sort.Strings(names)
	for _, iface := range names {
		want := map[string]bool{}
		required(iface, want)
		var impls []string
	types:
		for k, have := range methods {
			if _, isIface := ifaces[k]; isIface {
				continue
			}
			for name := range want {
				if !have[name] {
					continue types
				}
			}
			impls = append(impls, k)
		}
		if len(impls) < 2 {
			sort.Strings(impls)
			t.Errorf("%s: interface %s has %d implementation(s) %v; call the type instead", censused[iface], iface, len(impls), impls)
		}
	}
}

// typeKey names the type expression e, written in a file of dir whose
// module imports are pkgDir, as "dir.Type"; "" when it is not a module
// type.
func typeKey(dir string, pkgDir map[string]string, e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return typeKey(dir, pkgDir, e.X)
	case *ast.IndexExpr:
		return typeKey(dir, pkgDir, e.X)
	case *ast.IndexListExpr:
		return typeKey(dir, pkgDir, e.X)
	case *ast.Ident:
		return dir + "." + e.Name
	case *ast.SelectorExpr:
		if pkg, ok := e.X.(*ast.Ident); ok && pkgDir[pkg.Name] != "" {
			return pkgDir[pkg.Name] + "." + e.Sel.Name
		}
	}
	return ""
}
