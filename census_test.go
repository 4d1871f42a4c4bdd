package hypertp_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
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
	"internal/uisr/reader.go":       "the bounded reader itself",
	"internal/hv/xen/convert.go":    "unpacks a fixed [1024]byte LAPIC register page, already parsed",
	"internal/hv/kvm/state.go":      "unpacks a fixed [1024]byte LAPIC register page of in-memory state",
	"internal/difffuzz/difffuzz.go": "takes a fuzz input's 8-byte mutation seed behind a length check",
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
