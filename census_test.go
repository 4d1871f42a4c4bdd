package hypertp_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
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
