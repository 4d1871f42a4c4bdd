package orchestrator

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"strings"
	"testing"
)

// maxFuncLines is the longest a non-test function in this package may be.
// The fleet layer once held a 426-line function with five nested
// closures; the census is a gate so that cannot grow back.
const maxFuncLines = 100

func TestNoLongFunctions(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
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
		t.Fatal("census parsed no functions")
	}
}
