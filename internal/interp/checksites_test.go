package interp_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestCheckSitesNamed parses the interpreter and the VM with go/parser
// and fails when a row of the check-site table (checksites.go) is named by
// no non-test code, or when two rows share a name. A stale row cannot
// exist; a check that names no row does not compile.
func TestCheckSitesNamed(t *testing.T) {
	fset := token.NewFileSet()
	var files []*ast.File
	for _, dir := range []string{".", "../vm"} {
		paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range paths {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
	}
	rows := map[string]string{}     // row variable → row name
	decls := map[*ast.Ident]bool{}  // the identifiers that declare rows
	names := map[string]token.Pos{} // row name → first declaration
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			spec, ok := n.(*ast.ValueSpec)
			if !ok {
				return true
			}
			for i, v := range spec.Values {
				call, ok := v.(*ast.CallExpr)
				if !ok {
					continue
				}
				if fn, ok := call.Fun.(*ast.Ident); !ok || fn.Name != "checkSite" {
					continue
				}
				lit, ok := call.Args[0].(*ast.BasicLit)
				if !ok {
					t.Fatalf("%s: a row's name must be a string literal", fset.Position(call.Pos()))
				}
				name, _ := strconv.Unquote(lit.Value)
				if first, dup := names[name]; dup {
					t.Errorf("%s: row %q is also declared at %s", fset.Position(lit.Pos()), name, fset.Position(first))
				}
				names[name] = lit.Pos()
				rows[spec.Names[i].Name] = name
				decls[spec.Names[i]] = true
			}
			return true
		})
	}
	if len(rows) == 0 {
		t.Fatal("no checkSite rows found")
	}
	used := map[string]bool{}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !decls[id] {
				used[id.Name] = true
			}
			return true
		})
	}
	for v, name := range rows {
		if !used[v] {
			t.Errorf("row %q (%s) is named by no check", name, v)
		}
	}
}
