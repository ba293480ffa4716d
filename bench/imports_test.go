package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"briq/internal/api"
)

// The benchmark reaches the system only through its supported surface, so
// removing deprecated or duplicate code elsewhere never needs a benchmark
// edit: the typed client, the non-deprecated facade, and the internal
// packages whose public calls the component pass times.
var allowedImports = map[string]bool{
	"briq":                      true,
	"briq/client":               true,
	"briq/internal/corpus":      true,
	"briq/internal/htmlx":       true,
	"briq/internal/document":    true,
	"briq/internal/core":        true,
	"briq/internal/filter":      true,
	"briq/internal/serve":       true,
	"briq/internal/store":       true,
	"briq/internal/ingest":      true,
	"briq/internal/quantsearch": true,
	"briq/internal/facts":       true,
	"briq/internal/api":         true,
	"briq/internal/obs":         true,
}

// facadeNames are the briq facade identifiers the benchmark may use.
var facadeNames = map[string]bool{
	"NewFromModelFile": true, "WithRecorder": true, "NewRecorder": true, "Pipeline": true,
}

// forbiddenNames are identifiers on their way out: the three duplicate store
// write paths, deprecated shims, resolver options, reference oracles.
var forbiddenNames = map[string]bool{
	"Sink": true, "SetOnStore": true, "AddDocument": true,
	"NewTrained": true, "AlignHTML": true,
	"WithResolver": true, "WithILPBudget": true, "WithGreedyMinScore": true, "ResolverNames": true, "KnownResolver": true,
	"ReferenceRWR": true, "ReferenceResolve": true, "ReferenceClassify": true,
}

func TestImportAllowList(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var routes []string
	for _, r := range api.Surface() {
		routes = append(routes, r.Path)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if name == "imports_test.go" {
			continue // this file names the forbidden identifiers
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			first, _, _ := strings.Cut(path, "/")
			if !strings.Contains(first, ".") && first != "briq" {
				continue // standard library
			}
			if !allowedImports[path] {
				t.Errorf("%s imports %s, outside the allow-list", fset.Position(imp.Pos()), path)
			}
		}
		versioned := map[*ast.BasicLit]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				// api.Versioned("/align") is how a route literal may appear.
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Versioned" {
					for _, a := range n.Args {
						if lit, ok := a.(*ast.BasicLit); ok {
							versioned[lit] = true
						}
					}
				}
			case *ast.SelectorExpr:
				if forbiddenNames[n.Sel.Name] {
					t.Errorf("%s references %s", fset.Position(n.Pos()), n.Sel.Name)
				}
				if x, ok := n.X.(*ast.Ident); ok && x.Name == "briq" && !facadeNames[n.Sel.Name] {
					t.Errorf("%s uses briq.%s, outside the allowed facade", fset.Position(n.Pos()), n.Sel.Name)
				}
			case *ast.BasicLit:
				if n.Kind != token.STRING || versioned[n] {
					return true
				}
				s, _ := strconv.Unquote(n.Value)
				if strings.Contains(s, "resolve/ilp") || strings.Contains(s, "resolve/greedy") {
					t.Errorf("%s names a non-default resolver stage: %q", fset.Position(n.Pos()), s)
				}
				for _, r := range routes {
					if s == r || strings.HasPrefix(s, r+"?") || strings.HasPrefix(s, r+"/") {
						t.Errorf("%s: route literal %q outside api.Versioned", fset.Position(n.Pos()), s)
					}
				}
			}
			return true
		})
	}
}
