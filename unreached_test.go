package briq_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// interfaceMethods are method names that the standard library calls through
// an interface (fmt.Stringer, error, http.Handler, io.Writer, sort.Interface,
// json.Marshaler, ...), so no identifier in this module needs to name them.
var interfaceMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true, "Is": true,
	"ServeHTTP": true, "Write": true, "WriteHeader": true, "Header": true,
	"Read": true, "Close": true, "Len": true, "Less": true, "Swap": true,
	"MarshalJSON": true, "UnmarshalJSON": true,
}

// testOnly lists exported functions that only tests reach, on purpose: each
// backs a reported result or reads production state for a check.
var testOnly = map[string]string{
	"internal/corpus.SimulateAnnotation":       "the 8-annotator protocol of EXPERIMENTS' annotation section (§VII-A)",
	"internal/mlmetrics.FleissKappa":           "the agreement SimulateAnnotation reports against the paper's κ",
	"internal/experiment.MeasureThroughput":    "Table VIII's speed-up over RWR-only, run by the root benchmark",
	"internal/experiment.NewILP":               "the ILP baseline of BenchmarkILPPipeline (EXPERIMENTS §VI)",
	"internal/table.ExtendedVirtualOptions":    "the avg/min/max virtual cells of TestPairSumsNoQualityImpact (§II-A)",
	"internal/graph.(*Graph).RWR":              "one walk, checked against ReferenceRWR by the graph equivalence tests",
	"internal/graph.(*Graph).NodeCount":        "the size of a built graph, read by the graph tests",
	"internal/graph.(*Graph).EdgeCount":        "the size of a built graph, read by the graph and keep-only tests",
	"internal/facts.(*View).All":               "the whole view, checked against Dedupe of every batch",
	"internal/facts.(*View).Offered":           "the view's fact count, checked against its contents",
	"internal/quantsearch.(*Index).Units":      "the index's unit counts, read by TestUnitsView",
	"internal/quantsearch.(*Index).Tombstones": "the index's removed entries, read by the store's replay test",
	"internal/serve.CounterNames":              "the serving counters' schema, pinned by the engine tests",
	"internal/store.CounterNames":              "the store counters' schema, pinned by the store tests",
	"internal/gateway.(*Ring).Owner":           "the ring's key placement, checked by the gateway tests",
	"internal/quantity.Agg.Arity":              "each aggregation's input-cell bounds, checked by the quantity tests",
}

// TestNoUnreachedCode fails on code that no binary, route or example can
// reach: an internal package that no other package's non-test file imports,
// and an exported function or method under internal/ or cmd/ that no
// identifier in a non-test file names, outside its own declaration and other
// unreached ones. It parses every non-test file of the module, bench/
// included, and matches by name, so a name shared with a live identifier can
// hide a dead export but never flags a live one. The root package and client
// are not checked: their callers live outside this module.
func TestNoUnreachedCode(t *testing.T) {
	type decl struct {
		key, name, pos string
		names          map[string]int // identifiers inside it, its own name excluded
	}
	var (
		fset     = token.NewFileSet()
		imported = map[string]bool{} // import paths of non-test files
		pkgs     = map[string]bool{} // internal package dirs with non-test files
		named    = map[string]int{}  // identifiers in non-test files, declared names excluded
		decls    []decl              // exported functions under internal/ and cmd/
	)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			// The go command's own rule for directories it never builds.
			if path != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		if strings.HasPrefix(dir, "internal/") {
			pkgs[dir] = true
		}
		for _, im := range f.Imports {
			imported[strings.Trim(im.Path.Value, `"`)] = true
		}
		checked := strings.HasPrefix(dir, "internal/") || strings.HasPrefix(dir, "cmd/")
		ast.Inspect(f, func(n ast.Node) bool {
			fn, ok := n.(*ast.FuncDecl)
			if !ok {
				if id, ok := n.(*ast.Ident); ok {
					named[id.Name]++
				}
				return true
			}
			d := decl{dir + "." + funcName(fn), fn.Name.Name, fset.Position(fn.Pos()).String(), map[string]int{}}
			ast.Inspect(fn, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok && id != fn.Name {
					d.names[id.Name]++
					named[id.Name]++
				}
				return true
			})
			if checked && fn.Name.IsExported() && (fn.Recv == nil || !interfaceMethods[fn.Name.Name]) {
				decls = append(decls, d)
			}
			return false
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var failures []string
	for dir := range pkgs {
		if !imported["briq/"+dir] {
			failures = append(failures, dir+": no non-test file of another package imports it")
		}
	}
	// A declaration named only inside unreached declarations is unreached
	// too: drop their names until no more declarations fall.
	unreached := make([]bool, len(decls))
	for changed := true; changed; {
		changed = false
		for i, d := range decls {
			if !unreached[i] && named[d.name] == 0 {
				unreached[i], changed = true, true
				for n, c := range d.names {
					named[n] -= c
				}
			}
		}
	}
	allowed := map[string]bool{}
	for i, d := range decls {
		if !unreached[i] {
			continue
		}
		if _, ok := testOnly[d.key]; ok {
			allowed[d.key] = true
			continue
		}
		failures = append(failures, d.pos+": "+d.key+": no non-test file reaches it")
	}
	for key := range testOnly {
		if !allowed[key] {
			failures = append(failures, key+": allowlisted, but not an unreached declaration; drop the entry")
		}
	}
	sort.Strings(failures)
	for _, f := range failures {
		t.Error(f)
	}
}

// funcName renders a declaration as Func, Type.Method or (*Type).Method.
func funcName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return fn.Name.Name
	}
	typ := fn.Recv.List[0].Type
	star := false
	if s, ok := typ.(*ast.StarExpr); ok {
		typ, star = s.X, true
	}
	switch g := typ.(type) {
	case *ast.IndexExpr:
		typ = g.X
	case *ast.IndexListExpr:
		typ = g.X
	}
	recv := typ.(*ast.Ident).Name
	if star {
		recv = "(*" + recv + ")"
	}
	return recv + "." + fn.Name.Name
}
