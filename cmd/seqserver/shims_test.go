package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// planCacheShims are the names left of the query-plan cache: documented
// no-ops (query.NewPlanCache, query.PlanCache and its Stats,
// query.PlanCacheStats, server.DefaultPlanCacheSize) that remain only
// because the benchmark module still calls them. query.Options.Plans, the
// field they fed, is checked separately: it is a field name, not a
// declaration.
var planCacheShims = map[string]bool{
	"NewPlanCache":         true,
	"PlanCache":            true,
	"PlanCacheStats":       true,
	"DefaultPlanCacheSize": true,
}

// TestPlanCacheShimsOnlyForBench fails if a non-test file outside bench/
// uses a plan-cache shim or sets or reads an Options.Plans field. Their own
// declarations are the one place the names may appear.
func TestPlanCacheShimsOnlyForBench(t *testing.T) {
	walkNonTest(t, func(fset *token.FileSet, f *ast.File) {
		for _, use := range shimUses(f) {
			t.Errorf("%s: %s is a deprecated plan-cache shim kept for bench/ only", fset.Position(use.Pos()), use.Name)
		}
	})
}

// promcheckPath is the Prometheus text parser, a test-support package:
// production code renders expositions and never parses one.
const promcheckPath = "seqstore/internal/telemetry/promcheck"

// TestPromcheckOnlyInTests fails if a non-test file imports the
// Prometheus text parser.
func TestPromcheckOnlyInTests(t *testing.T) {
	walkNonTest(t, func(fset *token.FileSet, f *ast.File) {
		for _, imp := range f.Imports {
			if strings.Trim(imp.Path.Value, "`\"") == promcheckPath {
				t.Errorf("%s: a non-test file imports %s", fset.Position(imp.Pos()), promcheckPath)
			}
		}
	})
}

// walkNonTest parses every non-test Go file of the module outside bench/
// and hands it to check.
func walkNonTest(t *testing.T, check func(fset *token.FileSet, f *ast.File)) {
	t.Helper()
	const root = "../.."
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == filepath.Join(root, "bench") || d.Name() == "testdata" || (path != root && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		check(fset, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// shimUses returns every identifier in f that names a shim, or the Plans
// field as a composite-literal key or a selector, outside the shims' own
// declarations.
func shimUses(f *ast.File) []*ast.Ident {
	var out []*ast.Ident
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if planCacheShims[n.Name.Name] || (n.Recv != nil && planCacheShims[receiverType(n.Recv.List[0].Type)]) {
				return false
			}
		case *ast.TypeSpec:
			return !planCacheShims[n.Name.Name]
		case *ast.ValueSpec:
			for _, name := range n.Names {
				if planCacheShims[name.Name] {
					return false
				}
			}
		case *ast.Field:
			for _, name := range n.Names {
				if name.Name == "Plans" {
					return false
				}
			}
		case *ast.KeyValueExpr:
			if key, ok := n.Key.(*ast.Ident); ok && key.Name == "Plans" {
				out = append(out, key)
			}
		case *ast.SelectorExpr:
			if n.Sel.Name == "Plans" {
				out = append(out, n.Sel)
			}
		case *ast.Ident:
			if planCacheShims[n.Name] {
				out = append(out, n)
			}
		}
		return true
	})
	return out
}

// receiverType returns the name of a method receiver's type, T or *T.
func receiverType(typ ast.Expr) string {
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	if id, ok := typ.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}
