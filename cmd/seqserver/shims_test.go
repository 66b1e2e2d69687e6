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

// planCacheShims are the names kept only because the benchmark module
// still calls them: what is left of the query-plan cache, documented
// no-ops (query.NewPlanCache, query.PlanCache and its Stats,
// query.PlanCacheStats, server.DefaultPlanCacheSize), and
// query.SplitSelection, the per-row split the proxy replaced by splitting a
// spec's runs. query.Options.Plans, the field the cache shims fed, is
// checked separately: it is a field name, not a declaration.
var planCacheShims = map[string]bool{
	"NewPlanCache":         true,
	"PlanCache":            true,
	"PlanCacheStats":       true,
	"DefaultPlanCacheSize": true,
	"SplitSelection":       true,
}

// TestPlanCacheShimsOnlyForBench fails if a non-test file outside bench/
// uses a shim or sets or reads an Options.Plans field. Their own
// declarations are the one place the names may appear.
func TestPlanCacheShimsOnlyForBench(t *testing.T) {
	walkNonTest(t, func(fset *token.FileSet, f *ast.File) {
		for _, use := range shimUses(f) {
			t.Errorf("%s: %s is a deprecated shim kept for bench/ only", fset.Position(use.Pos()), use.Name)
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

// TestWidthChoosesCompressor fails if a non-test file outside bench/ sets
// a Compressor field (core.Options.Compressor is the one left, deprecated)
// or names svd.CompressorGram or svd.CompressorRandomized: the source's
// width chooses the factor algorithm (svd.FactorsByWidth). core's
// forcedFactors, which honours the deprecated field for bench/, is the one
// place the names may appear.
func TestWidthChoosesCompressor(t *testing.T) {
	walkNonTest(t, func(fset *token.FileSet, f *ast.File) {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				return !(f.Name.Name == "core" && n.Name.Name == "forcedFactors")
			case *ast.KeyValueExpr:
				if key, ok := n.Key.(*ast.Ident); ok && key.Name == "Compressor" {
					t.Errorf("%s: sets a Compressor field; the source's width chooses the factor algorithm", fset.Position(key.Pos()))
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok && sel.Sel.Name == "Compressor" {
						t.Errorf("%s: sets a Compressor field; the source's width chooses the factor algorithm", fset.Position(sel.Pos()))
					}
				}
			case *ast.SelectorExpr:
				if pkg, ok := n.X.(*ast.Ident); ok && pkg.Name == "svd" && (n.Sel.Name == "CompressorGram" || n.Sel.Name == "CompressorRandomized") {
					t.Errorf("%s: names svd.%s; the source's width chooses the factor algorithm", fset.Position(n.Pos()), n.Sel.Name)
				}
			}
			return true
		})
	})
}

// TestCapFoldOnlyForBench fails if a non-test file outside bench/ calls
// the two-argument core.(*Store).FoldIn — the per-row delta cap, which
// breaks the store's bound on the cells it leaves out — or names
// ingest.DefaultMaxDeltas: a fold pins what the store's bound τ says
// (core.(*Store).Fold). Both are kept, deprecated, for bench/ only; the
// constant's own declaration is the one place its name may appear.
func TestCapFoldOnlyForBench(t *testing.T) {
	walkNonTest(t, func(fset *token.FileSet, f *ast.File) {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ValueSpec:
				for _, name := range n.Names {
					if name.Name == "DefaultMaxDeltas" {
						return false
					}
				}
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "FoldIn" && len(n.Args) == 2 {
					t.Errorf("%s: calls the capped FoldIn(row, maxDeltas); fold with Fold(row), which pins by the store's bound", fset.Position(n.Pos()))
				}
			case *ast.Ident:
				if n.Name == "DefaultMaxDeltas" {
					t.Errorf("%s: names DefaultMaxDeltas; a fold pins by the store's bound, not a per-row cap", fset.Position(n.Pos()))
				}
			}
			return true
		})
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
