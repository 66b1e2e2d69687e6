package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// servingPackages are the directories, relative to this one, whose code
// serves stores: the facade and the packages behind /v1.
var servingPackages = []string{
	"../..",
	"../../internal/api",
	"../../internal/cluster",
	"../../internal/ingest",
	"../../internal/query",
	"../../internal/server",
}

// TestServingPathSeesOneStoreKind fails if the serving path tells store
// kinds apart by type again. A plain-SVD store is served as a core.Store
// with no deltas, so no non-test file there may type-assert or type-switch
// on *svd.Store, and each package asserts *core.Store at most once — to
// tell a factored store from the methods without factors.
func TestServingPathSeesOneStoreKind(t *testing.T) {
	for _, dir := range servingPackages {
		fset := token.NewFileSet()
		paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		var coreAsserts []string
		for _, path := range paths {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, typ := range assertedTypes(f) {
				switch storeKind(f, typ) {
				case "seqstore/internal/svd":
					t.Errorf("%s: type assertion or case on *svd.Store", fset.Position(typ.Pos()))
				case "seqstore/internal/core":
					coreAsserts = append(coreAsserts, fset.Position(typ.Pos()).String())
				}
			}
		}
		if len(coreAsserts) > 1 {
			t.Errorf("%s asserts *core.Store %d times, want at most once: %s",
				dir, len(coreAsserts), strings.Join(coreAsserts, ", "))
		}
	}
}

// assertedTypes returns the types f asserts to: the target of every type
// assertion and every case of every type switch.
func assertedTypes(f *ast.File) []ast.Expr {
	var out []ast.Expr
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.TypeAssertExpr:
			if n.Type != nil { // nil in a type switch's x.(type)
				out = append(out, n.Type)
			}
		case *ast.TypeSwitchStmt:
			for _, stmt := range n.Body.List {
				out = append(out, stmt.(*ast.CaseClause).List...)
			}
		}
		return true
	})
	return out
}

// storeKind returns the import path of the package whose Store typ points
// to — *pkg.Store — or "" for any other type.
func storeKind(f *ast.File, typ ast.Expr) string {
	star, ok := typ.(*ast.StarExpr)
	if !ok {
		return ""
	}
	sel, ok := star.X.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Store" {
		return ""
	}
	pkg, ok := sel.X.(*ast.Ident)
	if !ok {
		return ""
	}
	for _, imp := range f.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		name := filepath.Base(path)
		if imp.Name != nil {
			name = imp.Name.Name
		}
		if name == pkg.Name {
			return path
		}
	}
	return ""
}
