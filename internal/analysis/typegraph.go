package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// TypeGraph is the cross-package view the v2 analyzers share: every
// module-internal package that has been type-checked so far, in import
// (topological) order. Per-file AST analyzers see one package at a time;
// the graph lets them resolve identities across package boundaries —
// "is this expression a *timeline.Recorder?", "does this call land in
// runpool?" — which is what turns a per-file linter into a package-level
// determinism analysis.
//
// The graph is best-effort like the rest of the engine: a package that
// failed to type-check is still present (possibly incomplete), and every
// query degrades to "unknown" rather than guessing.
type TypeGraph struct {
	fset *token.FileSet
	pkgs map[string]*types.Package
}

// newTypeGraph builds an empty graph over one file set.
func newTypeGraph(fset *token.FileSet) *TypeGraph {
	return &TypeGraph{fset: fset, pkgs: map[string]*types.Package{}}
}

// add registers one checked package.
func (g *TypeGraph) add(path string, pkg *types.Package) {
	if pkg != nil {
		g.pkgs[path] = pkg
	}
}

// Package returns the checked package for an import path, or nil.
func (g *TypeGraph) Package(path string) *types.Package {
	if g == nil {
		return nil
	}
	return g.pkgs[path]
}

// IsNamedType reports whether t is (a pointer to) the named type
// pkgPath.name. It answers by object identity when the graph knows the
// package and by qualified name otherwise, so it works both over the real
// module and over synthetic fixture packages that mimic a module path.
func IsNamedType(t types.Type, pkgPath, name string) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// CalleePkgFunc resolves a call of the form pkg.Func(...) to the callee's
// import path and function name. It returns ("", "") for method calls,
// local calls, and anything it cannot attribute to an imported package.
func (p *Pass) CalleePkgFunc(file *ast.File, call *ast.CallExpr) (pkgPath, fn string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	base, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", ""
	}
	path := p.PkgName(file, base)
	if path == "" {
		return "", ""
	}
	return path, sel.Sel.Name
}

// DeclaredOutside reports whether the identifier's declaration lies
// outside the [lo, hi] node span — i.e. the identifier is a free variable
// of a closure spanning that range. Package-level declarations always
// count as outside. When type information for the identifier is missing
// the answer is "unknown" (false, false).
func (p *Pass) DeclaredOutside(id *ast.Ident, lo, hi token.Pos) (outside, known bool) {
	obj := p.Info.Uses[id]
	if obj == nil {
		obj = p.Info.Defs[id]
	}
	v, ok := obj.(*types.Var)
	if !ok || v.Pos() == token.NoPos {
		return false, false
	}
	return v.Pos() < lo || v.Pos() > hi, true
}
