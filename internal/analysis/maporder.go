package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// NewMapOrder builds the maporder analyzer: it flags `for range` over a
// map whose body accumulates into a slice declared outside the loop (or
// prints directly) when no sort of that slice follows in the same
// function, and unconditional `return` statements inside the body whose
// value depends on the loop variables. Map iteration order is randomized
// per run, so the former makes figure and report output differ between
// identical invocations and the latter returns an arbitrary map entry.
func NewMapOrder() *Analyzer {
	return &Analyzer{
		Name: "maporder",
		Doc:  "flag map iteration feeding slices or output without a subsequent sort",
		Run:  runMapOrder,
	}
}

func runMapOrder(pass *Pass) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			default:
				return true
			}
			if body != nil {
				checkFuncMapRanges(pass, file, body)
			}
			return true
		})
	}
}

// checkFuncMapRanges inspects one function body for unordered map ranges.
// Nested function literals are checked by their own runMapOrder visit.
func checkFuncMapRanges(pass *Pass, file *ast.File, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok && n.Pos() != body.Pos() {
			return false
		}
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		if !isMapType(pass.TypeOf(rng.X)) {
			return true
		}
		for _, target := range appendTargets(rng) {
			name := target.Name
			if !sortedAfter(body, rng, name) {
				fixes := sortInsertFix(pass, file, rng, target)
				pass.ReportFixf(rng.Pos(), Warning, fixes,
					"map range appends to %q with no subsequent sort: iteration order is randomized per run, making output non-reproducible", name)
			}
		}
		if pos, fn := printsInside(pass, rng); pos != token.NoPos {
			pass.Reportf(pos, Warning,
				"map range calls %s directly: iteration order is randomized per run, making printed output non-reproducible", fn)
		}
		if pos := unconditionalReturn(rng); pos != token.NoPos {
			pass.Reportf(pos, Warning,
				"map range returns a value derived from its loop variables on the first iteration: iteration order is randomized per run, so an arbitrary entry is returned")
		}
		return true
	})
}

// isMapType reports whether t (possibly nil) has a map underlying type.
func isMapType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// appendTargets returns identifiers of variables declared outside the
// range body that its statements grow via append.
func appendTargets(rng *ast.RangeStmt) []*ast.Ident {
	declared := map[string]bool{}
	// The loop variables themselves are per-iteration.
	for _, e := range []ast.Expr{rng.Key, rng.Value} {
		if id, ok := e.(*ast.Ident); ok {
			declared[id.Name] = true
		}
	}
	seen := map[string]bool{}
	var out []*ast.Ident
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			if st.Tok == token.DEFINE {
				for _, lhs := range st.Lhs {
					if id, ok := lhs.(*ast.Ident); ok {
						declared[id.Name] = true
					}
				}
				return true
			}
			for i, rhs := range st.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok || i >= len(st.Lhs) {
					continue
				}
				fn, ok := call.Fun.(*ast.Ident)
				if !ok || fn.Name != "append" {
					continue
				}
				id, ok := st.Lhs[i].(*ast.Ident)
				if !ok || declared[id.Name] || seen[id.Name] {
					continue
				}
				seen[id.Name] = true
				out = append(out, id)
			}
		case *ast.DeclStmt:
			if gd, ok := st.Decl.(*ast.GenDecl); ok {
				for _, spec := range gd.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok {
						for _, id := range vs.Names {
							declared[id.Name] = true
						}
					}
				}
			}
		}
		return true
	})
	return out
}

// sortedAfter reports whether, after the range statement ends, the
// function body contains a sort-like call mentioning name.
func sortedAfter(body *ast.BlockStmt, rng *ast.RangeStmt, name string) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() <= rng.End() {
			return true
		}
		if !isSortCall(call) {
			return true
		}
		for _, arg := range call.Args {
			if mentionsIdent(arg, name) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// isSortCall recognizes sort.X / slices.SortX calls and method calls whose
// name contains "Sort".
func isSortCall(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if id, ok := sel.X.(*ast.Ident); ok && (id.Name == "sort" || id.Name == "slices") {
		return true
	}
	return sel.Sel.Name == "Sort"
}

// mentionsIdent reports whether expr contains an identifier named name.
func mentionsIdent(expr ast.Expr, name string) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == name {
			found = true
			return false
		}
		return !found
	})
	return found
}

// printsInside returns the position and name of the first fmt print call
// inside the range body writing to output, or NoPos.
func printsInside(pass *Pass, rng *ast.RangeStmt) (token.Pos, string) {
	var pos token.Pos
	var fn string
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if pos != token.NoPos {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		base, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		for _, file := range pass.Files {
			if file.Pos() <= call.Pos() && call.Pos() <= file.End() {
				if pass.PkgName(file, base) == "fmt" && isPrintName(sel.Sel.Name) {
					pos, fn = call.Pos(), "fmt."+sel.Sel.Name
				}
				break
			}
		}
		return true
	})
	return pos, fn
}

// unconditionalReturn finds a `return` that executes on the loop's first
// iteration — a direct statement of the range body (possibly behind plain
// block nesting, never behind if/switch/select) — whose result mentions a
// loop variable. Returns behind a condition are a legitimate search over
// the map and stay unflagged.
func unconditionalReturn(rng *ast.RangeStmt) token.Pos {
	loopVars := map[string]bool{}
	for _, e := range []ast.Expr{rng.Key, rng.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			loopVars[id.Name] = true
		}
	}
	if len(loopVars) == 0 {
		return token.NoPos
	}
	stmts := rng.Body.List
	for len(stmts) > 0 {
		switch st := stmts[0].(type) {
		case *ast.BlockStmt:
			stmts = append(append([]ast.Stmt{}, st.List...), stmts[1:]...)
			continue
		case *ast.ReturnStmt:
			for _, res := range st.Results {
				for name := range loopVars {
					if mentionsIdent(res, name) {
						return st.Pos()
					}
				}
			}
			return token.NoPos
		case *ast.AssignStmt, *ast.DeclStmt, *ast.ExprStmt, *ast.IncDecStmt:
			// Straight-line statements cannot skip a following return.
			stmts = stmts[1:]
			continue
		}
		// Anything with control flow (if, for, switch, ...) makes a later
		// return conditional enough: stop.
		return token.NoPos
	}
	return token.NoPos
}

// sortInsertFix builds the mechanical rewrite for an append-without-sort
// finding: insert `slices.Sort(name)` directly after the range loop (plus
// the "slices" import when missing). Only slices of ordered basic types
// (strings, numbers) get a fix — sorting them deterministically is
// unambiguous, whereas struct slices need a human-chosen key.
func sortInsertFix(pass *Pass, file *ast.File, rng *ast.RangeStmt, target *ast.Ident) []Edit {
	if !sortableSlice(pass, target) {
		return nil
	}
	edits := []Edit{{
		Pos:     rng.End(),
		End:     rng.End(),
		NewText: "\nslices.Sort(" + target.Name + ")",
	}}
	if imp := importSlicesFix(file); imp != nil {
		edits = append(edits, *imp)
	}
	return edits
}

// sortableSlice reports whether the identifier is a slice of an ordered
// basic type.
func sortableSlice(pass *Pass, id *ast.Ident) bool {
	obj := pass.Info.Uses[id]
	if obj == nil {
		obj = pass.Info.Defs[id]
	}
	if obj == nil {
		return false
	}
	sl, ok := obj.Type().Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && b.Info()&(types.IsOrdered) != 0
}

// importSlicesFix returns the edit adding the "slices" import, or nil
// when the file already imports it.
func importSlicesFix(file *ast.File) *Edit {
	var impDecl *ast.GenDecl
	for _, decl := range file.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.IMPORT {
			continue
		}
		impDecl = gd
		for _, spec := range gd.Specs {
			if is, ok := spec.(*ast.ImportSpec); ok && is.Path.Value == `"slices"` {
				return nil
			}
		}
	}
	switch {
	case impDecl != nil && impDecl.Rparen.IsValid():
		return &Edit{Pos: impDecl.Rparen, End: impDecl.Rparen, NewText: "\"slices\"\n"}
	case impDecl != nil:
		return &Edit{Pos: impDecl.End(), End: impDecl.End(), NewText: "\nimport \"slices\""}
	default:
		return &Edit{Pos: file.Name.End(), End: file.Name.End(), NewText: "\n\nimport \"slices\""}
	}
}

// isPrintName matches fmt's printing functions (not Sprintf-style, whose
// result may be sorted later).
func isPrintName(name string) bool {
	switch name {
	case "Print", "Printf", "Println", "Fprint", "Fprintf", "Fprintln":
		return true
	}
	return false
}
