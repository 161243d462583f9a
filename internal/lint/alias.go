// no-alias-escape: the copy-on-hit contract (PR 8's aliasing class).
// Exported methods on the shared cache packages (resultcache, plancache,
// llap, and the generic cache they are built on) must not return interior
// slices or maps of cached state: a caller appending to or mutating such a
// value poisons rows served to every other session. A value read out of a
// generic cache (a call to a method of package cache on cached state) is
// cached state too. Returning a fresh header (append([]T(nil), x...)) or
// any other call result is fine; pointer shares (decoded vectors, cached readers)
// are governed by the immutable-by-contract rule and the -tags stress
// deep-freeze instead, so only slice- and map-typed returns are flagged.
package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// NoAliasEscape is the cache-aliasing analyzer.
const noAliasEscapeName = "no-alias-escape"

var NoAliasEscape = &Analyzer{
	Name: noAliasEscapeName,
	Doc:  "cache methods must not return interior slices/maps of cached state without copying",
	Run:  runNoAliasEscape,
}

// aliasPkgs are the shared-cache packages under the contract, by package
// name (fixtures declare miniature packages with the same names).
var aliasPkgs = map[string]bool{"resultcache": true, "plancache": true, "llap": true, "cache": true}

func runNoAliasEscape(w *Workspace) []Diagnostic {
	var diags []Diagnostic
	for _, fn := range w.Functions() {
		if !aliasPkgs[fn.Pkg.Types.Name()] {
			continue
		}
		if fn.Decl.Recv == nil || !fn.Obj.Exported() {
			continue
		}
		info := fn.Pkg.Info
		recvObjs := map[types.Object]bool{}
		for _, o := range funcParamsAndReceiver(fn.Pkg, fn.Decl) {
			// Only the receiver taints; parameters are caller-owned.
			recvObjs[o] = false
		}
		if len(fn.Decl.Recv.List) == 1 && len(fn.Decl.Recv.List[0].Names) == 1 {
			if o := info.Defs[fn.Decl.Recv.List[0].Names[0]]; o != nil {
				recvObjs[o] = true
			}
		}

		tainted := map[types.Object]bool{}
		for o, isRecv := range recvObjs {
			if isRecv {
				tainted[o] = true
			}
		}

		// taintedExpr: the expression reads cached state through the
		// receiver without an intervening copy. Calls launder (append,
		// constructors), except a generic cache's methods called on cached
		// state, which return what the cache holds; composite literals and
		// unary/binary ops produce fresh values.
		var taintedExpr func(e ast.Expr) bool
		taintedExpr = func(e ast.Expr) bool {
			switch x := ast.Unparen(e).(type) {
			case *ast.Ident:
				obj := info.Uses[x]
				if obj == nil {
					obj = info.Defs[x]
				}
				return obj != nil && tainted[obj]
			case *ast.SelectorExpr:
				return taintedExpr(x.X)
			case *ast.IndexExpr:
				return taintedExpr(x.X)
			case *ast.SliceExpr:
				return taintedExpr(x.X)
			case *ast.StarExpr:
				return taintedExpr(x.X)
			case *ast.TypeAssertExpr:
				return taintedExpr(x.X)
			case *ast.CallExpr:
				sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr)
				if !ok {
					return false
				}
				m := info.Selections[sel]
				return m != nil && m.Kind() == types.MethodVal && m.Obj().Pkg() != nil &&
					m.Obj().Pkg().Name() == "cache" && taintedExpr(sel.X)
			}
			return false
		}

		// Forward pass in source order: propagate taint through simple
		// assignments and range statements, flag tainted slice/map returns.
		ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range x.Lhs {
					if i >= len(x.Rhs) {
						break
					}
					id, ok := ast.Unparen(lhs).(*ast.Ident)
					if !ok {
						continue
					}
					obj := info.Defs[id]
					if obj == nil {
						obj = info.Uses[id]
					}
					if obj == nil {
						continue
					}
					if taintedExpr(x.Rhs[i]) {
						tainted[obj] = true
					}
				}
			case *ast.RangeStmt:
				if x.X != nil && taintedExpr(x.X) {
					for _, v := range []ast.Expr{x.Key, x.Value} {
						if id, ok := v.(*ast.Ident); ok && id != nil {
							if obj := info.Defs[id]; obj != nil {
								tainted[obj] = true
							}
						}
					}
				}
			case *ast.ReturnStmt:
				for _, r := range x.Results {
					if !taintedExpr(r) {
						continue
					}
					t := info.Types[r].Type
					if t == nil {
						continue
					}
					switch t.Underlying().(type) {
					case *types.Slice, *types.Map:
						diags = append(diags, Diagnostic{
							Pos:      w.Position(r.Pos()),
							Analyzer: noAliasEscapeName,
							Message: fmt.Sprintf("%s returns an interior %s of cached state without copying; callers can mutate shared cache content",
								fn.Obj.Name(), kindWord(t)),
						})
					}
				}
			}
			return true
		})
	}
	return diags
}

func kindWord(t types.Type) string {
	if _, ok := t.Underlying().(*types.Map); ok {
		return "map"
	}
	return "slice"
}
