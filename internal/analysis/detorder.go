package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// DetOrder flags map iteration whose per-iteration effects land in an
// ordered structure, making the output depend on Go's randomized map
// order.
//
// The SOFDA pipeline's equivalence proofs (distributed == centralized,
// in-process == wire, pruned == unpruned) and the dominated-candidate
// prune rule all assume deterministic tie-breaking; a map-ordered append or
// winner selection silently breaks bit-identical costs on retry. Flagged
// shapes, for `range m` where m is a map:
//
//   - an append to a slice declared outside the loop (directly, or through
//     a closure called from the body) with no sort of that slice later in
//     the function;
//   - a send on a channel declared outside the loop;
//   - the range *key* assigned to a variable declared outside the loop
//     (nondeterministic winner selection among ties);
//   - `+=` or `-=` onto a floating-point variable declared outside the
//     loop, or onto a field selected from one: float addition is not
//     associative, so the sum's low bits follow map order.
//
// Other value-only aggregation (integer sums, maxima of the values) is not
// flagged: it is order-independent. The fix is almost always to collect
// and sort the keys, then range over the sorted slice.
var DetOrder = &Analyzer{
	Name: "detorder",
	Doc:  "map iteration must not feed ordered output without a deterministic sort between",
	Run:  runDetOrder,
}

func runDetOrder(pass *Pass) error {
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFuncMapOrder(pass, fd)
		}
	}
	return nil
}

func checkFuncMapOrder(pass *Pass, fd *ast.FuncDecl) {
	info := pass.TypesInfo

	// Closures bound to a variable whose body appends to state declared
	// outside themselves: calling one per map iteration writes in map
	// order just as surely as an inline append.
	appendingClosures := make(map[types.Object]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range as.Rhs {
			fl, ok := ast.Unparen(rhs).(*ast.FuncLit)
			if !ok || i >= len(as.Lhs) {
				continue
			}
			id, ok := as.Lhs[i].(*ast.Ident)
			if !ok {
				continue
			}
			obj := objectOf(info, id)
			if obj != nil && closureWritesOrderedState(pass, fl) {
				appendingClosures[obj] = true
			}
		}
		return true
	})

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := info.Types[rs.X].Type
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		checkMapRange(pass, fd, rs, appendingClosures)
		return true
	})
}

// declaredOutside reports whether obj was declared outside the [lo,hi]
// source range (i.e. outside the loop whose effects we are judging).
func declaredOutside(obj types.Object, lo, hi token.Pos) bool {
	return obj != nil && (obj.Pos() < lo || obj.Pos() > hi)
}

func checkMapRange(pass *Pass, fd *ast.FuncDecl, rs *ast.RangeStmt, appendingClosures map[types.Object]bool) {
	info := pass.TypesInfo
	var keyObj types.Object
	if id, ok := rs.Key.(*ast.Ident); ok && id.Name != "_" {
		keyObj = objectOf(info, id)
	}

	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				return true
			}
			for i, lhs := range n.Lhs {
				if n.Tok == token.ADD_ASSIGN || n.Tok == token.SUB_ASSIGN {
					if root := sumRoot(lhs); root != nil && isFloat(info.TypeOf(lhs)) &&
						declaredOutside(objectOf(info, root), rs.Pos(), rs.End()) {
						pass.Reportf(n.Pos(),
							"float sum into %q inside map iteration: rounding follows randomized map order; iterate sorted keys",
							types.ExprString(lhs))
					}
					continue
				}
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok {
					continue
				}
				obj := objectOf(info, id)
				if !declaredOutside(obj, rs.Pos(), rs.End()) {
					continue
				}
				// s = append(s, ...): ordered output accumulation.
				if i < len(n.Rhs) && isAppendCall(n.Rhs[i]) {
					if !sortedAfter(pass, fd, rs, obj) {
						pass.Reportf(n.Pos(),
							"append to %q inside map iteration: output order follows randomized map order; sort the keys first or sort %q afterwards",
							id.Name, id.Name)
					}
					continue
				}
				// conflict = k: winner selection tie-broken by map order.
				if keyObj != nil && n.Tok == token.ASSIGN && i < len(n.Rhs) && exprIsObject(info, n.Rhs[i], keyObj) {
					pass.Reportf(n.Pos(),
						"map key %q assigned to outer variable %q inside map iteration: winner selection among ties follows randomized map order; iterate sorted keys",
						keyObj.Name(), id.Name)
				}
			}
		case *ast.SendStmt:
			if id, ok := ast.Unparen(n.Chan).(*ast.Ident); ok {
				obj := objectOf(info, id)
				if declaredOutside(obj, rs.Pos(), rs.End()) {
					pass.Reportf(n.Pos(),
						"send on %q inside map iteration: emission order follows randomized map order; iterate sorted keys", id.Name)
				}
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
				if obj := objectOf(info, id); obj != nil && appendingClosures[obj] {
					pass.Reportf(n.Pos(),
						"call to %q inside map iteration appends to ordered state declared outside it; iterate sorted keys", id.Name)
				}
			}
		}
		return true
	})
}

// closureWritesOrderedState reports whether fl's body appends to a slice
// or sends on a channel declared outside the closure itself.
func closureWritesOrderedState(pass *Pass, fl *ast.FuncLit) bool {
	info := pass.TypesInfo
	found := false
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				target := ast.Unparen(lhs)
				var obj types.Object
				switch t := target.(type) {
				case *ast.Ident:
					obj = objectOf(info, t)
				case *ast.SelectorExpr:
					obj = objectOf(info, t.Sel)
				}
				if obj == nil && target != nil {
					continue
				}
				if i < len(n.Rhs) && isAppendCall(n.Rhs[i]) && declaredOutside(obj, fl.Pos(), fl.End()) {
					found = true
				}
			}
		case *ast.SendStmt:
			if id, ok := ast.Unparen(n.Chan).(*ast.Ident); ok {
				if obj := objectOf(info, id); declaredOutside(obj, fl.Pos(), fl.End()) {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// sumRoot returns the variable an accumulation target lives in: e itself
// when it is an identifier, the variable x when it is a field x.f (or
// x.f.g), and nil for any other expression.
func sumRoot(e ast.Expr) *ast.Ident {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e
	case *ast.SelectorExpr:
		return sumRoot(e.X)
	}
	return nil
}

// isFloat reports whether t is a floating-point type.
func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// isAppendCall reports whether e is a call of the append builtin.
func isAppendCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "append"
}

// exprIsObject reports whether e is (possibly parenthesized or wrapped in
// a single-argument conversion of) an identifier denoting obj.
func exprIsObject(info *types.Info, e ast.Expr, obj types.Object) bool {
	e = ast.Unparen(e)
	if call, ok := e.(*ast.CallExpr); ok && len(call.Args) == 1 {
		// T(k) conversions keep the key's identity for ordering purposes.
		if info.Types[call.Fun].IsType() {
			e = ast.Unparen(call.Args[0])
		}
	}
	id, ok := e.(*ast.Ident)
	return ok && objectOf(info, id) == obj
}

// sortedAfter reports whether, lexically after the loop within the same
// function, obj appears as an argument of a sort/slices ordering call —
// the canonical "collect then sort" repair.
func sortedAfter(pass *Pass, fd *ast.FuncDecl, rs *ast.RangeStmt, obj types.Object) bool {
	info := pass.TypesInfo
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := objectOf(info, sel.Sel).(*types.Func)
		if !ok {
			return true
		}
		if p := pkgPathOf(fn); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(an ast.Node) bool {
				if id, ok := an.(*ast.Ident); ok && objectOf(info, id) == obj {
					found = true
				}
				return !found
			})
		}
		return !found
	})
	return found
}
