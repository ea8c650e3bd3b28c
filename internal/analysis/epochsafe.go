package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// graphPkgPath is the package owning the cost-epoch discipline; writes
// inside it are the implementation and exempt.
const graphPkgPath = "sof/internal/graph"

// costMutators are the sanctioned cost-mutation entry points. Any of them
// advances (or may advance) the cost epoch, so epoch values captured
// before a call are stale after it.
var costMutators = map[string]bool{
	"SetEdgeCost":     true,
	"SetNodeCost":     true,
	"BumpCostEpoch":   true,
	"SetLinkCost":     true, // sof.Network wrapper
	"SetVMCost":       true, // sof.Network wrapper
	"InvalidateCache": true, // chain.Oracle / dist.Cluster: thin epoch bump
	// Failure injection changes the effective cost surface (failed elements
	// price as unreachable) and bumps the epoch like any cost write.
	"FailEdge":           true,
	"FailNode":           true,
	"RestoreEdge":        true,
	"RestoreNode":        true,
	"RestoreAll":         true,
	"FailLink":           true, // sof.Solver wrappers
	"FailVM":             true,
	"RestoreLink":        true,
	"RestoreVM":          true,
	"RestoreAllFailures": true,
	// Capacity masks share the failure representation: masking a saturated
	// element reprices it as unreachable, so these bump the epoch too.
	"MaskEdge":   true,
	"MaskNode":   true,
	"UnmaskEdge": true,
	"UnmaskNode": true,
	"UnmaskAll":  true,
}

// EpochSafe flags cost-state writes that bypass the graph package's
// epoch-advancing setters, and cost-epoch values cached across a mutation.
//
// Every epoch-keyed cache (the oracle's Dijkstra trees, solved chains, the
// delta-stepping arc partition) trusts that CostEpoch() identifies the
// cost surface exactly. A write to a Node.Cost/Edge.Cost field outside
// package graph either mutates a stale copy (silent no-op) or, if it ever
// reached live state, would change costs without advancing the epoch —
// serving bit-wrong cached trees. Likewise an epoch read before SetEdgeCost/
// SetNodeCost/BumpCostEpoch names a cost surface that no longer exists.
//
// Failure state is under the same discipline: FailState snapshots are
// immutable by contract (traversals read them lock-free through an atomic
// pointer), so a write to a FailState's Edges/Nodes bitsets outside
// package graph mutates a snapshot concurrent readers may hold and skips
// the epoch bump FailEdge/FailNode/Restore* provide.
var EpochSafe = &Analyzer{
	Name: "epochsafe",
	Doc: "graph cost and failure state must change only through the epoch-advancing " +
		"setters (SetEdgeCost/SetNodeCost/BumpCostEpoch, FailEdge/FailNode/Restore*), " +
		"and a captured CostEpoch value must not be reused across a mutation",
	Run: runEpochSafe,
}

func runEpochSafe(pass *Pass) error {
	path := pass.Pkg.Path()
	inGraph := path == graphPkgPath || path == "graph" || strings.HasSuffix(path, "/graph")
	for _, f := range pass.Files {
		if !inGraph {
			checkCostWrites(pass, f)
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if !inGraph {
				checkEpochReuse(pass, fd)
			}
			// The lock-staleness rule runs everywhere, the graph package
			// included: its own epoch-keyed memos (the delta-stepping
			// light/heavy partition) are under the same discipline.
			checkEpochLockStaleness(pass, fd)
		}
	}
	return nil
}

// checkCostWrites flags assignments and ++/-- on Cost fields of
// graph.Node / graph.Edge values, and on the Edges/Nodes failure bitsets
// of a graph.FailState (whole-field or per-element), outside the graph
// package.
func checkCostWrites(pass *Pass, f *ast.File) {
	flag := func(x ast.Expr) {
		x = ast.Unparen(x)
		// fs.Edges[i] = ... writes an element of the bitset; the offending
		// selector is the index expression's base.
		if ix, ok := x.(*ast.IndexExpr); ok {
			x = ast.Unparen(ix.X)
		}
		sel, ok := x.(*ast.SelectorExpr)
		if !ok {
			return
		}
		t := pass.TypesInfo.Types[sel.X].Type
		if t == nil {
			return
		}
		switch sel.Sel.Name {
		case "Cost":
			if isNamedType(t, graphPkgPath, "Node") || isNamedType(t, graphPkgPath, "Edge") {
				pass.Reportf(sel.Pos(),
					"direct write to %s.Cost outside package graph: it mutates a copy and bypasses the cost epoch; use SetEdgeCost/SetNodeCost",
					namedOrPointee(t).Obj().Name())
			}
		case "Edges", "Nodes":
			if isNamedType(t, graphPkgPath, "FailState") {
				pass.Reportf(sel.Pos(),
					"direct write to FailState.%s outside package graph: snapshots are immutable for lock-free readers and the write skips the epoch bump; use FailEdge/FailNode/RestoreEdge/RestoreNode/RestoreAll",
					sel.Sel.Name)
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				flag(lhs)
			}
		case *ast.IncDecStmt:
			flag(n.X)
		}
		return true
	})
}

// checkEpochReuse flags, within one function, any use of a variable
// holding a CostEpoch() result lexically after a sanctioned cost-mutation
// call. Lexical order approximates control flow: it is exact for straight-
// line code and conservative-enough in practice for this code base; a
// deliberate reuse takes a //sofvet:ignore pragma.
func checkEpochReuse(pass *Pass, fd *ast.FuncDecl) {
	type capture struct {
		obj types.Object
		pos token.Pos
	}
	var captures []capture
	var mutations []token.Pos
	// LHS idents of the captures themselves: re-reading the epoch into the
	// same variable after a mutation is the repair, not a reuse.
	captureLHS := make(map[token.Pos]bool)

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok || !isMethodNamed(call, "CostEpoch") {
					continue
				}
				if i < len(n.Lhs) {
					if id, ok := n.Lhs[i].(*ast.Ident); ok {
						if obj := objectOf(pass.TypesInfo, id); obj != nil {
							captures = append(captures, capture{obj: obj, pos: n.Pos()})
							captureLHS[id.Pos()] = true
						}
					}
				}
			}
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok && costMutators[sel.Sel.Name] {
				mutations = append(mutations, n.Pos())
			}
		}
		return true
	})
	if len(captures) == 0 || len(mutations) == 0 {
		return
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.TypesInfo.Uses[id]
		if obj == nil || captureLHS[id.Pos()] {
			return true
		}
		// The latest capture before this use governs: a re-read after the
		// mutation refreshes the variable and clears the staleness.
		var last token.Pos = token.NoPos
		for _, c := range captures {
			if c.obj == obj && c.pos < id.Pos() && c.pos > last {
				last = c.pos
			}
		}
		if last == token.NoPos {
			return true
		}
		for _, m := range mutations {
			if last < m && m < id.Pos() {
				pass.Reportf(id.Pos(),
					"cost epoch %q captured before a cost mutation is reused after it; re-read CostEpoch() after SetEdgeCost/SetNodeCost/BumpCostEpoch",
					id.Name)
				return true
			}
		}
		return true
	})
}

// isMethodNamed reports whether call is a method call (or selector call)
// with the given name and no arguments.
func isMethodNamed(call *ast.CallExpr, name string) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	return ok && sel.Sel.Name == name && len(call.Args) == 0
}

// checkEpochLockStaleness flags an epoch value captured before a mutex
// acquisition and used after it without a re-read. The window between the
// capture and the Lock admits a concurrent cost mutation; publishing
// state stamped with the pre-lock epoch then serves the new costs under
// the old epoch's name. The delta-stepping partition memo is the
// canonical shape: deltaLayoutFor re-reads g.epoch.Load() under deltaMu
// before building, and every epoch-keyed cache filled under a lock must
// do the same. A capture feeding only the fast-path check before the
// lock is fine; it is the *reuse after the Lock* that is flagged. Like
// checkEpochReuse, lexical order approximates control flow; a deliberate
// pre-lock epoch takes a //sofvet:ignore pragma.
func checkEpochLockStaleness(pass *Pass, fd *ast.FuncDecl) {
	type capture struct {
		obj types.Object
		pos token.Pos
	}
	var captures []capture
	var locks []token.Pos
	captureLHS := make(map[token.Pos]bool)

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok || !isEpochRead(pass, call) {
					continue
				}
				if i < len(n.Lhs) {
					if id, ok := n.Lhs[i].(*ast.Ident); ok {
						if obj := objectOf(pass.TypesInfo, id); obj != nil {
							captures = append(captures, capture{obj: obj, pos: n.Pos()})
							captureLHS[id.Pos()] = true
						}
					}
				}
			}
		case *ast.CallExpr:
			if isMutexLock(pass, n) {
				locks = append(locks, n.Pos())
			}
		}
		return true
	})
	if len(captures) == 0 || len(locks) == 0 {
		return
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.TypesInfo.Uses[id]
		if obj == nil || captureLHS[id.Pos()] {
			return true
		}
		var last token.Pos = token.NoPos
		for _, c := range captures {
			if c.obj == obj && c.pos < id.Pos() && c.pos > last {
				last = c.pos
			}
		}
		if last == token.NoPos {
			return true
		}
		for _, l := range locks {
			if last < l && l < id.Pos() {
				pass.Reportf(id.Pos(),
					"epoch %q captured before a mutex Lock is used after it; a mutation can land while waiting for the lock — re-read the epoch under the lock before keying cached state on it",
					id.Name)
				return true
			}
		}
		return true
	})
}

// isEpochRead matches the two epoch-read shapes: the public CostEpoch()
// accessor and the graph package's own g.epoch.Load().
func isEpochRead(pass *Pass, call *ast.CallExpr) bool {
	if isMethodNamed(call, "CostEpoch") {
		return true
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Load" || len(call.Args) != 0 {
		return false
	}
	inner, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
	return ok && inner.Sel.Name == "epoch"
}

// isMutexLock matches Lock/RLock calls on sync.Mutex / sync.RWMutex
// receivers (fields included).
func isMutexLock(pass *Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Lock" && sel.Sel.Name != "RLock") || len(call.Args) != 0 {
		return false
	}
	t := pass.TypesInfo.Types[sel.X].Type
	if t == nil {
		return false
	}
	return isNamedType(t, "sync", "Mutex") || isNamedType(t, "sync", "RWMutex")
}
