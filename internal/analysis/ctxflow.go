package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// ctxflowScope lists the import-path prefixes the pass polices. The four
// internal packages are the ones every embed request flows through: a
// context dropped there severs cancellation for the whole pipeline
// (PR 2 made every solver observe ctx at branch granularity; PR 4/5 lean
// on prompt cancellation to abort in-flight RPC exchanges). The bare
// "ctxflow" prefix admits the analysistest fixtures.
var ctxflowScope = []string{
	"sof/internal/core",
	"sof/internal/chain",
	"sof/internal/dist",
	"sof/internal/graph",
	"ctxflow",
}

// CtxFlow enforces context propagation in the solver's internal packages:
//
//   - context.Background()/context.TODO() must not be introduced inside
//     internal/{core,chain,dist,graph} call paths. The only admitted shape
//     is the nil-guard idiom (`if ctx == nil { ctx = context.Background() }`
//     or `... { return context.Background() }`), which normalizes a
//     caller-supplied nil rather than severing a live context.
//   - an exported function or method that itself calls a context-taking
//     function must accept a context.Context and forward it; otherwise its
//     callers can never cancel the work it starts. A context-less wrapper
//     around its own `FCtx` sibling is no exception: callers take the Ctx
//     form directly.
var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc:  "internal solver/cluster code must accept and forward context.Context, never mint context.Background()/TODO()",
	Run:  runCtxFlow,
}

func runCtxFlow(pass *Pass) error {
	path := pass.Pkg.Path()
	inScope := false
	for _, p := range ctxflowScope {
		if path == p || strings.HasPrefix(path, p+"/") {
			inScope = true
			break
		}
	}
	if !inScope {
		return nil
	}
	for _, f := range pass.Files {
		checkBackgroundCalls(pass, f)
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				checkExportedEntryPoint(pass, fd)
			}
		}
	}
	return nil
}

// checkBackgroundCalls flags context.Background()/TODO() calls outside
// the nil-guard idiom.
func checkBackgroundCalls(pass *Pass, f *ast.File) {
	// Walk with an explicit parent stack so the nil-guard shape can be
	// recognized from the call site upward.
	var stack []ast.Node
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name := ""
		switch {
		case isPkgFunc(pass.TypesInfo, call, "context", "Background"):
			name = "context.Background"
		case isPkgFunc(pass.TypesInfo, call, "context", "TODO"):
			name = "context.TODO"
		default:
			return true
		}
		if isNilGuard(pass, stack, call) {
			return true
		}
		pass.Reportf(call.Pos(),
			"%s() introduced in %s: accept and forward the caller's context instead (only the `if ctx == nil` guard may mint one)",
			name, pass.Pkg.Path())
		return true
	}
	ast.Inspect(f, visit)
}

// isNilGuard reports whether the Background/TODO call at the top of stack
// is the nil-normalization idiom: directly inside an `if x == nil` whose
// x is a context.Context, as either `x = context.Background()` or
// `return context.Background()`.
func isNilGuard(pass *Pass, stack []ast.Node, call *ast.CallExpr) bool {
	info := pass.TypesInfo
	var guarded *ast.Ident // the nil-checked context variable, if found

	for i := len(stack) - 1; i >= 0; i-- {
		ifs, ok := stack[i].(*ast.IfStmt)
		if !ok {
			continue
		}
		bin, ok := ast.Unparen(ifs.Cond).(*ast.BinaryExpr)
		if !ok || bin.Op != token.EQL {
			continue
		}
		var id *ast.Ident
		if x, ok := ast.Unparen(bin.X).(*ast.Ident); ok && x.Name != "nil" {
			id = x
		} else if y, ok := ast.Unparen(bin.Y).(*ast.Ident); ok && y.Name != "nil" {
			id = y
		}
		if id == nil {
			continue
		}
		if obj := objectOf(info, id); obj != nil && isContextType(obj.Type()) {
			guarded = id
			break
		}
	}
	if guarded == nil {
		return false
	}
	// The call must be the sole RHS of `guarded = <call>` or the value of
	// a return statement within the guard.
	for i := len(stack) - 1; i >= 0; i-- {
		switch s := stack[i].(type) {
		case *ast.AssignStmt:
			for j, rhs := range s.Rhs {
				if ast.Unparen(rhs) == call && j < len(s.Lhs) {
					if lhs, ok := ast.Unparen(s.Lhs[j]).(*ast.Ident); ok {
						return objectOf(info, lhs) == objectOf(info, guarded)
					}
				}
			}
			return false
		case *ast.ReturnStmt:
			return true
		}
	}
	return false
}

// checkExportedEntryPoint flags exported functions that start context-
// aware work without accepting a context themselves.
func checkExportedEntryPoint(pass *Pass, fd *ast.FuncDecl) {
	if fd.Body == nil || !fd.Name.IsExported() {
		return
	}
	obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
	if !ok {
		return
	}
	if hasContextParam(obj.Signature()) {
		return
	}
	var offending *ast.CallExpr
	var calleeName string
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if offending != nil {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		var name string
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			name = fun.Name
		case *ast.SelectorExpr:
			name = fun.Sel.Name
		default:
			return true
		}
		t := pass.TypesInfo.Types[call.Fun].Type
		sig, ok := t.(*types.Signature)
		if !ok || !firstParamIsContext(sig) {
			return true
		}
		offending = call
		calleeName = name
		return false
	})
	if offending != nil {
		pass.Reportf(fd.Name.Pos(),
			"exported %s calls context-taking %s but accepts no context.Context; callers cannot cancel the work it starts",
			fd.Name.Name, calleeName)
	}
}
