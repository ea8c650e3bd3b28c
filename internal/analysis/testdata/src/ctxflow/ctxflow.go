// Package ctxflow is the fixture for the ctxflow pass: minted Background/
// TODO contexts and context-less exported entry points — including a
// wrapper around its own Ctx sibling — are flagged; the nil-guard idiom
// is not.
package ctxflow

import "context"

func work(ctx context.Context, n int) int {
	_ = ctx
	return n
}

// Bad mints a Background where a caller context belongs, and as an
// exported entry point calling context-taking work it is flagged twice.
func Bad(n int) int { // want "exported Bad calls context-taking work but accepts no context.Context"
	return work(context.Background(), n) // want "context.Background.. introduced in ctxflow"
}

func badTODO(n int) int {
	return work(context.TODO(), n) // want "context.TODO.. introduced in ctxflow"
}

// Good accepts and forwards.
func Good(ctx context.Context, n int) int {
	return work(ctx, n)
}

// nilGuardAssign is the sanctioned normalization shape.
func nilGuardAssign(ctx context.Context, n int) int {
	if ctx == nil {
		ctx = context.Background()
	}
	return work(ctx, n)
}

// nilGuardReturn is the helper-function variant of the guard.
func nilGuardReturn(ctx context.Context) context.Context {
	if ctx == nil {
		return context.Background()
	}
	return ctx
}

// RunCtx is the context-taking implementation behind the wrapper below.
func RunCtx(ctx context.Context, n int) int {
	return work(ctx, n)
}

// Run wraps its own Ctx sibling without a context: like Bad, it is an
// entry point its callers cannot cancel, and it mints a Background.
func Run(n int) int { // want "exported Run calls context-taking RunCtx but accepts no context.Context"
	return RunCtx(context.Background(), n) // want "context.Background.. introduced in ctxflow"
}
