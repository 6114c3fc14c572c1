package lint

import (
	"go/ast"
)

// goLeak flags `go func(...) {...}(...)` launches with no visible lifecycle:
// no sync.WaitGroup Add/Done, no done-channel operation, no select, and no
// context in sight. Such goroutines outlive their spawner silently — the
// failure mode behind leaked connection handlers in edgenet and orphaned
// kernel workers in tensor fan-outs. The sanctioned patterns are the ones
// tensor.ParallelFor and edgenet.Server use: WaitGroup bracketing, a done
// channel, or a context the goroutine observes.
func goLeak(f *File) []Diagnostic {
	var out []Diagnostic
	ast.Inspect(f.AST, func(n ast.Node) bool {
		gs, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		lit, ok := gs.Call.Fun.(*ast.FuncLit)
		if !ok {
			// `go s.method()` launches are assumed to manage their own
			// lifecycle (the method body is checked where it is defined).
			return true
		}
		if !hasLifecycle(lit) && !argsCarryLifecycle(gs.Call.Args) {
			out = append(out, Diagnostic{
				Pos:   f.Fset.Position(gs.Pos()),
				Check: "goleak",
				Message: "goroutine literal has no WaitGroup Add/Done, channel operation, or context; " +
					"it can leak — bracket it with sync.WaitGroup or give it a done channel/context",
			})
		}
		return true
	})
	return out
}

// hasLifecycle scans a goroutine body for evidence that something waits for
// or can stop it: WaitGroup Add/Done/Wait calls, any channel send, receive,
// or close, a select statement, or a context identifier.
func hasLifecycle(lit *ast.FuncLit) bool {
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch v := n.(type) {
		case *ast.SendStmt, *ast.SelectStmt:
			found = true
		case *ast.UnaryExpr:
			if v.Op.String() == "<-" {
				found = true
			}
		case *ast.RangeStmt:
			// `for x := range ch` over a channel is a lifecycle; over other
			// types it is not, but the conservative direction here is to
			// accept (fewer false positives on worker-pool loops).
			if isChanLikeName(v.X) {
				found = true
			}
		case *ast.CallExpr:
			switch calleeName(v) {
			case "Done", "Add", "Wait", "close":
				found = true
			}
		case *ast.Ident:
			if isContextName(v.Name) {
				found = true
			}
		}
		return !found
	})
	return found
}

// argsCarryLifecycle reports whether the call passes a channel-ish or
// context-ish argument into the goroutine (e.g. `go worker(done)` spelled as
// a literal wrapper).
func argsCarryLifecycle(args []ast.Expr) bool {
	for _, a := range args {
		if isChanLikeName(a) {
			return true
		}
		if id, ok := a.(*ast.Ident); ok && isContextName(id.Name) {
			return true
		}
	}
	return false
}

func isChanLikeName(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	if !ok {
		sel, ok := e.(*ast.SelectorExpr)
		if !ok {
			return false
		}
		id = sel.Sel
	}
	switch id.Name {
	case "done", "stop", "quit", "closed", "ch", "errc", "results":
		return true
	}
	return false
}

func isContextName(name string) bool {
	return name == "ctx" || name == "context"
}
