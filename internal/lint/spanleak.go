package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// spanLeak flags a started tracing span (internal/obs/span.Active) whose
// End() is not reachable on every path out of the statement list that
// started it. A span that never Ends never reaches the flight recorder: the
// trace silently loses the operation — worse than no instrumentation,
// because the parent's timeline shows a gap that looks like idle time. The
// sanctioned shapes are `defer a.End()` immediately after Start for spans
// that cross returns, and straight-line Start → work → End for phase spans.
//
// Like lockedcall, the check is typed and transitive: the Active type is
// resolved through go/types (so wrappers like edgenet's ctxSpan helpers are
// recognized by their return type), and a span passed to another function
// discharges the obligation only when that callee — resolved through the
// program's declaration index, up to 4 hops deep — transitively Ends its
// parameter. The scan deliberately under-approximates (an End anywhere in a
// branchy statement discharges the whole obligation) so early-End paths do
// not produce noise; the check exists to catch the common leak, a bare
// `return` before the span's End.
func spanLeak(f *File) []Diagnostic {
	c := &spanLeakPass{f: f, memo: map[endsParamKey]bool{}}
	for _, body := range functionBodies(f.AST) {
		for _, stmts := range statementLists(body) {
			for i, stmt := range stmts {
				name, at, ok := spanStart(f, stmt)
				if !ok {
					continue
				}
				c.checkRegion(name, at, stmts[i+1:])
			}
		}
	}
	return c.out
}

type spanLeakPass struct {
	f    *File
	out  []Diagnostic
	memo map[endsParamKey]bool // (callee, param index) → transitively Ends it
}

type endsParamKey struct {
	fn  *types.Func
	idx int
}

// spanStart matches `x := <call>` (or `x = <call>`) where the call's result
// is the span.Active type — a span being started, directly or through a
// helper like ctxSpan/reqSpan that returns one.
func spanStart(f *File, stmt ast.Stmt) (name string, at ast.Node, ok bool) {
	as, isAssign := stmt.(*ast.AssignStmt)
	if !isAssign || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return "", nil, false
	}
	id, isIdent := as.Lhs[0].(*ast.Ident)
	if !isIdent || id.Name == "_" {
		return "", nil, false
	}
	call, isCall := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
	if !isCall || !isSpanActive(f.TypeOf(call)) {
		return "", nil, false
	}
	return id.Name, call, true
}

// isSpanActive reports whether t (through pointers) is the Active type from
// the span package, matched by import-path suffix so fixture modules work.
func isSpanActive(t types.Type) bool {
	named := namedOf(t)
	if named == nil || named.Obj() == nil || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Name() == "Active" &&
		strings.HasSuffix(named.Obj().Pkg().Path(), "internal/obs/span")
}

// checkRegion scans the statements after the Start for the obligation's
// discharge, in order:
//
//   - a `defer x.End()` (directly or inside a deferred closure) covers every
//     path out of the function — clean;
//   - a statement containing `x.End()` discharges the obligation (an End
//     inside one branch under-approximates, by design);
//   - a statement that moves ownership — returns x, stores it, captures it,
//     or passes it to a callee that transitively Ends it — discharges it;
//   - a `return` before any of those leaks the span on that path;
//   - falling off the end of the list leaks it outright (the variable dies).
func (c *spanLeakPass) checkRegion(name string, at ast.Node, rest []ast.Stmt) {
	for _, stmt := range rest {
		if ds, isDefer := stmt.(*ast.DeferStmt); isDefer && containsEndCall(ds, name) {
			return
		}
		if containsEndCall(stmt, name) {
			return
		}
		if c.ownershipMoves(stmt, name) {
			return
		}
		if containsReturn(stmt) {
			c.report(name, at, fmt.Sprintf(
				"span %s is not ended before the return at line %d",
				name, c.f.Fset.Position(stmt.Pos()).Line))
			return
		}
	}
	c.report(name, at, fmt.Sprintf("span %s is never ended in this scope", name))
}

func (c *spanLeakPass) report(name string, at ast.Node, what string) {
	c.out = append(c.out, Diagnostic{
		Pos:   c.f.Fset.Position(at.Pos()),
		Check: "spanleak",
		Message: fmt.Sprintf(
			"%s; call %s.End() on every path or defer it right after Start, or the span never reaches the flight recorder",
			what, name),
	})
}

// containsEndCall reports whether n contains a call `name.End()` anywhere,
// including inside nested closures and defers.
func containsEndCall(n ast.Node, name string) bool {
	found := false
	ast.Inspect(n, func(x ast.Node) bool {
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return !found
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "End" {
			if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok && id.Name == name {
				found = true
			}
		}
		return !found
	})
	return found
}

// containsReturn reports whether stmt contains a return of the enclosing
// function (nested function literals return for themselves, not for us).
func containsReturn(stmt ast.Stmt) bool {
	found := false
	ast.Inspect(stmt, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			found = true
		}
		return !found
	})
	return found
}

// ownershipMoves reports whether stmt moves the span out of this scope's
// responsibility: any use of the variable other than calling its own methods
// — returning it, storing it, capturing it in a closure — or passing it as an
// argument to a callee that transitively Ends that parameter.
func (c *spanLeakPass) ownershipMoves(stmt ast.Stmt, name string) bool {
	recv := map[*ast.Ident]bool{}
	arg := map[*ast.Ident]endsParamKey{}
	resolvable := map[*ast.Ident]bool{}
	ast.Inspect(stmt, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok && id.Name == name {
				recv[id] = true
			}
		}
		for i, a := range call.Args {
			if id := identNamed(a, name); id != nil {
				fn := c.f.CalleeFunc(call)
				arg[id] = endsParamKey{fn: fn, idx: i}
				resolvable[id] = fn != nil
			}
		}
		return true
	})
	moved := false
	ast.Inspect(stmt, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || id.Name != name || recv[id] {
			return !moved
		}
		if key, isArg := arg[id]; isArg {
			// An unresolvable callee (func-typed field, builtin) is assumed to
			// finish the span; a resolvable one must actually do so.
			if !resolvable[id] || c.endsParam(c.f, key.fn, key.idx, 0) {
				moved = true
			}
			return !moved
		}
		moved = true // returned, stored, or captured: someone else owns it now
		return false
	})
	return moved
}

// identNamed unwraps parens and a leading & and returns the identifier when
// e is the variable called name, else nil.
func identNamed(e ast.Expr, name string) *ast.Ident {
	e = ast.Unparen(e)
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = ast.Unparen(u.X)
	}
	if id, ok := e.(*ast.Ident); ok && id.Name == name {
		return id
	}
	return nil
}

// endsParam reports whether fn transitively calls End on its idx-th
// parameter, resolving through the program's declaration index up to 4 hops
// deep. Unresolvable or out-of-program callees are assumed to End it (the
// quiet choice); a parameter the callee drops (unnamed or _) provably never
// Ends.
func (c *spanLeakPass) endsParam(f *File, fn *types.Func, idx int, depth int) bool {
	if fn == nil || depth >= 4 {
		return true
	}
	key := endsParamKey{fn: fn, idx: idx}
	if v, ok := c.memo[key]; ok {
		return v
	}
	c.memo[key] = true // in-progress marker: recursion resolves to "ends"
	declFile, decl := progOf(f).FuncDecl(fn)
	if declFile == nil || decl == nil || decl.Body == nil {
		return true
	}
	name := paramName(decl.Type, idx)
	res := false
	if name != "" && name != "_" {
		res = c.bodyEndsVar(declFile, decl.Body, name, depth)
	}
	c.memo[key] = res
	return res
}

// bodyEndsVar reports whether body Ends the span held in the variable name:
// a direct name.End() call, returning it to the caller, or forwarding it to
// another callee that transitively Ends it.
func (c *spanLeakPass) bodyEndsVar(f *File, body *ast.BlockStmt, name string, depth int) bool {
	if containsEndCall(body, name) {
		return true
	}
	ends := false
	ast.Inspect(body, func(n ast.Node) bool {
		if ends {
			return false
		}
		switch v := n.(type) {
		case *ast.ReturnStmt:
			for _, r := range v.Results {
				if identNamed(r, name) != nil {
					ends = true // handed back to the caller's obligation
				}
			}
		case *ast.CallExpr:
			for i, a := range v.Args {
				if identNamed(a, name) != nil && c.endsParam(f, f.CalleeFunc(v), i, depth+1) {
					ends = true
				}
			}
		}
		return !ends
	})
	return ends
}

// paramName returns the name of the idx-th parameter of ft, or "" when the
// parameter is unnamed or out of range.
func paramName(ft *ast.FuncType, idx int) string {
	if ft == nil || ft.Params == nil {
		return ""
	}
	i := 0
	for _, field := range ft.Params.List {
		n := len(field.Names)
		if n == 0 {
			if i == idx {
				return ""
			}
			i++
			continue
		}
		if idx < i+n {
			return field.Names[idx-i].Name
		}
		i += n
	}
	return ""
}
