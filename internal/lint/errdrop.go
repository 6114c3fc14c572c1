package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// errDropPaths are the parts of the tree errdrop applies to: the wire
// protocol and model serialization, where a silent I/O failure corrupts
// state.
var errDropPaths = []string{"internal/edgenet", "internal/modular/checkpoint"}

// errReturningCalls are method/function names from io, net, and encoding
// whose error results must not be dropped.
var errReturningCalls = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"Read": true, "ReadFull": true, "ReadAll": true,
	"Close": true, "Flush": true, "Sync": true,
	"Encode": true, "Decode": true,
	"Send": true, "Recv": true,
	"Copy": true, "CopyN": true,
	"SetDeadline": true, "SetReadDeadline": true, "SetWriteDeadline": true,
}

// errDrop flags statements that discard the error result of I/O, network,
// and encoding calls on the protocol and checkpoint paths (errDropPaths). A
// swallowed short write on the edgenet wire or a half-written checkpoint is
// exactly the silent corruption the testbed papers warn about; every such
// error must be checked, returned, or explicitly assigned to `_` (which
// stays visible in review).
//
// The check is typed: a bare expression statement is a finding when the
// callee's name is on the I/O list and go/types says the call's last result
// is `error`, so a Close that returns nothing is not one. Deferred calls are
// exempt — `defer f.Close()` on a read path is idiomatic; write paths should
// close explicitly and check.
func errDrop(f *File) []Diagnostic {
	if !f.inModule(errDropPaths...) {
		return nil
	}
	var out []Diagnostic
	ast.Inspect(f.AST, func(n ast.Node) bool {
		stmt, ok := n.(*ast.ExprStmt)
		if !ok {
			return true
		}
		call, ok := stmt.X.(*ast.CallExpr)
		if !ok {
			return true
		}
		name := calleeName(call)
		if !errReturningCalls[name] || !returnsError(f, call) {
			return true
		}
		out = append(out, Diagnostic{
			Pos:   f.Fset.Position(stmt.Pos()),
			Check: "errdrop",
			Message: fmt.Sprintf("error result of %s is dropped; check it, return it, or assign to _ explicitly",
				name),
		})
		return true
	})
	return out
}

// returnsError reports whether go/types resolved call's last result to the
// predeclared error type.
func returnsError(f *File, call *ast.CallExpr) bool {
	t := f.TypeOf(call)
	if tup, ok := t.(*types.Tuple); ok {
		if tup.Len() == 0 {
			return false
		}
		t = tup.At(tup.Len() - 1).Type()
	}
	return t != nil && types.Identical(t, types.Universe.Lookup("error").Type())
}
