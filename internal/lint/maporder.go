package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// mapOrder flags `for k := range m` over maps whose loop body has an
// order-dependent effect. Go randomizes map iteration order, so any such loop
// makes aggregation buffers, parameter vectors, trace logs, exposition bytes
// or payloads differ run to run — the property the `ci.sh` byte-compare gates
// exist to catch dynamically. Two kinds of effect count, classified in one
// walk over the body:
//
//   - structural: appending to a slice, writing through an index of an outer
//     container, sending on a channel, accumulating floats;
//   - emission into an artifact sink, decided by the callee's resolved type
//     rather than its name: a recording method on a trace/metrics/exposition
//     type (an Emit on a *trace.Logger is a finding from any package; a
//     method called Write on a plain struct is not), a gob/json Encode, a
//     write to anything io.Writer-shaped, an fmt.Fprint*.
//
// The canonical fix is to collect the keys, sort them, and range over the
// sorted slice.
func mapOrder(f *File) []Diagnostic {
	var out []Diagnostic
	ast.Inspect(f.AST, func(n ast.Node) bool {
		var body ast.Node
		switch fn := n.(type) {
		case *ast.FuncDecl:
			if fn.Body == nil {
				return true
			}
			body = fn.Body
		case *ast.FuncLit:
			body = fn.Body
		default:
			return true
		}
		sorted := sortedVars(body)
		ast.Inspect(body, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			if !isMapExpr(f, rng.X) {
				return true
			}
			if isKeyCollect(rng, sorted) {
				return true
			}
			if why := orderSensitive(f, rng); why != "" {
				out = append(out, Diagnostic{
					Pos:   f.Fset.Position(rng.Pos()),
					Check: "maporder",
					Message: fmt.Sprintf("iteration over map %s %s; iteration order is random — collect and sort the keys first",
						types.ExprString(rng.X), why),
				})
			}
			return true
		})
		// Function literals nested inside are revisited by the outer
		// Inspect; suppress double-walking by not descending here.
		return false
	})
	return out
}

// sortedVars collects the expressions the function passes to a sort call
// (sort.Ints, sort.Strings, sort.Float64s, sort.Slice[Stable], slices.Sort*),
// as printed strings. A key slice that is later sorted makes the collecting
// loop deterministic.
func sortedVars(body ast.Node) map[string]bool {
	out := map[string]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkg, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		if pkg.Name == "sort" || (pkg.Name == "slices" && strings.HasPrefix(sel.Sel.Name, "Sort")) {
			out[types.ExprString(call.Args[0])] = true
		}
		return true
	})
	return out
}

// isKeyCollect reports whether the loop is the sanctioned key-collection
// idiom: its body only appends the range key into a slice that the function
// sorts afterwards.
func isKeyCollect(rng *ast.RangeStmt, sorted map[string]bool) bool {
	key, ok := rng.Key.(*ast.Ident)
	if !ok || len(rng.Body.List) != 1 {
		return false
	}
	asg, ok := rng.Body.List[0].(*ast.AssignStmt)
	if !ok || len(asg.Lhs) != 1 || len(asg.Rhs) != 1 {
		return false
	}
	call, ok := asg.Rhs[0].(*ast.CallExpr)
	if !ok || calleeName(call) != "append" || len(call.Args) != 2 {
		return false
	}
	arg, ok := call.Args[1].(*ast.Ident)
	if !ok || arg.Name != key.Name {
		return false
	}
	return sorted[types.ExprString(asg.Lhs[0])]
}

// isMapExpr reports whether e is map-typed, preferring go/types and falling
// back to syntax (composite literals, make calls, and local declarations)
// when type information is unavailable.
func isMapExpr(f *File, e ast.Expr) bool {
	if t := f.TypeOf(e); t != nil {
		_, ok := t.Underlying().(*types.Map)
		return ok
	}
	return isMapSyntax(e, 0)
}

func isMapSyntax(e ast.Expr, depth int) bool {
	if depth > 4 {
		return false
	}
	switch v := e.(type) {
	case *ast.MapType:
		return true
	case *ast.CompositeLit:
		_, ok := v.Type.(*ast.MapType)
		return ok
	case *ast.CallExpr:
		if id, ok := v.Fun.(*ast.Ident); ok && id.Name == "make" && len(v.Args) > 0 {
			_, isMap := v.Args[0].(*ast.MapType)
			return isMap
		}
	case *ast.Ident:
		if v.Obj == nil {
			return false
		}
		switch decl := v.Obj.Decl.(type) {
		case *ast.ValueSpec:
			if decl.Type != nil {
				return isMapSyntax(decl.Type, depth+1)
			}
			for i, name := range decl.Names {
				if name.Name == v.Name && i < len(decl.Values) {
					return isMapSyntax(decl.Values[i], depth+1)
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range decl.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && id.Name == v.Name && i < len(decl.Rhs) {
					return isMapSyntax(decl.Rhs[i], depth+1)
				}
			}
		case *ast.Field:
			return isMapSyntax(decl.Type, depth+1)
		}
	}
	return false
}

// orderSensitive inspects the loop body and returns a short reason when the
// body's effects depend on iteration order, or "" when the loop is safe
// (pure reads, read-only calls on a sink, writes confined to the ranged map
// itself, or commutative integer/boolean accumulation).
func orderSensitive(f *File, rng *ast.RangeStmt) string {
	var why string
	set := func(reason string) {
		if why == "" {
			why = reason
		}
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if why != "" {
			return false
		}
		switch v := n.(type) {
		case *ast.SendStmt:
			set("sends on a channel")
		case *ast.CallExpr:
			if calleeName(v) == "append" {
				set("appends to a slice")
			} else if reason := sinkCall(f, v); reason != "" {
				set(reason)
			}
		case *ast.AssignStmt:
			for _, lhs := range v.Lhs {
				switch l := lhs.(type) {
				case *ast.IndexExpr:
					// Writing m[k] while ranging m is an update-in-place,
					// not an ordering hazard; writing any other indexed
					// container records iteration order.
					if !sameExpr(l.X, rng.X) {
						set(fmt.Sprintf("writes through index of %s", types.ExprString(l.X)))
					}
				}
			}
			if v.Tok == token.ADD_ASSIGN || v.Tok == token.SUB_ASSIGN || v.Tok == token.MUL_ASSIGN {
				for _, lhs := range v.Lhs {
					if isFloatExpr(f, lhs) {
						set("accumulates floating-point values (rounding is order-dependent)")
					}
				}
			}
		}
		return why == ""
	})
	return why
}

func calleeName(call *ast.CallExpr) string {
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		return fn.Name
	case *ast.SelectorExpr:
		return fn.Sel.Name
	}
	return ""
}

func sameExpr(a, b ast.Expr) bool {
	return types.ExprString(a) == types.ExprString(b)
}

func isFloatExpr(f *File, e ast.Expr) bool {
	t := f.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// sinkPkgSuffixes are the project packages whose types are artifact sinks:
// calling any recording method on them in random order reorders artifacts.
var sinkPkgSuffixes = []string{"internal/trace", "internal/obs", "internal/metrics"}

// encoderCallNames is the syntactic fallback for sink calls when the callee
// cannot be resolved (degraded type info): serialization and formatted
// output names.
var encoderCallNames = map[string]bool{
	"Encode": true, "Send": true, "Marshal": true,
	"Fprintf": true, "Fprintln": true, "Fprint": true,
	"Printf": true, "Println": true, "Print": true,
}

// sinkCall classifies one call inside a map loop as an artifact emission.
func sinkCall(f *File, call *ast.CallExpr) string {
	fn := f.CalleeFunc(call)
	if fn == nil {
		// Degraded type info: fall back to the historic name blanket, but
		// only for selector calls (pkg.Fprintf, enc.Encode) so plain local
		// helpers stay quiet.
		if _, ok := call.Fun.(*ast.SelectorExpr); ok && encoderCallNames[calleeName(call)] {
			return fmt.Sprintf("calls %s (unresolved; name-matched encoder)", calleeName(call))
		}
		return ""
	}
	if rt := recvType(fn); rt != nil {
		if pkg := typePkgPath(rt); pkg != "" {
			for _, suffix := range sinkPkgSuffixes {
				if pkgPathHasSuffix(pkg, suffix) && recordingMethod(fn.Name()) {
					return fmt.Sprintf("records into %s.%s (%s sink)", namedOf(rt).Obj().Name(), fn.Name(), suffix)
				}
			}
			if (pkg == "encoding/gob" || pkg == "encoding/json") && fn.Name() == "Encode" {
				return fmt.Sprintf("encodes via %s", pkg)
			}
		}
		if implementsWriter(rt) && recordingMethod(fn.Name()) {
			return fmt.Sprintf("writes through io.Writer-shaped %s.%s", types.ExprString(call.Fun), fn.Name())
		}
		return ""
	}
	if pkg := funcPkgPath(fn); pkg == "fmt" &&
		(fn.Name() == "Fprintf" || fn.Name() == "Fprintln" || fn.Name() == "Fprint") {
		return "formats onto a writer via fmt." + fn.Name()
	}
	return ""
}

// recordingMethod reports whether a method name mutates/records rather than
// reads — only recording calls on a sink type are order-sensitive (Value()
// on a counter inside a map loop is fine; Inc() is not).
func recordingMethod(name string) bool {
	switch name {
	case "Event", "Emit", "Record", "Log", "Append", "Add", "Inc",
		"Set", "Observe", "ObserveSince", "Flush", "Encode", "Send":
		return true
	}
	return len(name) >= 5 && (name[:5] == "Write" || name[:5] == "Print")
}

func pkgPathHasSuffix(pkg, suffix string) bool {
	return pkg == suffix || len(pkg) > len(suffix) && pkg[len(pkg)-len(suffix)-1] == '/' &&
		pkg[len(pkg)-len(suffix):] == suffix
}
