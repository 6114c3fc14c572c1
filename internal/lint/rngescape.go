package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// parallelExecutors are the fan-out entry points whose function-literal
// arguments (worker bodies and per-worker state constructors) run
// concurrently, once per work item: the one list rngescape and hotalloc
// read.
var parallelExecutors = map[string]bool{
	"ParallelFor":        true,
	"ParallelForWorkers": true,
	"serve":              true,
	"globalRound":        true,
}

// rngEscape flags a master-RNG stream escaping into concurrent code: any
// value whose type is the coordinator stream (*tensor.RNG, or *rand.Rand)
// captured by a function literal passed to a parallel executor
// (ParallelFor / ParallelForWorkers / serve / globalRound), whether
// the capture is a bare identifier (`rng`) or a field read through a
// captured struct (`cfg.rng`). Worker bodies run concurrently: touching the
// shared stream there is a data race AND makes the draw sequence depend on
// scheduling, breaking the workers=N ≡ workers=1 bitwise-reproducibility
// contract (docs/PARALLEL.md).
//
// It supersedes the old name-based sharedrng check: detection is on the
// resolved type, cross-package, so renaming the variable or hiding the
// stream inside a config struct no longer evades it. The sanctioned pattern
// is unchanged — pre-split per-device streams in the coordinator
// (`streams := splitStreams(rng, n)`) and index them by the worker's device
// index (`streams[i]` is fine: the captured value is the slice, and each
// body touches only its own element).
func rngEscape(f *File) []Diagnostic {
	var out []Diagnostic
	ast.Inspect(f.AST, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !parallelExecutors[calleeName(call)] {
			return true
		}
		for _, lit := range funcLitArgs(call) {
			out = append(out, rngCaptures(f, calleeName(call), lit)...)
		}
		return true
	})
	return out
}

// rngCaptures reports every RNG-typed value the literal captures from its
// environment.
func rngCaptures(f *File, executor string, lit *ast.FuncLit) []Diagnostic {
	var out []Diagnostic
	report := func(e ast.Expr, how string) {
		out = append(out, Diagnostic{
			Pos:   f.Fset.Position(e.Pos()),
			Check: "rngescape",
			Message: fmt.Sprintf(
				"%s %s escapes into a %s worker body; draws there are scheduling-dependent — pre-split per-device streams in the coordinator (streams := splitStreams(rng, n)) and use streams[i]",
				how, types.ExprString(e), executor),
		})
	}
	valueExprs(lit.Body, func(e ast.Expr) bool {
		switch v := e.(type) {
		case *ast.Ident:
			obj := f.ObjectOf(v)
			if isFreeIn(obj, lit) && isRNGType(obj.Type()) {
				report(v, "shared RNG stream")
			}
		case *ast.SelectorExpr:
			// A field read like cfg.rng: the selector itself is RNG-typed and
			// its root is captured — the master stream reached the worker
			// through a struct. Locally-built structs (root declared inside
			// the body) own their stream.
			if !isRNGType(f.TypeOf(v)) {
				return true // not a stream; descend to inspect the base
			}
			root := rootIdent(v.X)
			if root == nil {
				return true
			}
			if obj := f.ObjectOf(root); isFreeIn(obj, lit) {
				report(v, "RNG stream field")
				return false // chain fully handled
			}
		}
		return true
	})
	return out
}
