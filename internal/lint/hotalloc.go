package lint

import (
	"fmt"
	"go/ast"
)

// hotAlloc flags `make(` inside function literals passed to a parallel
// executor (parallelExecutors: ParallelFor, ParallelForWorkers, serve,
// globalRound, the list rngescape reads). These closures are the training
// hot path: an allocation there repeats per step (and per work item), which
// is exactly the steady-state garbage the scratch arena exists to
// eliminate. The canonical fix is tensor.GetScratch/PutScratch, or a buffer
// owned by the enclosing layer or worker; a deliberate exception needs
// `//nolint:hotalloc` with a justification.
func hotAlloc(f *File) []Diagnostic {
	var out []Diagnostic
	ast.Inspect(f.AST, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name := calleeName(call)
		if !parallelExecutors[name] {
			return true
		}
		for _, fn := range funcLitArgs(call) {
			ast.Inspect(fn.Body, func(inner ast.Node) bool {
				mk, ok := inner.(*ast.CallExpr)
				if !ok {
					return true
				}
				if id, ok := mk.Fun.(*ast.Ident); ok && id.Name == "make" {
					out = append(out, Diagnostic{
						Pos:   f.Fset.Position(mk.Pos()),
						Check: "hotalloc",
						Message: fmt.Sprintf(
							"make() inside a %s body allocates on every invocation; draw from tensor.GetScratch or a layer-owned buffer", name),
					})
				}
				return true
			})
		}
		return true
	})
	return out
}
