package lint

import (
	"fmt"
	"go/ast"
	"strings"
)

// rawClock flags direct time.Now / time.Since calls outside the sanctioned
// wall-clock gateway. The simulator's cost model is simulated time: traces,
// tables, and figures must byte-compare across runs and worker counts, so
// wall-clock reads leaking into simulation logic are a determinism bug.
// Wall-time measurement belongs behind obs.StartTimer / obs.Stopwatch (whose
// readings feed write-only telemetry); genuinely
// wall-clock code (network I/O deadlines) documents itself with
// `//nolint:rawclock -- reason`. It applies everywhere but the gateway
// itself: internal/obs owns Stopwatch, and _test.go files time real
// execution by nature.
func rawClock(f *File) []Diagnostic {
	if f.inModule("internal/obs/") || strings.HasSuffix(f.Path, "_test.go") {
		return nil
	}
	timeName, ok := importName(f.AST, "time")
	if !ok {
		return nil
	}
	var out []Diagnostic
	ast.Inspect(f.AST, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkg, ok := sel.X.(*ast.Ident)
		if !ok || pkg.Name != timeName {
			return true
		}
		if sel.Sel.Name != "Now" && sel.Sel.Name != "Since" {
			return true
		}
		out = append(out, Diagnostic{
			Pos:   f.Fset.Position(sel.Pos()),
			Check: "rawclock",
			Message: fmt.Sprintf("time.%s reads the wall clock in simulation code; use obs.StartTimer/obs.Stopwatch (telemetry) or simulated time, or justify with //nolint:rawclock",
				sel.Sel.Name),
		})
		return true
	})
	return out
}
