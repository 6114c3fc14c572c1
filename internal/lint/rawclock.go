package lint

import (
	"fmt"
	"go/ast"
	"path/filepath"
	"strings"
)

// RawClock flags direct time.Now / time.Since calls outside the sanctioned
// wall-clock gateway. The simulator's cost model is simulated time: traces,
// tables, and figures must byte-compare across runs and worker counts, so
// wall-clock reads leaking into simulation logic are a determinism bug.
// Wall-time measurement belongs behind obs.StartTimer / obs.Stopwatch (whose
// readings feed write-only telemetry); genuinely
// wall-clock code (network I/O deadlines) documents itself with
// `//nolint:rawclock -- reason`.
type RawClock struct{}

// Name implements Analyzer.
func (RawClock) Name() string { return "rawclock" }

// Doc implements Analyzer.
func (RawClock) Doc() string {
	return "direct time.Now/time.Since outside internal/obs; use obs.Stopwatch"
}

// DefaultPaths implements Analyzer: the check applies everywhere; the obs
// gateway (and tests, which measure real time legitimately) are excluded
// inside Check because the runner's scoping is include-only.
func (RawClock) DefaultPaths() []string { return nil }

// rawClockExempt reports whether path hosts the sanctioned wall-clock
// gateway: internal/obs owns Stopwatch, and _test.go files time real
// execution by nature.
func rawClockExempt(path string) bool {
	if abs, err := filepath.Abs(path); err == nil {
		path = abs
	}
	slashed := filepath.ToSlash(path)
	return strings.Contains(slashed, "internal/obs/") ||
		strings.HasSuffix(slashed, "_test.go")
}

// Check implements Analyzer.
func (RawClock) Check(f *File) []Diagnostic {
	if rawClockExempt(f.Path) {
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
