package lint

import (
	"fmt"
	"go/ast"
	"strconv"
	"strings"
)

// globalSourceFuncs are the package-level math/rand functions backed by the
// shared, unseeded-by-config global source.
var globalSourceFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true, "Int63": true,
	"Int63n": true, "Uint32": true, "Uint64": true, "Float32": true,
	"Float64": true, "NormFloat64": true, "ExpFloat64": true, "Perm": true,
	"Shuffle": true, "N": true, "IntN": true, "Int32N": true, "Int64N": true,
}

// seedRand flags math/rand usage that breaks run-to-run reproducibility:
// calls on the shared global source (rand.Intn, rand.Float64, ...),
// rand.Seed, and sources seeded from time.Now. Every experiment must be replayable from the single config seed
// (nebula-sim -seed); the canonical fix is to thread a *tensor.RNG derived
// from Options.Seed instead of touching package-level rand state.
func seedRand(f *File) []Diagnostic {
	randName, ok := importName(f.AST, "math/rand", "math/rand/v2")
	if !ok {
		return nil
	}
	var out []Diagnostic
	ast.Inspect(f.AST, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkg, ok := sel.X.(*ast.Ident)
		if !ok || pkg.Name != randName {
			return true
		}
		pos := f.Fset.Position(call.Pos())
		switch {
		case sel.Sel.Name == "Seed":
			out = append(out, Diagnostic{Pos: pos, Check: "seedrand",
				Message: "rand.Seed mutates the shared global source; construct rand.New(rand.NewSource(cfgSeed)) or use *tensor.RNG"})
		case sel.Sel.Name == "NewSource" && containsTimeNow(call):
			out = append(out, Diagnostic{Pos: pos, Check: "seedrand",
				Message: "source seeded from time.Now is unreproducible; seed from the experiment config instead"})
		case globalSourceFuncs[sel.Sel.Name]:
			out = append(out, Diagnostic{Pos: pos, Check: "seedrand",
				Message: fmt.Sprintf("rand.%s uses the global source and ignores the config seed; thread a *tensor.RNG", sel.Sel.Name)})
		}
		return true
	})
	return out
}

// importName returns the local name under which any of the given import
// paths is bound in f, and whether one is imported at all.
func importName(f *ast.File, paths ...string) (string, bool) {
	for _, imp := range f.Imports {
		path, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			continue
		}
		for _, want := range paths {
			if path != want {
				continue
			}
			if imp.Name != nil {
				if imp.Name.Name == "_" || imp.Name.Name == "." {
					continue
				}
				return imp.Name.Name, true
			}
			name := path
			if i := strings.LastIndex(name, "/"); i >= 0 {
				name = name[i+1:]
			}
			if name == "v2" {
				name = "rand"
			}
			return name, true
		}
	}
	return "", false
}

// containsTimeNow reports whether the call's arguments reference time.Now.
func containsTimeNow(call *ast.CallExpr) bool {
	found := false
	for _, arg := range call.Args {
		ast.Inspect(arg, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "time" && sel.Sel.Name == "Now" {
					found = true
				}
			}
			return !found
		})
	}
	return found
}
