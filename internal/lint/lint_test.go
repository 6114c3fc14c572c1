package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// loadFixtures parses the testdata tree once per test that needs it.
func loadFixtures(t *testing.T) []*Package {
	t.Helper()
	pkgs, err := Load([]string{"testdata"})
	if err != nil {
		t.Fatalf("Load(testdata): %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("Load(testdata) found no packages")
	}
	return pkgs
}

// runOn lints the fixtures and groups diagnostics by fixture base name.
func runOn(t *testing.T, pkgs []*Package) map[string][]Diagnostic {
	t.Helper()
	byFile := map[string][]Diagnostic{}
	for _, d := range Run(pkgs) {
		byFile[filepath.Base(d.Pos.Filename)] = append(byFile[filepath.Base(d.Pos.Filename)], d)
	}
	return byFile
}

// TestFixtures is the golden table: every trigger file produces exactly one
// diagnostic of its namesake check, the clean and suppressed files produce
// none, and a bare //nolint surfaces as the "nolint" pseudo-check. errdrop.go
// lies outside the paths errdrop applies to, so it is quiet; its in-scope
// twin is the xmod/errdrop mini-module (TestErrDropTyped).
func TestFixtures(t *testing.T) {
	want := map[string][]string{
		"maporder.go":   {"maporder"},
		"goleak.go":     {"goleak"},
		"errdrop.go":    nil,
		"seedrand.go":   {"seedrand"},
		"hotalloc.go":   {"hotalloc", "hotalloc"},
		"rngescape.go":  {"rngescape", "rngescape", "rngescape"},
		"lockedcall.go": {"lockedcall"},
		"mapsink.go":    {"maporder"},
		"rawclock.go":   {"rawclock", "rawclock"},
		"spanleak.go":   {"spanleak", "spanleak"},
		"clean.go":      nil,
		"suppressed.go": nil,
		"nolintbare.go": {"nolint"},
	}
	byFile := runOn(t, loadFixtures(t))
	for file, checks := range want {
		got := byFile[file]
		if len(got) != len(checks) {
			t.Errorf("%s: got %d diagnostics %v, want checks %v", file, len(got), got, checks)
			continue
		}
		for i, check := range checks {
			if got[i].Check != check {
				t.Errorf("%s: diagnostic %d is [%s], want [%s]: %s", file, i, got[i].Check, check, got[i])
			}
		}
	}
	for file := range byFile {
		if _, ok := want[file]; !ok {
			t.Errorf("unexpected diagnostics in %s: %v", file, byFile[file])
		}
	}
}

// TestEveryCheckTripsAFixture: one run over the whole fixture tree
// (the flat files and the cross-package mini-modules under xmod/) reports a
// finding of every check -list names, the loaderror and nolint pseudo-checks
// included, so no registered check can go dead without a test failing. serve
// and globalRound reach the device pool only through a parameter, so
// rngescape matches them by name; their fixtures must trip too.
func TestEveryCheckTripsAFixture(t *testing.T) {
	pkgs, err := Load([]string{"testdata/..."})
	if err != nil {
		t.Fatalf("Load(testdata/...): %v", err)
	}
	diags := Run(pkgs)
	seen := map[string]bool{}
	var escapes []string
	for _, d := range diags {
		seen[d.Check] = true
		if d.Check == "rngescape" {
			escapes = append(escapes, d.Message)
		}
	}
	for _, c := range Checks {
		if !seen[c.Name] {
			t.Errorf("no fixture trips check %q: every registered check needs a tripping fixture", c.Name)
		}
	}
	for _, executor := range []string{"serve", "globalRound"} {
		if !slices.ContainsFunc(escapes, func(m string) bool {
			return strings.Contains(m, "escapes into a "+executor+" worker body")
		}) {
			t.Errorf("rngescape did not trip on its %s fixture: %q", executor, escapes)
		}
	}
}

// TestDiagnosticFormat pins the `file:line: [check] message` wire format the
// Makefile and ci.sh grep for.
func TestDiagnosticFormat(t *testing.T) {
	byFile := runOn(t, loadFixtures(t))
	diags := byFile["maporder.go"]
	if len(diags) != 1 {
		t.Fatalf("maporder.go: got %d diagnostics, want 1", len(diags))
	}
	s := diags[0].String()
	wantPrefix := fmt.Sprintf("%s:%d: [maporder] ", filepath.Join("testdata", "maporder.go"), diags[0].Pos.Line)
	if !strings.HasPrefix(s, wantPrefix) {
		t.Errorf("diagnostic %q does not match format %q", s, wantPrefix+"...")
	}
}

// TestSelfClean locks in the tentpole invariant: the analyzer exits clean on
// the repository's own tree, so `make check` stays green.
func TestSelfClean(t *testing.T) {
	pkgs, err := Load([]string{"../..."})
	if err != nil {
		t.Fatalf("Load(../...): %v", err)
	}
	if diags := Run(pkgs); len(diags) != 0 {
		for _, d := range diags {
			t.Errorf("repository tree is not lint-clean: %s", d)
		}
	}
}

// TestNolintGrammar covers directive parsing edge cases.
func TestNolintGrammar(t *testing.T) {
	cases := []struct {
		name      string
		directive string
		suppress  bool // suppresses maporder on the next line?
		justified bool
	}{
		{"justified-specific", "//nolint:maporder -- keys feed a set", true, true},
		{"justified-all", "//nolint -- prototype code", true, true},
		{"wrong-check", "//nolint:goleak -- not this one", false, true},
		{"bare", "//nolint:maporder", true, false},
		{"multi", "//nolint:goleak,maporder -- both silenced", true, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src := "package p\n\nfunc f(m map[int]int) []int {\n\tvar out []int\n\t" +
				tc.directive + "\n\tfor k := range m {\n\t\tout = append(out, k+1)\n\t}\n\treturn out\n}\n"
			pkgs := parseSource(t, src)
			diags := Run(pkgs)
			var gotMap, gotNolint bool
			for _, d := range diags {
				switch d.Check {
				case "maporder":
					gotMap = true
				case "nolint":
					gotNolint = true
				}
			}
			if gotMap == tc.suppress {
				t.Errorf("directive %q: maporder reported=%v, want suppressed=%v (diags %v)",
					tc.directive, gotMap, tc.suppress, diags)
			}
			if gotNolint == tc.justified {
				t.Errorf("directive %q: nolint-complaint reported=%v, want justified=%v",
					tc.directive, gotNolint, tc.justified)
			}
		})
	}
}

// runXmod loads one cross-package mini-module fixture recursively and lints
// it, returning diagnostics grouped by check name.
func runXmod(t *testing.T, sub string) map[string][]Diagnostic {
	t.Helper()
	pkgs, err := Load([]string{filepath.Join("testdata", "xmod", sub) + "/..."})
	if err != nil {
		t.Fatalf("Load(xmod/%s): %v", sub, err)
	}
	byCheck := map[string][]Diagnostic{}
	for _, d := range Run(pkgs) {
		byCheck[d.Check] = append(byCheck[d.Check], d)
	}
	return byCheck
}

// TestErrDropTyped: inside a path errdrop applies to, a dropped error from
// an io.Closer is a finding and a Close that returns nothing is not.
func TestErrDropTyped(t *testing.T) {
	got := runXmod(t, "errdrop")["errdrop"]
	if len(got) != 1 {
		t.Fatalf("errdrop findings = %v, want exactly 1 (conn.Close flagged, srv.Close quiet)", got)
	}
	if !strings.Contains(got[0].String(), "conn.go:17:") {
		t.Errorf("finding is not on conn.Close: %s", got[0])
	}
}

// TestCrossPackageRNGEscape: the captured stream's type (*pool.RNG) is
// declared one import edge away from the capture site; the pre-split
// variant in the same file must stay quiet.
func TestCrossPackageRNGEscape(t *testing.T) {
	byCheck := runXmod(t, "rngescape")
	got := byCheck["rngescape"]
	if len(got) != 1 {
		t.Fatalf("rngescape findings = %v, want exactly 1 (escape flagged, split variant quiet)", got)
	}
	if base := filepath.Base(got[0].Pos.Filename); base != "round.go" {
		t.Errorf("finding in %s, want round.go: %s", base, got[0])
	}
}

// TestCrossPackageLockedCall: the first flagged call blocks only
// transitively — srv.Broadcast → wire.Send → gob.Encode, across two package
// boundaries — and the diagnostic names the resolved chain. The other two
// never block: they are the CPU-heavy seeds (a weight clone of the model, the
// quantizer), recognised by the import-path suffix of the package that
// declares them. The snapshot-then-work variants must stay quiet.
func TestCrossPackageLockedCall(t *testing.T) {
	byCheck := runXmod(t, "lockedcall")
	got := byCheck["lockedcall"]
	if len(got) != 3 {
		t.Fatalf("lockedcall findings = %v, want exactly 3", got)
	}
	for i, want := range []string{"gob", "modular.Model.Extract (weight clone", "nn.Quantize8 (CPU-heavy"} {
		if base := filepath.Base(got[i].Pos.Filename); base != "srv.go" {
			t.Errorf("finding in %s, want srv.go: %s", base, got[i])
		}
		if !strings.Contains(got[i].Message, want) {
			t.Errorf("diagnostic %d does not name %q: %s", i, want, got[i])
		}
	}
}

// TestCrossPackageArtifactOrder: maporder's sink rule resolves the sink type
// (*trace.Span, import path suffix internal/trace) across the import edge;
// the sorted variant and its read-only Len call must stay quiet.
func TestCrossPackageArtifactOrder(t *testing.T) {
	byCheck := runXmod(t, "mapsink")
	got := byCheck["maporder"]
	if len(got) != 1 {
		t.Fatalf("maporder findings = %v, want exactly 1", got)
	}
	if base := filepath.Base(got[0].Pos.Filename); base != "emit.go" {
		t.Errorf("finding in %s, want emit.go: %s", base, got[0])
	}
}

// TestImportCycleDiagnostic: a module-local import cycle must surface as a
// loaderror diagnostic — not a panic, not an infinite loop — and the cycle
// members must still be checked best-effort.
func TestImportCycleDiagnostic(t *testing.T) {
	byCheck := runXmod(t, "cycle")
	got := byCheck[LoadErrorCheck]
	if len(got) == 0 {
		t.Fatal("import cycle produced no loaderror diagnostic")
	}
	for _, d := range got {
		if !strings.Contains(d.Message, "cycle") {
			t.Errorf("loaderror does not mention the cycle: %s", d)
		}
	}
}

// TestBrokenDependencyDiagnostic: a syntax-broken dependency must surface as
// a loaderror positioned in the broken file, while the importing package
// still loads and checks.
func TestBrokenDependencyDiagnostic(t *testing.T) {
	pkgs, err := Load([]string{filepath.Join("testdata", "xmod", "broken") + "/..."})
	if err != nil {
		t.Fatalf("Load(xmod/broken): %v", err)
	}
	var sawApp bool
	for _, pkg := range pkgs {
		if pkg.Name == "app" {
			sawApp = true
			if pkg.Info == nil {
				t.Error("app package has no type info despite broken dependency")
			}
		}
	}
	if !sawApp {
		t.Fatal("importing package app did not load")
	}
	var sawParse bool
	for _, d := range Run(pkgs) {
		if d.Check == LoadErrorCheck && filepath.Base(d.Pos.Filename) == "dep.go" {
			sawParse = true
		}
	}
	if !sawParse {
		t.Error("syntax-broken dep.go produced no loaderror diagnostic")
	}
}

// parseSource loads a single in-memory file through the same pipeline as
// Load, via a temp directory.
func parseSource(t *testing.T, src string) []*Package {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "src.go")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pkgs, err := Load([]string{dir})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	return pkgs
}
