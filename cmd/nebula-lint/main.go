// Command nebula-lint is the project's static analyzer: it enforces the
// determinism and concurrency invariants Nebula's correctness claims rest on
// (module-wise aggregation order, leak-free goroutine fan-out, error-checked
// protocol I/O, config-seeded randomness, and the coordinator/worker/reduce
// contract of the parallel executor). The engine is
// whole-program and fully type-checked: cross-package captures, transitive
// blocking callees, and sink types all resolve for real.
//
// Usage:
//
//	nebula-lint ./...                    lint the whole tree (default)
//	nebula-lint -list                    one line per check (incl. pseudo-checks)
//	nebula-lint -checks maporder,goleak internal/modular
//	nebula-lint -unscoped internal/lint/testdata
//	nebula-lint -json ./...              byte-stable JSON findings array
//
// Diagnostics print as `file:line: [check] message`; the exit status is 1
// when any finding survives //nolint filtering, so `make check` and ci.sh
// can gate on it. Suppress a finding with `//nolint:check -- reason`
// on or above the offending line; a reason is mandatory.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/lint"
)

func main() {
	var (
		list     = flag.Bool("list", false, "describe every check and exit")
		checks   = flag.String("checks", "", "comma-separated subset of checks to report (default: all)")
		unscoped = flag.Bool("unscoped", false, "ignore per-check path scoping (lint fixture trees)")
		jsonOut  = flag.Bool("json", false, "emit findings as a byte-stable JSON array")
	)
	flag.Parse()

	analyzers := lint.All()
	if *list {
		printList(analyzers)
		return
	}

	reported := checkSet(*checks)
	if *checks != "" && len(reported) == 0 {
		fmt.Fprintf(os.Stderr, "nebula-lint: no known checks in %q (see -list)\n", *checks)
		os.Exit(2)
	}

	roots := flag.Args()
	if len(roots) == 0 {
		roots = []string{"./..."}
	}
	pkgs, err := lint.Load(roots)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nebula-lint:", err)
		os.Exit(2)
	}

	runner := &lint.Runner{Analyzers: analyzers, Unscoped: *unscoped}
	diags := runner.Run(pkgs)
	if reported != nil {
		// Filter the final stream by name rather than pruning Analyzers: the
		// loader and nolint pseudo-checks flow through the same stream, so
		// `-checks loaderror` works, and fixture noise from other checks is
		// dropped even in -unscoped runs.
		var kept []lint.Diagnostic
		for _, d := range diags {
			if reported[d.Check] {
				kept = append(kept, d)
			}
		}
		diags = kept
	}

	if *jsonOut {
		os.Stdout.Write(renderJSON(diags))
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "nebula-lint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

// printList writes one line per check — name, then doc — followed by an
// indented scope line. Pseudo-checks (loaderror, nolint) are listed too: they
// appear in diagnostics and -checks like real checks.
func printList(analyzers []lint.Analyzer) {
	for _, a := range analyzers {
		scope := "all packages"
		if paths := a.DefaultPaths(); len(paths) > 0 {
			scope = strings.Join(paths, ", ")
		}
		fmt.Printf("%-13s %s\n%-13s scope: %s\n", a.Name(), a.Doc(), "", scope)
	}
	for _, p := range lint.PseudoChecks() {
		fmt.Printf("%-13s %s\n%-13s scope: all packages (pseudo-check)\n", p.Name, p.Doc, "")
	}
}

// checkSet parses the -checks spec against real and pseudo check names.
// Returns nil when the spec is empty (report everything).
func checkSet(spec string) map[string]bool {
	if spec == "" {
		return nil
	}
	known := map[string]bool{}
	for _, a := range lint.All() {
		known[a.Name()] = true
	}
	for _, p := range lint.PseudoChecks() {
		known[p.Name] = true
	}
	out := map[string]bool{}
	for _, name := range strings.Split(spec, ",") {
		if name = strings.TrimSpace(name); name != "" && known[name] {
			out[name] = true
		}
	}
	return out
}

// renderJSON renders findings as a byte-stable JSON array: fixed field order,
// one object per line, input already sorted by the runner. An empty run is
// `[]`, not null, so downstream tooling can always parse an array.
func renderJSON(diags []lint.Diagnostic) []byte {
	var b bytes.Buffer
	b.WriteString("[")
	for i, d := range diags {
		if i > 0 {
			b.WriteString(",")
		}
		b.WriteString("\n  ")
		file, _ := json.Marshal(d.Pos.Filename)
		check, _ := json.Marshal(d.Check)
		msg, _ := json.Marshal(d.Message)
		fmt.Fprintf(&b, `{"file": %s, "line": %d, "check": %s, "message": %s}`,
			file, d.Pos.Line, check, msg)
	}
	if len(diags) > 0 {
		b.WriteString("\n")
	}
	b.WriteString("]\n")
	return b.Bytes()
}
