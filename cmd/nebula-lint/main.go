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
//
// Diagnostics print as `file:line: [check] message`; the exit status is 1
// when any finding survives //nolint filtering, so `make check` and ci.sh
// can gate on it. Suppress a finding with `//nolint:check -- reason`
// on or above the offending line; a reason is mandatory.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/lint"
)

func main() {
	var (
		list   = flag.Bool("list", false, "describe every check and exit")
		checks = flag.String("checks", "", "comma-separated subset of checks to report (default: all)")
	)
	flag.Parse()

	if *list {
		for _, c := range lint.Checks {
			fmt.Printf("%-13s %s\n", c.Name, c.Doc)
		}
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

	diags := lint.Run(pkgs)
	if reported != nil {
		// Filter the final stream by name: the loader and nolint
		// pseudo-checks flow through the same stream, so `-checks loaderror`
		// works.
		var kept []lint.Diagnostic
		for _, d := range diags {
			if reported[d.Check] {
				kept = append(kept, d)
			}
		}
		diags = kept
	}

	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "nebula-lint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

// checkSet parses the -checks spec against real and pseudo check names.
// Returns nil when the spec is empty (report everything).
func checkSet(spec string) map[string]bool {
	if spec == "" {
		return nil
	}
	known := map[string]bool{}
	for _, c := range lint.Checks {
		known[c.Name] = true
	}
	out := map[string]bool{}
	for _, name := range strings.Split(spec, ",") {
		if name = strings.TrimSpace(name); name != "" && known[name] {
			out[name] = true
		}
	}
	return out
}
