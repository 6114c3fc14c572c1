# Nebula reproduction — common workflows.

GO ?= go

.PHONY: all build test vet portable fmt-check lint race check fuzz-smoke bench bench-e2e-check sweep examples clean

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# The portable paths: gemm_kernel_generic.go, quantize_generic.go and every
# loop whose bits rest on an explicit float32(a*b) are otherwise only ever
# compiled for amd64. arm64 fuses a*b+c into one rounding unless a conversion
# rounds the product first, and amd64 never fuses, so only this listing can see
# the bits move: no fused multiply-add may appear in the arm64 listing of the
# module. The amd64 assembly is written by hand, so no FMA instruction
# (VFMADD…, VFMSUB…, VFNMADD…, VFNMSUB…) may appear in any .s file outside a
# comment either.
portable:
	GOARCH=arm64 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./...
	@fused=$$(GOARCH=arm64 $(GO) build -gcflags=-S ./... 2>&1 | grep -E 'FN?M(ADD|SUB)' || true); \
		[ -z "$$fused" ] || { echo "fused multiply-add in the arm64 build (round the product with an explicit conversion): $$fused" >&2; exit 1; }
	@fused=$$(find . -name '*.s' -not -path './.git/*' -exec grep -nHE '^[^/]*VFN?M(ADD|SUB)' {} + || true); \
		[ -z "$$fused" ] || { echo "FMA instruction in the assembly (keep VMULPS and VADDPS separate): $$fused" >&2; exit 1; }

# Formatting: gofmt must have nothing to say outside the linter's fixtures.
fmt-check:
	@out=$$(gofmt -l . 2>/dev/null | grep -v '/testdata/' || true); \
		[ -z "$$out" ] || { echo "gofmt -l reports unformatted files: $$out" >&2; exit 1; }

# Project-specific static analysis: the typed whole-program engine
# (cross-package RNG-escape, lock-scope, and artifact-taint dataflow; see
# docs/ANALYSIS.md).
lint:
	$(GO) run ./cmd/nebula-lint ./...

race:
	$(GO) test -race ./...

# The CI gate: build, vet (natively and for arm64), gofmt, nebula-lint, and
# the race-instrumented test suite. Everything must exit 0. See
# docs/ANALYSIS.md for the checks. The
# allocation tests (*ZeroAlloc* in ./internal/tensor/ ./internal/nn/
# ./internal/modular/, *AllocBudget* in ./internal/edgenet/ ./internal/fed/
# ./internal/data/) skip under -race;
# `make test` runs them, and ci.sh has a stage for them. ci.sh runs these
# stages, fuzz-smoke and bench-e2e-check through this file.
check: build vet portable fmt-check lint race

test:
	$(GO) test ./...

# Every native Fuzz* target in the tree for 5s each beyond its seed corpus
# (`go test` alone only replays the seeds).
fuzz-smoke:
	$(GO) test -list '^Fuzz' ./... | awk '/^Fuzz/ {n[++k]=$$1} /^ok/ {for (i=1; i<=k; i++) print $$2, n[i]; k=0}' | \
		while read -r pkg target; do \
			$(GO) test -run '^$$' -fuzz "^$$target\$$" -fuzztime 5s "$$pkg" || exit 1; \
		done

# The end-to-end benchmark BENCHMARK.json declares: four workloads, a fresh
# process each; `-trace 1` adds the per-layer metrics (bench/README.md).
bench:
	$(GO) run -C bench .

# The end-to-end benchmark is a module of its own (bench/, replace repro =>
# ../) that `go build/vet/test ./...` from the root never compile. This
# checks it still builds, passes its tests and counts deterministically
# against the tree as it is now, and that the traced loopback_rpc pass at the
# default length fits the harness's span recorder (a dropped span fails the
# run). Read-only: nothing under bench/ changes.
bench-e2e-check:
	$(GO) -C bench vet ./...
	$(GO) -C bench test ./...
	$(GO) run -C bench . -check-determinism
	$(GO) run -C bench . --workload loopback_rpc --trace 1 >/dev/null

# Regenerate every table and figure (quick profile).
sweep:
	$(GO) run ./cmd/nebula-sim -exp all -v

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/videoanalytics
	$(GO) run ./examples/testbed
	$(GO) run ./examples/submodel_explorer
	$(GO) run ./examples/heterogeneity

# Artifacts required by the reproduction protocol.
artifacts:
	$(GO) test ./... 2>&1 | tee test_output.txt
	$(GO) test -bench=. -benchmem -benchtime=1x ./... 2>&1 | tee bench_output.txt

clean:
	$(GO) clean ./...
	rm -f test_output.txt bench_output.txt
