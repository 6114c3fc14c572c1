#!/bin/sh
# ci.sh — the repository's full verification gate. The Makefile owns the
# stages it shares with `make check` (build, vet, the arm64 listing, gofmt,
# race tests), fuzz-smoke and bench-e2e-check, and this script runs them
# through make; what it adds is the nebula-lint report archive, the
# allocation tests, the nebula-sim end-to-end gates and the seed audit (the
# lint fixture self-check is internal/lint's TestEveryCheckTripsAFixture).
# Exits nonzero on the first failure.
#
# Optionally pass a seed to also audit experiment determinism end-to-end:
#   ./ci.sh 7    # additionally runs `nebula-sim -exp fig1b -seed 7 -seed-audit`
set -eu

# await_quiescent <gate> <pid> <stderr file>: read the admin address a
# backgrounded nebula-sim printed to its stderr, poll /statusz until the run
# reports quiescence (every counter and span is final from then on), and
# leave the address in $addr. Kills the run and fails the gate otherwise.
await_quiescent() {
    addr=""
    for _ in $(seq 1 100); do
        addr=$(sed -n 's|^admin: serving on http://||p' "$3")
        [ -n "$addr" ] && break
        sleep 0.2
    done
    [ -n "$addr" ] || fail "$1: admin server never reported a bound address"
    state=""
    for _ in $(seq 1 300); do
        state=$(curl -sf "http://$addr/statusz" | sed -n '1p')
        case "$state" in *quiescent*) return 0 ;; esac
        sleep 0.2
    done
    kill "$2" 2>/dev/null || true
    fail "$1: run never reached quiescence (last statusz line: $state)"
}

# fail <what went wrong>: report and stop the gate.
fail() { echo "ci: $*" >&2; exit 1; }

# same <a> <b> <what went wrong>: two artifacts must be byte-identical.
same() { cmp "$1" "$2" || fail "$3"; }

# workers_gate <what the outputs are> <what the traces are> <gate> <gate
# failure> <audit flags> <extra runs> <nebula-sim args...>: run nebula-sim at
# -workers 1 under GOMAXPROCS=1, at -workers 4 under GOMAXPROCS=4 and at each
# extra workers/GOMAXPROCS pair, and require byte-identical stdout: neither
# the device fan-out nor the core count may move a bit. Optional, "" to skip:
# a trace per run, byte-identical too and readable by nebula-trace; a
# `<gate>: PASS` verdict line in the output; a -seed-audit pass (same seed
# twice, byte-identical) with the audit flags appended to the args.
workers_gate() {
    outs=$1 traces=$2 gate=$3 gatefail=$4 audit=$5 extra=$6
    shift 6
    tmp=$(mktemp -d)
    for run in 1/1 4/4 $extra; do
        r="w${run%/*}p${run#*/}"
        GOMAXPROCS=${run#*/} go run ./cmd/nebula-sim "$@" -workers "${run%/*}" \
            ${traces:+-trace "$tmp/$r.jsonl"} >"$tmp/$r.out" 2>/dev/null
    done
    if [ -n "$gate" ] && ! grep -q "$gate: PASS" "$tmp/w1p1.out"; then
        grep "$gate:" "$tmp/w1p1.out" >&2 || true
        fail "$gatefail"
    fi
    for run in 4/4 $extra; do
        r="w${run%/*}p${run#*/}" at="-workers ${run%/*} at GOMAXPROCS=${run#*/}"
        same "$tmp/w1p1.out" "$tmp/$r.out" "$outs differs between -workers 1 and $at"
        [ -z "$traces" ] || same "$tmp/w1p1.jsonl" "$tmp/$r.jsonl" "$traces differs between -workers 1 and $at"
    done
    [ -z "$traces" ] || go run ./cmd/nebula-trace "$tmp/w1p1.jsonl" >/dev/null
    # shellcheck disable=SC2086 # audit is a list of flags
    [ -z "$audit" ] || go run ./cmd/nebula-sim "$@" $audit >/dev/null
    rm -rf "$tmp"
}

echo "== make build vet portable fmt-check (go build + vet natively and for arm64, no fused multiply-add in the arm64 listing, gofmt)"
make build vet portable fmt-check

echo "== nebula-lint ./... (typed whole-program engine)"
linttmp=$(mktemp -d)
go build -o "$linttmp/nebula-lint" ./cmd/nebula-lint
# Findings gate the build; the clean run is then archived in both wire forms
# (text + byte-stable JSON) as CI artifacts.
artifact_dir="${CI_ARTIFACT_DIR:-$linttmp/artifacts}"
mkdir -p "$artifact_dir"
if ! "$linttmp/nebula-lint" ./... >"$artifact_dir/lint-report.txt" 2>&1; then
    cat "$artifact_dir/lint-report.txt" >&2
    fail "nebula-lint found violations (report archived at $artifact_dir/lint-report.txt)"
fi
"$linttmp/nebula-lint" -json ./... >"$artifact_dir/lint-report.json"
rm -rf "$linttmp"

echo "== make race"
make race

echo "== workers differential gate (artifacts identical for -workers 1 vs 4, and for -workers 4 at GOMAXPROCS=1)"
# -admin-addr stays on: artifacts must be identical with the telemetry
# plane live (the registry is write-only; docs/OBSERVABILITY.md). The third
# run asks tensor's pool, which has GOMAXPROCS goroutines, for more workers
# than it has, on any host.
workers_gate "experiment output" "trace JSONL" "" "" "" 4/1 \
    -exp faults -devices 6 -proxy 8 -steps 2 \
    -pretrain-epochs 1 -finetune-epochs 1 -local-epochs 1 -seed 5 \
    -admin-addr 127.0.0.1:0

echo "== conv gate (fig7 on the CNN tasks: output identical for -workers 1 vs 4 and GOMAXPROCS 1 vs 4)"
# Every other gate here runs the HAR MLP; this one trains convolutions, whose
# weight-gradient reduction is the one cross-sample sum in the kernels.
workers_gate "fig7 output" "" "" "" "" "" \
    -exp fig7 -devices 6 -proxy 6 -rounds 2 -per-round 3 \
    -pretrain-epochs 1 -local-epochs 1 -finetune-epochs 1 -seed 3

echo "== AdaptiveNet gate (table1: output identical for -workers 1 vs 4 and GOMAXPROCS 1 vs 4)"
# table1 is the only experiment that runs the AdaptiveNet baseline: its
# branches are views over one multi-branch model, trained, evaluated and
# timed through nn.Sequential on a held or fresh per-device copy.
workers_gate "table1 output" "" "" "" "" "" \
    -exp table1 -devices 6 -proxy 6 -rounds 2 -per-round 3 \
    -pretrain-epochs 1 -local-epochs 1 -finetune-epochs 1 -seed 3

echo "== local-adaptation gate (fig10: NA, LA and Nebula w/o cloud on all four tasks; output and trace identical for -workers 1 vs 4 and GOMAXPROCS 1 vs 4)"
# fig10 is the one experiment that runs NA, LA and Nebula's w/o-cloud step
# and their evaluation on all four tasks: the per-device models that are
# either held or built on a worker (fed's serve).
workers_gate "fig10 output" "fig10 trace JSONL" "" "" "" "" \
    -exp fig10 -devices 6 -proxy 6 -rounds 2 -per-round 3 -steps 2 \
    -pretrain-epochs 1 -local-epochs 1 -finetune-epochs 1 -seed 3

echo "== semi-async gate (straggler experiment: latency win at equal accuracy; async artifacts identical for -workers 1 vs 4)"
# The straggler experiment runs bulk-sync and semi-async on one seeded
# dynamic fleet (churn + pinned stragglers) and prints a machine-checkable
# verdict line; only the async run writes the trace, so the byte-diff
# exercises the deadline/staleness/churn code paths (docs/ASYNC.md). The
# audit is async determinism end to end, at two steps.
workers_gate "straggler experiment output" "semi-async trace JSONL" straggler-gate \
    "semi-async rounds did not beat bulk-sync latency at equal accuracy" \
    "-steps 2 -seed-audit" "" \
    -exp straggler -devices 6 -proxy 8 -steps 3 \
    -pretrain-epochs 1 -finetune-epochs 1 -local-epochs 1 -seed 5

echo "== wire-compression gate (compress experiment: >=2x traffic cut at bounded accuracy delta, counters exact; artifacts identical for -workers 1 vs 4)"
# The compress experiment runs one seeded adaptation twice — exact float32
# transfers vs the wire-format v2 codec (docs/PROTOCOL.md) — and prints a
# machine-checkable verdict: traffic ratio >= 2, accuracy within epsilon,
# and the Costs ledger exactly equal to trace.Summarize in both runs.
workers_gate "compress experiment output" "" compress-gate \
    "wire-format v2 did not cut traffic >=2x at bounded accuracy delta with exact counters" \
    -seed-audit "" \
    -exp compress -devices 8 -proxy 8 -rounds 3 \
    -per-round 6 -pretrain-epochs 1 -local-epochs 1 -seed 5

echo "== admin plane gate (live /healthz, /metrics, pprof; scrapes byte-stable at quiescence)"
admtmp=$(mktemp -d)
# Build a real binary: `go run` interposes a parent process, so the sim could
# not be reliably killed or reaped from here. The run doubles as a seed
# audit with the admin plane live: determinism must hold while scraped.
go build -o "$admtmp/nebula-sim" ./cmd/nebula-sim
"$admtmp/nebula-sim" -exp fig1b -seed 7 -seed-audit \
    -admin-addr 127.0.0.1:0 -admin-linger 60s \
    >"$admtmp/run.out" 2>"$admtmp/run.err" &
simpid=$!
# After quiescence every counter is final, so two scrapes must be
# byte-identical.
await_quiescent "admin gate" "$simpid" "$admtmp/run.err"
curl -sf "http://$addr/healthz" | grep -qx 'ok' || fail "/healthz did not answer ok"
curl -sf "http://$addr/metrics" >"$admtmp/m1.txt"
curl -sf "http://$addr/metrics" >"$admtmp/m2.txt"
same "$admtmp/m1.txt" "$admtmp/m2.txt" \
    "/metrics not byte-stable across two scrapes at quiescence"
# Exposition sanity: every non-comment line is `name{labels} value`, and all
# three instrumented layers export families.
if grep -v '^#' "$admtmp/m1.txt" | grep -qvE '^[a-zA-Z_][a-zA-Z0-9_]*(\{[^}]*\})? [-+0-9.eEInfa]+$'; then
    echo "ci: /metrics contains a malformed exposition line:" >&2
    grep -v '^#' "$admtmp/m1.txt" | grep -vE '^[a-zA-Z_][a-zA-Z0-9_]*(\{[^}]*\})? [-+0-9.eEInfa]+$' | head -3 >&2
    exit 1
fi
for fam in nebula_tensor_gemm_total nebula_fed_rounds_total nebula_edgenet_client_events_total; do
    grep -q "^$fam" "$admtmp/m1.txt" || fail "/metrics is missing family $fam"
done
curl -sf "http://$addr/debug/pprof/goroutine?debug=1" | grep -q '^goroutine profile:' ||
    fail "/debug/pprof/goroutine did not return a profile"
# The run only reaches quiescence after the audit verdict is printed, so
# this grep cannot race the check above.
grep -q 'seed-audit: OK' "$admtmp/run.err" || fail "seed audit failed with the admin plane live"
kill "$simpid" 2>/dev/null || true
wait "$simpid" 2>/dev/null || true
rm -rf "$admtmp"

echo "== span tracing gate (faulty straggler run: /spans scrape byte-matches capture, parents validate, round roots == trace rounds, artifacts identical to tracing off)"
spantmp=$(mktemp -d)
go build -o "$spantmp/nebula-sim" ./cmd/nebula-sim
go build -o "$spantmp/nebula-spans" ./cmd/nebula-spans
go build -o "$spantmp/nebula-trace" ./cmd/nebula-trace
# Traced pass: the straggler experiment over a lossy wire-v2 link with full
# span sampling, flight recorder mounted at /spans, capture written on exit.
"$spantmp/nebula-sim" -exp straggler -devices 6 -proxy 8 -steps 2 \
    -pretrain-epochs 1 -finetune-epochs 1 -local-epochs 1 -seed 7 \
    -faults drop=0.2 -wire -span-sample 1 \
    -spans "$spantmp/spans.jsonl" -trace "$spantmp/traced.jsonl" \
    -admin-addr 127.0.0.1:0 -admin-linger 60s \
    >"$spantmp/traced.out" 2>"$spantmp/run.err" &
spanpid=$!
await_quiescent "span gate" "$spanpid" "$spantmp/run.err"
# At quiescence the recorder is final, so the live /spans scrape must
# byte-match the capture the run wrote on exit (same snapshot, same codec).
curl -sf "http://$addr/spans" >"$spantmp/scraped.jsonl"
same "$spantmp/scraped.jsonl" "$spantmp/spans.jsonl" \
    "/spans scrape differs from the -spans capture at quiescence"
# The round-health /statusz section rides the same recorder.
curl -sf "http://$addr/statusz" | grep -q 'round health' ||
    fail "/statusz is missing the round health section"
kill "$spanpid" 2>/dev/null || true
wait "$spanpid" 2>/dev/null || true
# Structural validation: nebula-spans -check exits nonzero on any orphaned
# parent, and prints traces/spans/roots/round_roots counts.
"$spantmp/nebula-spans" -check "$spantmp/spans.jsonl" >"$spantmp/check.out" || {
    cat "$spantmp/check.out" >&2
    fail "span capture failed structural validation (orphaned parents)"
}
# Causal completeness: every deadline-paced round must have produced exactly
# one fed.round root span, so root count equals the adaptation trace's
# round count — same run, two independent observers.
roots=$(sed -n 's/.*round_roots=\([0-9][0-9]*\).*/\1/p' "$spantmp/check.out")
rounds=$("$spantmp/nebula-trace" "$spantmp/traced.jsonl" | sed -n 's/^rounds:[[:space:]]*\([0-9][0-9]*\)$/\1/p')
[ -n "$roots" ] && [ -n "$rounds" ] && [ "$roots" = "$rounds" ] || {
    cat "$spantmp/check.out" >&2
    fail "span round roots ($roots) != trace rounds ($rounds)"
}
# Artifact neutrality at the CLI boundary: the identical run with tracing
# (and the admin plane) off must produce byte-identical stdout and trace
# JSONL — the recorder is a pure observer (docs/OBSERVABILITY.md "Tracing").
"$spantmp/nebula-sim" -exp straggler -devices 6 -proxy 8 -steps 2 \
    -pretrain-epochs 1 -finetune-epochs 1 -local-epochs 1 -seed 7 \
    -faults drop=0.2 -wire \
    -trace "$spantmp/base.jsonl" >"$spantmp/base.out" 2>/dev/null
same "$spantmp/traced.out" "$spantmp/base.out" \
    "experiment output differs with span tracing on vs off"
same "$spantmp/traced.jsonl" "$spantmp/base.jsonl" \
    "trace JSONL differs with span tracing on vs off"
rm -rf "$spantmp"

echo "== allocation gates (AllocsPerRun and allocation-budget tests skip under -race, so run them once without it)"
go test -run 'ZeroAlloc|AllocBudget' ./internal/tensor/ ./internal/nn/ ./internal/modular/ ./internal/edgenet/ ./internal/fed/ ./internal/data/

echo "== make fuzz-smoke (every native Fuzz* target in the tree, 5s each beyond its seed corpus)"
make fuzz-smoke

echo "== make bench-e2e-check (bench/ vets, passes its tests and counts deterministically against this tree)"
make bench-e2e-check >/dev/null

if [ "${1:-}" != "" ]; then
    echo "== seed audit (seed $1)"
    go run ./cmd/nebula-sim -exp fig1b -seed "$1" -seed-audit >/dev/null
fi

echo "ci: all gates passed"
