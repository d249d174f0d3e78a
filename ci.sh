#!/usr/bin/env bash
# ci.sh — the repository's verification gate. Its stages, in order:
#
#   gofmt, go vet, go build, go vet of the perfbench module;
#   go test -race ./... (the runner executes experiments on a worker pool,
#     so -race is load-bearing, not decoration; the cmd/repro and
#     cmd/apusimd tests build and drive the real binaries);
#   the engine bench gate against BENCH_engine.json;
#   six fuzz stages: the fault-plan parser, and the cache tag store,
#     functional memory, workgroup placement, span attribution and the
#     engine's event queue against their reference implementations.
#
# Every stage runs even when an earlier one fails; the script then exits
# 1 and names the failed stages.
set -uo pipefail
cd "$(dirname "$0")"

failed=()

# stage NAME CMD... runs one stage and records NAME if CMD fails.
stage() {
    local name=$1
    shift
    echo "== $name =="
    if ! "$@"; then
        echo "ci.sh: stage failed: $name" >&2
        failed+=("$name")
    fi
}

gofmt_check() {
    local unformatted
    unformatted=$(gofmt -l .)
    if [ -n "$unformatted" ]; then
        echo "gofmt: the following files need formatting:" >&2
        echo "$unformatted" >&2
        return 1
    fi
}

# perfbench is a module of its own, so the stages above never compile it.
# Vetting it against this tree makes a change to an API it calls fail
# here instead of breaking the benchmark silently.
perfbench_vet() {
    (cd perfbench && GOWORK=off GOPROXY=off GOFLAGS=-buildvcs=false go vet .)
}

# Engine microbenchmarks vs the committed BENCH_engine.json baseline:
# >20% ns/op regression (median of 3 short runs) or any allocs/op
# increase on the zero-alloc hot paths fails the build. The gate prints
# one line per gated benchmark (median ns/op, baseline ns/op, their
# ratio, allocs/op against baseline), so a red gate shows its numbers.
tmp_bench=$(mktemp)
trap 'rm -f "$tmp_bench"' EXIT
bench_gate() {
    go test ./internal/sim/ -run '^$' -bench '^BenchmarkEngine' -benchtime 0.25s -count 3 | tee "$tmp_bench" || return 1
    python3 - "$tmp_bench" BENCH_engine.json <<'EOF'
import json, re, statistics, sys

raw = open(sys.argv[1]).read()
base = json.load(open(sys.argv[2]))["baseline"]
runs = {}
for line in raw.splitlines():
    m = re.match(r"^(BenchmarkEngine\w+?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op(.*)$", line)
    if not m:
        continue
    allocs = re.search(r"(\d+) allocs/op", m.group(3))
    runs.setdefault(m.group(1), []).append(
        (float(m.group(2)), int(allocs.group(1)) if allocs else None))

failed = False
for name, want in base.items():
    if not isinstance(want, dict):
        continue
    rs = runs.get(name)
    if not rs:
        print("bench gate: %s missing from this run" % name)
        failed = True
        continue
    ns = statistics.median(r[0] for r in rs)
    allocs = min(r[1] for r in rs)
    bad = ns > want["ns_per_op"] * 1.20 or allocs > want["allocs_per_op"]
    print("bench gate: %-29s %10.2f ns/op, baseline %10.2f (%.2fx); %d allocs/op, baseline %d%s"
          % (name, ns, want["ns_per_op"], ns / want["ns_per_op"],
             allocs, want["allocs_per_op"], "  FAILED" if bad else ""))
    failed = failed or bad
if failed:
    print("bench gate: failed: more than 1.20x baseline ns/op, or more allocs/op")
    sys.exit(1)
print("bench gate: all benchmarks within 20% of baseline")
EOF
}

# fuzz PKG TARGET TIME runs one coverage-guided fuzz target for TIME.
fuzz() {
    go test "$1" -run '^$' -fuzz "^$2\$" -fuzztime "$3" >/dev/null
}

stage "gofmt" gofmt_check
stage "go vet" go vet ./...
stage "go build" go build ./...
stage "perfbench module vet" perfbench_vet
stage "go test -race" go test -race ./...
stage "engine bench gate" bench_gate

# 30 seconds of coverage-guided fuzzing over the RAS fault-plan parser:
# it must never panic, and accepted plans must round-trip.
stage "fault-plan fuzz smoke" fuzz ./internal/ras/ FuzzParsePlan 30s

# 15 seconds of coverage-guided fuzzing of SetAssoc against the reference
# tag store it replaced: every return value and the Stats must match.
stage "cache tag store differential fuzz smoke" fuzz ./internal/cache/ FuzzSetAssocDifferential 15s

# 15 seconds of coverage-guided fuzzing of mem.Space against the map-backed
# reference it replaced: every return value, read buffer, panic and
# TouchedBytes must match.
stage "functional memory differential fuzz smoke" fuzz ./internal/mem/ FuzzSpaceDifferential 15s

# 15 seconds of coverage-guided fuzzing of the XCD placement tree against
# the scan it replaced: every placement's CU and slot must match.
stage "workgroup placement differential fuzz smoke" fuzz ./internal/gpu/ FuzzPlacementDifferential 15s

# 15 seconds of coverage-guided fuzzing of the span recorder's attribution
# against the map-based builder it replaced: the reports must be equal.
stage "span attribution differential fuzz smoke" fuzz ./internal/spans/ FuzzAttributionDifferential 15s

# 15 seconds of coverage-guided fuzzing of sim.Engine against the
# linear-scan reference engine: the firing trace, Now, Fired, Cancelled,
# Drained and Quiescent must match after every operation.
stage "event engine differential fuzz smoke" fuzz ./internal/sim/ FuzzEngineDifferential 15s

if [ ${#failed[@]} -gt 0 ]; then
    echo "ci.sh: ${#failed[@]} stage(s) failed:" >&2
    printf '  %s\n' "${failed[@]}" >&2
    exit 1
fi
echo "ci.sh: all checks passed"
