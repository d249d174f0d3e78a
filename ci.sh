#!/usr/bin/env bash
# ci.sh — the repository's verification gate. Its stages, in order:
#
#   gofmt, go vet, go build, go vet of the perfbench module;
#   go test -race ./... (the runner executes experiments on a worker pool,
#     so -race is load-bearing, not decoration; the cmd/repro and
#     cmd/apusimd tests build and drive the real binaries);
#   the engine bench gate against BENCH_engine.json;
#   three fuzz stages: the fault-plan parser, and the cache tag store and
#     functional memory against their reference implementations.
set -euo pipefail
cd "$(dirname "$0")"

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== perfbench module vet =="
# perfbench is a module of its own, so the stages above never compile it.
# Vetting it against this tree makes a change to an API it calls fail
# here instead of breaking the benchmark silently.
(cd perfbench && GOWORK=off GOPROXY=off GOFLAGS=-buildvcs=false go vet .)

echo "== go test -race =="
go test -race ./...

echo "== engine bench gate =="
# Engine microbenchmarks vs the committed BENCH_engine.json baseline:
# >20% ns/op regression (median of 3 short runs) or any allocs/op
# increase on the zero-alloc hot paths fails the build. The fresh
# measurement JSON is emitted next to the raw output for inspection.
tmp_bench=$(mktemp)
tmp_bench_json=$(mktemp)
trap 'rm -f "$tmp_bench" "$tmp_bench_json"' EXIT
go test ./internal/sim/ -run '^$' -bench '^BenchmarkEngine' -benchtime 0.25s -count 3 | tee "$tmp_bench"
python3 - "$tmp_bench" BENCH_engine.json "$tmp_bench_json" <<'EOF'
import json, re, statistics, sys

raw = open(sys.argv[1]).read()
base = json.load(open(sys.argv[2]))["baseline"]
runs = {}
for line in raw.splitlines():
    m = re.match(r"^(BenchmarkEngine\w+?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op(.*)$", line)
    if not m:
        continue
    name, ns, rest = m.group(1), float(m.group(2)), m.group(3)
    rate = re.search(r"([\d.]+) (?:events|ops)/s", rest)
    allocs = re.search(r"(\d+) allocs/op", rest)
    runs.setdefault(name, []).append({
        "ns_per_op": ns,
        "rate_per_s": float(rate.group(1)) if rate else None,
        "allocs_per_op": int(allocs.group(1)) if allocs else None,
    })

measured = {
    name: {
        "ns_per_op": statistics.median(r["ns_per_op"] for r in rs),
        "rate_per_s": statistics.median(r["rate_per_s"] for r in rs) if rs[0]["rate_per_s"] is not None else None,
        "allocs_per_op": min(r["allocs_per_op"] for r in rs),
    }
    for name, rs in runs.items()
}
json.dump(measured, open(sys.argv[3], "w"), indent=2)

failed = False
for name, want in base.items():
    if not isinstance(want, dict):
        continue
    got = measured.get(name)
    if got is None:
        print("bench gate: %s missing from this run" % name)
        failed = True
        continue
    if got["ns_per_op"] > want["ns_per_op"] * 1.20:
        print("bench gate: %s regressed: %.2f ns/op vs baseline %.2f (+%.0f%%)"
              % (name, got["ns_per_op"], want["ns_per_op"],
                 100 * (got["ns_per_op"] / want["ns_per_op"] - 1)))
        failed = True
    if got["allocs_per_op"] > want["allocs_per_op"]:
        print("bench gate: %s allocates %d/op, baseline %d"
              % (name, got["allocs_per_op"], want["allocs_per_op"]))
        failed = True
if failed:
    print("bench gate: see fresh measurements in", sys.argv[3])
    sys.exit(1)
print("bench gate: all benchmarks within 20%% of baseline (measured -> %s)" % sys.argv[3])
EOF

echo "== fault-plan fuzz smoke =="
# 30 seconds of coverage-guided fuzzing over the RAS fault-plan parser:
# it must never panic, and accepted plans must round-trip.
go test ./internal/ras/ -run '^$' -fuzz '^FuzzParsePlan$' -fuzztime 30s >/dev/null

echo "== cache tag store differential fuzz smoke =="
# 15 seconds of coverage-guided fuzzing of SetAssoc against the reference
# tag store it replaced: every return value and the Stats must match.
go test ./internal/cache/ -run '^$' -fuzz '^FuzzSetAssocDifferential$' -fuzztime 15s >/dev/null

echo "== functional memory differential fuzz smoke =="
# 15 seconds of coverage-guided fuzzing of mem.Space against the map-backed
# reference it replaced: every return value, read buffer, panic and
# TouchedBytes must match.
go test ./internal/mem/ -run '^$' -fuzz '^FuzzSpaceDifferential$' -fuzztime 15s >/dev/null

echo "ci.sh: all checks passed"
