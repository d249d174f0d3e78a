#!/usr/bin/env bash
# ci.sh — the repository's verification gate.
#
# Runs formatting, static analysis, build, and the full test suite under
# the race detector (the runner executes experiments on a worker pool,
# so -race is load-bearing, not decoration).
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

echo "== fault-injection smoke =="
# A survivable fault plan must complete (degraded, exit 0); a plan that
# partitions the fabric must fail with the typed error (exit nonzero).
go run ./cmd/repro -faults cmd/repro/testdata/faults-degraded.json >/dev/null
if go run ./cmd/repro -faults cmd/repro/testdata/faults-partition.json >/dev/null 2>&1; then
    echo "ci.sh: partitioning fault plan exited 0, want failure" >&2
    exit 1
fi

echo "== telemetry smoke =="
# A sampled run must emit a parseable series file that names a known
# probe and carries the pinned schema versions.
tmp_telemetry=$(mktemp)
trap 'rm -f "$tmp_telemetry"' EXIT
go run ./cmd/repro -exp rasecc -telemetry "$tmp_telemetry" -sample-ns 100000 >/dev/null
python3 - "$tmp_telemetry" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
assert d["schema"] == "apusim-telemetry-runs/v1", d["schema"]
run = d["runs"][0]
assert run["id"] == "rasecc", run["id"]
t = run["telemetry"]
assert t["schema"] == "apusim-telemetry/v1", t["schema"]
names = [s["name"] for s in t["series"]]
assert "hbm.ecc_retries" in names, names
assert len(t["times_ns"]) > 0 and t["sample_ns"] == 100000
EOF

echo "== audit smoke =="
# The full evaluation must run clean under strict invariant auditing:
# every conservation ledger balances on every experiment, and the
# manifest carries per-run audit reports with zero violations.
tmp_audit_manifest=$(mktemp)
trap 'rm -f "$tmp_telemetry" "$tmp_audit_manifest"' EXIT
go run ./cmd/repro -audit -strict -manifest "$tmp_audit_manifest" >/dev/null
python3 - "$tmp_audit_manifest" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
assert d["schema"] == "apusim-run-manifest/v1", d["schema"]
assert d["suite"].get("violated", 0) == 0, d["suite"]
audited = [e for e in d["experiments"] if "audit" in e]
assert audited, "no experiment carried an audit report"
for e in audited:
    a = e["audit"]
    assert a["schema"] == "apusim-audit/v1", a["schema"]
    assert a["violations"] == [], (e["id"], a["violations"])
EOF

echo "== chaos sweep =="
# Seeded random fault storms must complete (ok or degraded, exit 0) with
# clean audits, and the report file must be byte-identical at -parallel 1
# and -parallel 8.
tmp_chaos1=$(mktemp)
tmp_chaos8=$(mktemp)
trap 'rm -f "$tmp_telemetry" "$tmp_audit_manifest" "$tmp_chaos1" "$tmp_chaos8"' EXIT
go run ./cmd/repro -chaos-seed 20260806 -chaos-count 16 -strict -parallel 1 -audit-out "$tmp_chaos1" >/dev/null
go run ./cmd/repro -chaos-seed 20260806 -chaos-count 16 -strict -parallel 8 -audit-out "$tmp_chaos8" >/dev/null
cmp "$tmp_chaos1" "$tmp_chaos8"
python3 - "$tmp_chaos1" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
assert d["schema"] == "apusim-audit-runs/v1", d["schema"]
assert len(d["runs"]) == 16, len(d["runs"])
for run in d["runs"]:
    assert run["audit"]["violations"] == [], (run["id"], run["audit"])
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

echo "== apusimd smoke =="
# The daemon must serve the job API end to end: an identical resubmission
# must be served from cache with byte-identical manifest bytes and the
# /v1/metrics counters must say so, and SIGTERM must drain cleanly.
tmp_apusimd=$(mktemp)
tmp_apusimd_log=$(mktemp)
trap 'rm -f "$tmp_telemetry" "$tmp_audit_manifest" "$tmp_chaos1" "$tmp_chaos8" "$tmp_apusimd" "$tmp_apusimd_log"' EXIT
go build -o "$tmp_apusimd" ./cmd/apusimd
"$tmp_apusimd" -listen 127.0.0.1:0 2>"$tmp_apusimd_log" &
apusimd_pid=$!
apusimd_addr=""
for _ in $(seq 1 100); do
    apusimd_addr=$(sed -n 's/^apusimd: listening on //p' "$tmp_apusimd_log")
    [ -n "$apusimd_addr" ] && break
    sleep 0.1
done
if [ -z "$apusimd_addr" ]; then
    echo "ci.sh: apusimd never reported its listen address" >&2
    cat "$tmp_apusimd_log" >&2
    exit 1
fi
python3 - "$apusimd_addr" <<'EOF'
import json, sys, time, urllib.request

base = "http://" + sys.argv[1] + "/v1"
spec = json.dumps({"experiment": "table1"}).encode()

def call(method, path, body=None):
    req = urllib.request.Request(base + path, data=body, method=method)
    with urllib.request.urlopen(req) as resp:
        return resp.status, resp.read()

def await_terminal(job_id):
    for _ in range(200):
        _, body = call("GET", "/jobs/" + job_id)
        st = json.loads(body)
        if st["state"] not in ("queued", "running"):
            return st
        time.sleep(0.05)
    raise SystemExit("job %s never finished" % job_id)

code, body = call("POST", "/jobs", spec)
first = json.loads(body)
assert code == 202, (code, first)
fin = await_terminal(first["id"])
assert fin["state"] == "ok", fin

code, body = call("POST", "/jobs", spec)
second = json.loads(body)
assert code == 200 and second["cache_hit"], (code, second)
assert second["state"] == "ok", second

_, m1 = call("GET", "/jobs/%s/manifest" % first["id"])
_, m2 = call("GET", "/jobs/%s/manifest" % second["id"])
assert m1 == m2, "cached manifest differs from fresh run"
assert json.loads(m1)["schema"] == "apusim-run-manifest/v1"

_, metrics = call("GET", "/metrics")
samples = {}
for line in metrics.decode().splitlines():
    if line and not line.startswith("#"):
        name, _, value = line.rpartition(" ")
        samples[name] = float(value)
assert samples["apusimd_cache_hits_total"] == 1, samples
assert samples["apusimd_cache_misses_total"] == 1, samples
assert samples['apusimd_jobs_completed_total{state="ok"}'] == 2, samples
EOF
kill -TERM "$apusimd_pid"
if ! wait "$apusimd_pid"; then
    echo "ci.sh: apusimd exited nonzero on SIGTERM" >&2
    cat "$tmp_apusimd_log" >&2
    exit 1
fi
grep -q "drained cleanly" "$tmp_apusimd_log"

echo "== apusimd crash-recovery smoke =="
# SIGKILL the daemon mid-simulation and restart it on the same -data-dir:
# the completed job's manifest must come back byte-identical from the
# durable store, every acknowledged job must survive the crash, and the
# recovery counters must say exactly what happened.
tmp_apusimd_data=$(mktemp -d)
tmp_apusimd_log2=$(mktemp)
tmp_apusimd_m1=$(mktemp)
trap 'rm -f "$tmp_telemetry" "$tmp_audit_manifest" "$tmp_chaos1" "$tmp_chaos8" "$tmp_apusimd" "$tmp_apusimd_log" "$tmp_apusimd_log2" "$tmp_apusimd_m1"; rm -rf "$tmp_apusimd_data"' EXIT

start_apusimd() {
    "$tmp_apusimd" -listen 127.0.0.1:0 -workers 1 -data-dir "$tmp_apusimd_data" 2>"$1" &
    apusimd_pid=$!
    apusimd_addr=""
    for _ in $(seq 1 100); do
        apusimd_addr=$(sed -n 's/^apusimd: listening on //p' "$1" | tail -n 1)
        [ -n "$apusimd_addr" ] && break
        sleep 0.1
    done
    if [ -z "$apusimd_addr" ]; then
        echo "ci.sh: apusimd (crash-recovery) never reported its listen address" >&2
        cat "$1" >&2
        exit 1
    fi
}

start_apusimd "$tmp_apusimd_log2"
python3 - "$apusimd_addr" "$tmp_apusimd_m1" <<'EOF'
import json, sys, time, urllib.request

base = "http://" + sys.argv[1] + "/v1"

def call(method, path, body=None):
    req = urllib.request.Request(base + path, data=body, method=method)
    with urllib.request.urlopen(req) as resp:
        return resp.status, resp.read()

def await_terminal(job_id):
    for _ in range(200):
        _, body = call("GET", "/jobs/" + job_id)
        st = json.loads(body)
        if st["state"] not in ("queued", "running", "interrupted"):
            return st
        time.sleep(0.05)
    raise SystemExit("job %s never finished" % job_id)

# One fast job completes and lands in the durable store.
code, body = call("POST", "/jobs", json.dumps({"experiment": "fig7"}).encode())
assert code == 202, (code, body)
fin = await_terminal(json.loads(body)["id"])
assert fin["state"] == "ok", fin
_, m1 = call("GET", "/jobs/%s/manifest" % fin["id"])
open(sys.argv[2], "wb").write(m1)

# A long job (~1.5s simulated wall) occupies the single worker and two
# fast jobs queue behind it; the harness SIGKILLs the daemon mid-run.
for exp in ("managed", "scale", "fig20"):
    code, body = call("POST", "/jobs", json.dumps({"experiment": exp}).encode())
    assert code == 202, (exp, code, body)
time.sleep(0.4)
EOF
kill -KILL "$apusimd_pid"
wait "$apusimd_pid" 2>/dev/null || true

start_apusimd "$tmp_apusimd_log2"
python3 - "$apusimd_addr" "$tmp_apusimd_m1" <<'EOF'
import json, sys, time, urllib.request

base = "http://" + sys.argv[1] + "/v1"

def call(method, path, body=None):
    req = urllib.request.Request(base + path, data=body, method=method)
    with urllib.request.urlopen(req) as resp:
        return resp.status, resp.read()

def await_terminal(job_id):
    for _ in range(400):
        _, body = call("GET", "/jobs/" + job_id)
        st = json.loads(body)
        if st["state"] not in ("queued", "running", "interrupted"):
            return st
        time.sleep(0.05)
    raise SystemExit("job %s never finished" % job_id)

_, metrics = call("GET", "/metrics")
samples = {}
for line in metrics.decode().splitlines():
    if line and not line.startswith("#"):
        name, _, value = line.rpartition(" ")
        samples[name] = float(value)
assert samples['apusimd_recovered_jobs_total{outcome="completed"}'] == 1, samples
assert samples['apusimd_recovered_jobs_total{outcome="interrupted"}'] == 1, samples
assert samples['apusimd_recovered_jobs_total{outcome="requeued"}'] == 2, samples

# Resubmitting the completed spec is a cache hit served from the store,
# byte-identical to the pre-crash manifest.
code, body = call("POST", "/jobs", json.dumps({"experiment": "fig7"}).encode())
st = json.loads(body)
assert code == 200 and st["cache_hit"], (code, st)
_, m2 = call("GET", "/jobs/%s/manifest" % st["id"])
assert m2 == open(sys.argv[2], "rb").read(), "manifest differs across crash"

# No acknowledged job was lost: all four recovered jobs reach ok (the
# interrupted one is transparently re-queued by the status fetch).
_, body = call("GET", "/jobs")
recovered = [j for j in json.loads(body)["jobs"] if j.get("recovered")]
assert len(recovered) == 4, recovered
for j in recovered:
    fin = await_terminal(j["id"])
    assert fin["state"] == "ok", fin

# The ?status= filter answers with exactly the finished set.
code, body = call("GET", "/jobs?status=ok")
assert code == 200 and len(json.loads(body)["jobs"]) >= 5, body
EOF
kill -TERM "$apusimd_pid"
if ! wait "$apusimd_pid"; then
    echo "ci.sh: apusimd (crash-recovery) exited nonzero on SIGTERM" >&2
    cat "$tmp_apusimd_log2" >&2
    exit 1
fi
grep -q "apusimd: recovery: requeued=2 interrupted=1 from_cache=0 completed=1 failed=0" "$tmp_apusimd_log2"

echo "== apusimd disk-fault smoke =="
# The storage circuit breaker end to end. First in-process under the race
# detector: the seeded fault storm and the never-202-on-failed-fsync
# invariant. Then the real binary on a chaos filesystem whose byte budget
# runs out mid-run (CI runs as root, so chmod-based read-only dirs don't
# fail writes; ENOSPC injection does, deterministically): the daemon must
# trip into degraded memory-only mode, keep serving, log the episode, and
# re-arm durability once the disk heals on schedule.
go test -race ./internal/service/ -run 'TestDiskFaultStorm|TestFailedJournalFsync' -count=1

tmp_fault_data=$(mktemp -d)
tmp_fault_log=$(mktemp)
trap 'rm -f "$tmp_telemetry" "$tmp_audit_manifest" "$tmp_chaos1" "$tmp_chaos8" "$tmp_apusimd" "$tmp_apusimd_log" "$tmp_apusimd_log2" "$tmp_apusimd_m1" "$tmp_fault_log"; rm -rf "$tmp_apusimd_data" "$tmp_fault_data"' EXIT
"$tmp_apusimd" -listen 127.0.0.1:0 -workers 1 -data-dir "$tmp_fault_data" \
    -chaos-seed 20260808 -chaos-enospc-bytes 4096 -chaos-heal-after 6s \
    -durability-probe 100ms 2>"$tmp_fault_log" &
apusimd_pid=$!
apusimd_addr=""
for _ in $(seq 1 100); do
    apusimd_addr=$(sed -n 's/^apusimd: listening on //p' "$tmp_fault_log")
    [ -n "$apusimd_addr" ] && break
    sleep 0.1
done
if [ -z "$apusimd_addr" ]; then
    echo "ci.sh: apusimd (disk-fault) never reported its listen address" >&2
    cat "$tmp_fault_log" >&2
    exit 1
fi
python3 - "$apusimd_addr" <<'EOF'
import json, sys, time, urllib.error, urllib.request

base = "http://" + sys.argv[1] + "/v1"

def call(method, path, body=None):
    req = urllib.request.Request(base + path, data=body, method=method)
    try:
        with urllib.request.urlopen(req) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as e:
        return e.code, e.read()

def durability():
    _, body = call("GET", "/healthz")
    return json.loads(body)["durability"]

assert durability() == "ok", durability()

# Burn the 4 KiB chaos byte budget: journal records and store entries
# overflow it within a few jobs. A submission may be refused with 503
# (its WAL record could not be fsynced — never a 202) but must never
# error any other way.
tripped = False
for i in range(60):
    code, body = call("POST", "/jobs",
                      json.dumps({"experiment": "table1", "seed": i}).encode())
    assert code in (200, 202, 503), (code, body)
    if durability() == "degraded":
        tripped = True
        break
    time.sleep(0.05)
assert tripped, "breaker never tripped on the chaos disk"

# Degraded is an operating mode, not an outage: the daemon still accepts
# work, honestly marked non-durable.
code, body = call("POST", "/jobs", json.dumps({"experiment": "fig7"}).encode())
assert code == 202 and json.loads(body).get("non_durable"), (code, body)

# The scheduled heal lands and the background probe re-arms durability.
deadline = time.time() + 30
while durability() != "ok":
    assert time.time() < deadline, "durability never recovered after heal"
    time.sleep(0.1)

_, metrics = call("GET", "/metrics")
samples = {}
for line in metrics.decode().splitlines():
    if line and not line.startswith("#"):
        name, _, value = line.rpartition(" ")
        samples[name] = float(value)
assert samples["apusimd_durability_degraded_total"] >= 1, samples
assert samples["apusimd_durability_recovered_total"] >= 1, samples
assert samples["apusimd_durability_armed"] == 1, samples
EOF
kill -TERM "$apusimd_pid"
if ! wait "$apusimd_pid"; then
    echo "ci.sh: apusimd (disk-fault) exited nonzero on SIGTERM" >&2
    cat "$tmp_fault_log" >&2
    exit 1
fi
# The degraded episode and the recovery both reached the structured log.
grep -q "durability degraded: entering memory-only mode" "$tmp_fault_log"
grep -q "durability recovered: admissions journaled again" "$tmp_fault_log"
grep -q "CHAOS: fault injection healed" "$tmp_fault_log"

echo "== apusimd observability smoke =="
# The observability plane end to end: the job's trace ID must link its
# JSON, its /trace span dump, and the flight recorder; /v1/debug must
# expose workers and the flight recorder; the latency histograms must
# record the run; structured JSON logs must carry the trace ID; and
# pprof must be unreachable unless -debug-addr names a listener.
tmp_obs_log=$(mktemp)
trap 'rm -f "$tmp_telemetry" "$tmp_audit_manifest" "$tmp_chaos1" "$tmp_chaos8" "$tmp_apusimd" "$tmp_apusimd_log" "$tmp_apusimd_log2" "$tmp_apusimd_m1" "$tmp_obs_log"; rm -rf "$tmp_apusimd_data"' EXIT

# Pass 1: no -debug-addr — the API port must not serve pprof.
"$tmp_apusimd" -listen 127.0.0.1:0 -log-format json 2>"$tmp_obs_log" &
apusimd_pid=$!
apusimd_addr=""
for _ in $(seq 1 100); do
    apusimd_addr=$(sed -n 's/^apusimd: listening on //p' "$tmp_obs_log")
    [ -n "$apusimd_addr" ] && break
    sleep 0.1
done
if [ -z "$apusimd_addr" ]; then
    echo "ci.sh: apusimd (observability) never reported its listen address" >&2
    cat "$tmp_obs_log" >&2
    exit 1
fi
python3 - "$apusimd_addr" <<'EOF'
import json, re, sys, time, urllib.error, urllib.request

base = "http://" + sys.argv[1]

def call(method, path, body=None):
    req = urllib.request.Request(base + path, data=body, method=method)
    with urllib.request.urlopen(req) as resp:
        return resp.status, resp.read()

def await_terminal(job_id):
    for _ in range(200):
        _, body = call("GET", "/v1/jobs/" + job_id)
        st = json.loads(body)
        if st["state"] not in ("queued", "running"):
            return st
        time.sleep(0.05)
    raise SystemExit("job %s never finished" % job_id)

# A spans-recording experiment, so the trace view joins both halves.
code, body = call("POST", "/v1/jobs", json.dumps({"experiment": "spanras", "spans": True}).encode())
assert code == 202, (code, body)
st = await_terminal(json.loads(body)["id"])
assert st["state"] in ("ok", "degraded"), st  # the RAS storm degrades, deterministically
trace_id = st["trace_id"]
assert re.fullmatch(r"[0-9a-f]{16}", trace_id), st
assert st["e2e_ns"] > 0 and st["run_ns"] > 0, st

# The trace view carries the same ID on every lifecycle span and lifts
# the simulation attribution out of the manifest.
_, body = call("GET", "/v1/jobs/%s/trace" % st["id"])
tr = json.loads(body)
assert tr["schema"] == "apusimd-job-trace/v1", tr["schema"]
assert tr["trace_id"] == trace_id, tr
assert tr["lifecycle"]["schema"] == "apusim-spans/v1"
spans = tr["lifecycle"]["spans"]
assert spans and all(s["trace"] == trace_id for s in spans), spans
assert any(s["kind"] == "job" for s in spans), spans
sim = tr.get("simulation") or []
assert any(e["experiment"] == "spanras" and e["attribution"] for e in sim), sim

# /v1/debug: workers, queue bounds, and the flight recorder, with the
# job's lifecycle events carrying its trace ID.
_, body = call("GET", "/v1/debug")
dbg = json.loads(body)
assert dbg["schema"] == "apusimd-debug/v1", dbg["schema"]
assert len(dbg["workers"]) >= 1 and dbg["queue_capacity"] >= 1, dbg
events = {e["event"] for e in dbg["flight_recorder"] if e.get("job") == st["id"]}
assert {"submit", "start", "finish"} <= events, events
assert all(e["trace_id"] == trace_id
           for e in dbg["flight_recorder"] if e.get("job") == st["id"])

# The latency histograms recorded the run.
_, metrics = call("GET", "/v1/metrics")
samples = {}
for line in metrics.decode().splitlines():
    if line and not line.startswith("#"):
        name, _, value = line.rpartition(" ")
        samples[name] = float(value)
assert samples['apusimd_job_e2e_seconds_count{experiment="spanras"}'] == 1, samples
assert samples['apusimd_job_run_seconds_count{experiment="spanras"}'] == 1, samples
assert samples['apusimd_job_e2e_seconds_bucket{experiment="spanras",le="+Inf"}'] == 1, samples

# Without -debug-addr, pprof is nowhere: the API mux must 404 it.
try:
    call("GET", "/debug/pprof/")
    raise SystemExit("pprof served on the API port without -debug-addr")
except urllib.error.HTTPError as e:
    assert e.code == 404, e.code
EOF
kill -TERM "$apusimd_pid"
if ! wait "$apusimd_pid"; then
    echo "ci.sh: apusimd (observability) exited nonzero on SIGTERM" >&2
    cat "$tmp_obs_log" >&2
    exit 1
fi
grep -q "drained cleanly" "$tmp_obs_log"
# The structured JSON log carries the trace-correlated lifecycle lines.
grep -q '"msg":"job started"' "$tmp_obs_log"
grep -q '"msg":"job finished"' "$tmp_obs_log"
grep -q '"trace_id"' "$tmp_obs_log"

# Pass 2: with -debug-addr, pprof serves on its own listener only.
: >"$tmp_obs_log"
"$tmp_apusimd" -listen 127.0.0.1:0 -debug-addr 127.0.0.1:0 2>"$tmp_obs_log" &
apusimd_pid=$!
apusimd_addr=""
pprof_addr=""
for _ in $(seq 1 100); do
    apusimd_addr=$(sed -n 's/^apusimd: listening on //p' "$tmp_obs_log")
    pprof_addr=$(sed -n 's/^apusimd: pprof on //p' "$tmp_obs_log")
    [ -n "$apusimd_addr" ] && [ -n "$pprof_addr" ] && break
    sleep 0.1
done
if [ -z "$apusimd_addr" ] || [ -z "$pprof_addr" ]; then
    echo "ci.sh: apusimd (pprof) never reported both addresses" >&2
    cat "$tmp_obs_log" >&2
    exit 1
fi
python3 - "$apusimd_addr" "$pprof_addr" <<'EOF'
import sys, urllib.error, urllib.request

with urllib.request.urlopen("http://" + sys.argv[2] + "/debug/pprof/") as resp:
    assert resp.status == 200, resp.status
try:
    urllib.request.urlopen("http://" + sys.argv[1] + "/debug/pprof/")
    raise SystemExit("pprof leaked onto the API port")
except urllib.error.HTTPError as e:
    assert e.code == 404, e.code
EOF
kill -TERM "$apusimd_pid"
if ! wait "$apusimd_pid"; then
    echo "ci.sh: apusimd (pprof) exited nonzero on SIGTERM" >&2
    cat "$tmp_obs_log" >&2
    exit 1
fi
grep -q "drained cleanly" "$tmp_obs_log"

echo "ci.sh: all checks passed"
