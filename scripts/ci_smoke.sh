#!/usr/bin/env bash
# End-to-end smoke checks: the reproduced results (payload manifest),
# their invariants (runstate conservation, the fault gate), and every
# front end (run, analyze, telemetry, fleet, serve, benchmarks).
#
# Run from a checkout with no arguments: `bash scripts/ci_smoke.sh`.
# Needs no install and no network; the CI `smoke` job runs exactly this.
# Every output lands in .ci-smoke/, which is wiped first. The benchmark
# step rewrites the tracked BENCH_engine.json and bench_report.txt; both
# are restored on exit, so the working tree is left as it was found.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
OUT="$ROOT/.ci-smoke"

# Hermetic: ignore the caller's REPRO_* knobs; each step sets its own.
for var in $(compgen -e); do
  if [[ $var == REPRO_* ]]; then unset "$var"; fi
done
export PYTHONPATH="$ROOT/src"

rm -rf "$OUT"
mkdir -p "$OUT/saved"
cd "$OUT"

SERVE_PID=""
cleanup() {
  local status=$?
  if [[ -n $SERVE_PID ]] && kill -0 "$SERVE_PID" 2>/dev/null; then
    kill -TERM "$SERVE_PID" 2>/dev/null || true
    wait "$SERVE_PID" 2>/dev/null || true
  fi
  for file in BENCH_engine.json bench_report.txt; do
    if [[ -f $OUT/saved/$file ]]; then cp "$OUT/saved/$file" "$ROOT/$file"; fi
  done
  if [[ $status -eq 0 ]]; then echo; echo "ci_smoke: all checks passed in ${SECONDS}s"; fi
  exit "$status"
}
trap cleanup EXIT

step() { printf '\n== %s\n' "$*"; }
repro() { python -m repro.cli "$@"; }
SECONDS=0

# -- payload manifest ---------------------------------------------------
step "manifest: 139 payloads byte-identical, serial"
python -m repro.tools.payload_manifest --verify

step "manifest: byte-identical through the worker pool"
REPRO_RUNNER_WORKERS=2 python -m repro.tools.payload_manifest --verify --quiet

# -- README examples on the public Scenario API --------------------------
step "examples: quickstart and mixed I/O latency run"
python "$ROOT/examples/quickstart.py" > quickstart.txt
grep -q "static (1 core)" quickstart.txt
python "$ROOT/examples/mixed_io_latency.py" > mixed_io_latency.txt
grep -q "mixed + micro-sliced" mixed_io_latency.txt

# -- traced fig7: trace, progress and telemetry from one run ------------
step "traced fig7 with live progress"
# REPRO_TRACE_DEBUG=1 keeps trace-record schema validation exercised.
REPRO_TRACE_DEBUG=1 REPRO_BENCH_SCALE=0.05 repro run fig7 --progress --workers 2 \
  --trace --trace-out trace.jsonl --no-cache > fig7_traced.txt 2> progress.txt
grep -q "done" progress.txt

step "telemetry snapshot has the run's counters"
repro telemetry > telemetry.json
python - <<'EOF'
import json
counters = json.load(open("telemetry.json"))["counters"]
for name in ("engine.jobs_simulated", "pool.jobs_completed", "pool.workers_spawned"):
    assert counters[name] > 0, (name, counters)
EOF

step "Prometheus exposition validates"
repro telemetry --format prom > telemetry.prom
python - <<'EOF'
from repro.obs import telemetry
problems = telemetry.validate_prom(open("telemetry.prom").read())
assert not problems, problems
EOF

step "analyze: runstate conservation and self-diff"
repro analyze trace.jsonl > analyze.txt
grep -q "runstate conservation: OK" analyze.txt
repro analyze trace.jsonl --diff trace.jsonl > diff.txt
grep -q "identical event counts" diff.txt
repro analyze trace.jsonl --json > analyze.json
python - <<'EOF'
import json
report = json.load(open("analyze.json"))
assert report, "empty analyze --json report"
for job, data in report.items():
    assert data["event_counts"], job
    assert data["conservation_violations"] == [], job
EOF

# -- schedulers and baselines -------------------------------------------
step "scheduler registry lists all five backends"
repro schedulers > schedulers.txt
for name in balance cosched credit credit2 shortslice; do
  grep -q "$name" schedulers.txt
done

step "unknown scheduler exits 2 before simulating"
status=0
repro corun dedup --scheduler warp9 --duration-ms 20 > warp9.txt 2>&1 || status=$?
test "$status" -eq 2

step "baseline shootout renders every scheme"
REPRO_BENCH_SCALE=0.05 repro run baselines --no-cache > baselines.txt
grep -q "paper-shaped ordering" baselines.txt
for scheme in credit credit2 balance cosched shortslice micro_pool; do
  grep -q "$scheme" baselines.txt
done

# -- fault injection ----------------------------------------------------
step "fig7 under lossy-ipi"
REPRO_BENCH_SCALE=0.05 repro run fig7 --faults lossy-ipi --no-cache > fig7_faulted.txt

step "faulted scenario passes the invariant gate"
repro corun dedup --policy dynamic --duration-ms 120 --faults lossy-ipi > faulted.txt
grep -q "fault injection: lossy-ipi" faulted.txt
grep -q "invariants: OK" faulted.txt

# -- runner batch -------------------------------------------------------
step "batch run shares one pool across experiments"
REPRO_BENCH_SCALE=0.05 repro run fig7 table1 --workers 2 --no-cache > batch.txt
grep -q "=== fig7 ===" batch.txt
grep -q "=== table1 ===" batch.txt

step "every dispatched job lands exactly once"
repro telemetry > batch_telemetry.json
python - <<'EOF'
import json
counters = json.load(open("batch_telemetry.json"))["counters"]
landed = [counters.get(name, 0) for name in
          ("pool.jobs_dispatched", "pool.jobs_completed", "engine.jobs_simulated")]
assert landed[0] > 0 and len(set(landed)) == 1, (landed, counters)
for name in ("pool.jobs_failed", "pool.epoch_discards", "runner.jobs_inline"):
    assert counters.get(name, 0) == 0, (name, counters)
EOF

step "ad-hoc sweep: byte-identical serially and through the pool"
REPRO_CACHE=off repro sweep gmake --max-cores 1 --duration-ms 40 > sweep_serial.txt
REPRO_CACHE=off REPRO_RUNNER_WORKERS=2 repro sweep gmake --max-cores 1 --duration-ms 40 \
  > sweep_pool.txt
cmp sweep_serial.txt sweep_pool.txt

step "warm replay: every planned experiment renders cold, then twice warm, byte-equal"
# One process, so the second and third passes replay through the decode
# memo and every result decodes its fields on first read.
REPRO_CACHE_DIR="$OUT/warm-cache" python - <<'EOF'
from repro.experiments import registry
from repro.obs import telemetry

names = [name for name in registry.available() if not registry.is_driver(registry.get(name))]


def counter(name):
    return telemetry.snapshot()["counters"].get(name, 0)


def render():
    return {name: registry.run_many([name], workers=1, scale_override=0.02)[name][1]
            for name in names}


cold = render()
for label in ("warm", "warm again"):
    misses = counter("cache.misses")
    texts = render()
    differ = sorted(name for name in names if texts[name] != cold[name])
    assert not differ, "%s text differs from cold for %s" % (label, differ)
    assert counter("cache.misses") == misses, "%s pass missed the cache" % label
assert counter("cache.decode_reuses") > 0, "no load reused the decode memo"
print("%d experiments byte-equal cold and twice warm; %d decode reuses"
      % (len(names), counter("cache.decode_reuses")))
EOF

# -- fleet --------------------------------------------------------------
step "registry lists the placement policies"
repro list > list.txt
grep -q "placements:" list.txt
for name in random first_fit steal_aware; do
  grep -q "$name" list.txt
done

step "tiny fleet: byte-identical replay, policy-ordering checks hold"
# 4 hosts x 4 epochs: enough offered load that the policies separate.
fleet_args=(--hosts 4 --epochs 4 --rate 16 --scale 0.02 --workers 2 --json)
repro fleet "${fleet_args[@]}" > fleet1.json
repro fleet "${fleet_args[@]}" > fleet2.json
cmp fleet1.json fleet2.json
# credit is the default backend: the same host jobs, all replayed.
repro fleet "${fleet_args[@]}" --scheduler credit > fleet3.json
cmp fleet1.json fleet3.json
repro telemetry > fleet3_telemetry.json
python - <<'EOF'
import json
counters = json.load(open("fleet3_telemetry.json"))["counters"]
assert counters.get("cache.misses", 0) == 0, counters
assert counters["cache.hits"] > 0, counters
EOF
python - <<'EOF'
import json
payload = json.load(open("fleet1.json"))
checks = payload["checks"]
assert checks, "no ordering checks emitted"
assert all(checks.values()), checks
for name, summary in payload["policies"].items():
    assert summary["virq"]["count"] > 0, name
EOF

step "a worker killed mid-fleet costs one retry and no bytes"
# The hook splits its value at the first colon: the tag must have none.
REPRO_RUNNER_TEST_CRASH="e01.h00:$OUT/crash.marker" repro fleet "${fleet_args[@]}" --no-cache \
  > fleet_crash.json
cmp fleet1.json fleet_crash.json
repro telemetry > fleet_crash_telemetry.json
python - <<'EOF'
import json
counters = json.load(open("fleet_crash_telemetry.json"))["counters"]
expected = {"pool.worker_crashes": 1, "pool.jobs_retried": 1, "pool.jobs_failed": 0}
assert {name: counters.get(name, 0) for name in expected} == expected, counters
EOF

step "an infinite arrival rate exits 2 before simulating"
# Not via repro(): timeout runs a program, not a shell function.
status=0
timeout 30 python -m repro.cli fleet --rate inf --scale 0.02 > fleet_inf.txt 2>&1 || status=$?
test "$status" -eq 2

# -- benchmark bodies, one round each -----------------------------------
step "benchmark bodies (1 round)"
cp "$ROOT/BENCH_engine.json" "$ROOT/bench_report.txt" saved/
(cd "$ROOT" && python -m pytest -q -p no:cacheprovider \
  benchmarks/test_simulator_perf.py benchmarks/test_tracer_overhead.py \
  benchmarks/test_fault_overhead.py benchmarks/test_runner_perf.py \
  benchmarks/test_fleet_perf.py benchmarks/test_serve_perf.py \
  --benchmark-min-rounds=1 --benchmark-max-time=0.1 --benchmark-warmup=off)
cp "$ROOT/BENCH_engine.json" "$ROOT/bench_report.txt" .
python - <<'EOF'
import json
# Trajectory, latest first: every _record call of the run above
# folded into the one snapshot at its head.
snapshot = json.load(open("BENCH_engine.json"))[0]
assert snapshot["host_probe_us"] > 0, snapshot
metrics = snapshot["metrics"]
for key in ("corun_faults_off_events_per_sec",
            "corun_faults_enabled_empty_events_per_sec",
            "cold_heavy_job_ms",
            "cold_io_job_ms",
            "fleet_host_jobs_per_sec",
            "runner_warm_hydrate_us",
            "runner_warm_rehydrate_us",
            "serve_mixed_hit_p90_ms"):
    assert key in metrics, (key, sorted(metrics))
EOF

# -- serve --------------------------------------------------------------
step "serve: start on an ephemeral port"
# Not via repro(): $! must be the server itself, not a subshell.
python -m repro.cli serve --port 0 --workers 2 > serve.log 2>&1 &
SERVE_PID=$!
BASE=$(python - "$SERVE_PID" <<'EOF'
import os, re, sys, time, urllib.request
pid = int(sys.argv[1])
for _ in range(150):
    match = re.search(r"listening on (http://\S+:\d+)", open("serve.log").read())
    if match:
        base = match.group(1)
        try:
            with urllib.request.urlopen(base + "/healthz", timeout=5) as resp:
                assert resp.status == 200, resp.status
            print(base)
            break
        except OSError:
            pass
    os.kill(pid, 0)  # raises once the server has died
    time.sleep(0.2)
else:
    sys.exit("server did not become healthy")
EOF
)
echo "serving at $BASE"

step "serve: once the pool is ready, a cold job simulates in the worker process"
python - "$BASE" <<'EOF'
import json, sys, time, urllib.request
base = sys.argv[1]
deadline = time.time() + 60
while True:
    with urllib.request.urlopen(base + "/healthz", timeout=5) as resp:
        pool = json.load(resp)["pool"]
    if pool == "ready":
        break
    assert pool == "warming" and time.time() < deadline, pool
    time.sleep(0.05)
job = {"tag": "ci-cold", "scenario": "solo",
       "scenario_kwargs": {"workload_kind": "gmake"}, "seed": 97,
       "duration_ns": 4000000}
req = urllib.request.Request(base + "/jobs", data=json.dumps(job).encode(),
                             method="POST")
with urllib.request.urlopen(req, timeout=60) as resp:
    assert resp.status == 202, resp.status
    sub = json.load(resp)
with urllib.request.urlopen(base + "/jobs/%s/events" % sub["id"], timeout=300) as stream:
    events = [json.loads(line) for line in stream]
final = [event for event in events if event["event"] != "heartbeat"][-1]
assert final["event"] == "done", final
assert final["telemetry"]["pool.jobs_completed"] >= 1, final["telemetry"]
assert final["telemetry"]["runner.jobs_inline"] == 0, final["telemetry"]
EOF

step "serve: one spec, one key: ci-cold naming the default backend hits; a bad fault dict is a 400"
python - "$BASE" <<'EOF'
import json, sys, urllib.error, urllib.request
base = sys.argv[1]
job = {"tag": "ci-cold", "scenario": "solo",
       "scenario_kwargs": {"workload_kind": "gmake"}, "seed": 97,
       "duration_ns": 4000000, "overrides": {"scheduler": "credit"}}
req = urllib.request.Request(base + "/jobs", data=json.dumps(job).encode(),
                             method="POST")
with urllib.request.urlopen(req, timeout=60) as resp:
    assert resp.status == 200, resp.status
    assert resp.headers["X-Repro-Cache"] == "hit", resp.headers["X-Repro-Cache"]
bad = dict(job, faults={"garbage": 1})
req = urllib.request.Request(base + "/jobs", data=json.dumps(bad).encode(),
                             method="POST")
try:
    urllib.request.urlopen(req, timeout=60)
except urllib.error.HTTPError as err:
    assert err.code == 400, err.code
    assert "unknown fault plan keys" in err.read().decode()
else:
    raise AssertionError("a malformed fault dict was accepted")
EOF

step "serve: submit a scaled fig7, stream events to done"
python - "$BASE" <<'EOF'
import json, sys, urllib.request
base = sys.argv[1]
body = json.dumps({"experiment": "fig7", "scale": 0.02}).encode()
req = urllib.request.Request(base + "/experiments", data=body, method="POST")
with urllib.request.urlopen(req, timeout=60) as resp:
    assert resp.status == 202, resp.status
    assert resp.headers["X-Repro-Cache"] == "miss"
    job = json.load(resp)
with urllib.request.urlopen(base + "/jobs/%s/events" % job["id"], timeout=300) as stream:
    kinds = [json.loads(line)["event"] for line in stream]
kinds = [kind for kind in kinds if kind != "heartbeat"]
assert kinds[0] == "queued" and kinds[-1] == "done", kinds
assert "progress" in kinds, kinds
with urllib.request.urlopen(base + "/jobs/%s/result" % job["id"], timeout=60) as resp:
    json.dump(json.load(resp)["result"]["claims"], open("fig7_claims.json", "w"))
EOF

step "serve: repeat submission is a cache hit, same text as repro run, same claims"
# One pipeline: the CLI replays the served run's cache entries and must
# render the very same table.
repro run fig7 --scale 0.02 > fig7_cli.txt
python - "$BASE" <<'EOF'
import json, sys, urllib.request
body = json.dumps({"experiment": "fig7", "scale": 0.02}).encode()
req = urllib.request.Request(sys.argv[1] + "/experiments", data=body, method="POST")
with urllib.request.urlopen(req, timeout=60) as resp:
    assert resp.status == 200, resp.status
    assert resp.headers["X-Repro-Cache"] == "hit"
    job = json.load(resp)
assert job["state"] == "done" and job["result"], job["state"]
assert job["result"]["formatted"] + "\n" == open("fig7_cli.txt").read()
claims = job["result"]["claims"]
assert claims == json.load(open("fig7_claims.json")), claims
assert claims and all(type(ok) is bool for ok in claims.values()), claims
EOF

step "serve: /metrics validates"
python - "$BASE" <<'EOF'
import sys, urllib.request
from repro.obs.telemetry import validate_prom
with urllib.request.urlopen(sys.argv[1] + "/metrics", timeout=30) as resp:
    text = resp.read().decode()
open("metrics.prom", "w").write(text)
problems = validate_prom(text)
assert not problems, problems
for needle in ("serve_admission_admitted", "serve_submissions_accepted",
               "engine_jobs_simulated"):
    assert needle in text, needle
EOF

step "serve: SIGTERM drains cleanly"
kill -TERM "$SERVE_PID"
status=0
wait "$SERVE_PID" || status=$?
SERVE_PID=""
cat serve.log
test "$status" -eq 0
grep -q "drained cleanly" serve.log
