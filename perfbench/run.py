"""The repository's benchmark: one workload, one run, one result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload cold_suite --seed 1 --seconds 10 --trace 0

Workloads (see perfbench/README.md for why each exists):

* ``cold_suite``: every unique payload-manifest job, simulated with the
  cache off, one at a time.
* ``warm_suite``: every planned experiment replayed from a warm result
  cache, one at a time.
* ``serve_mixed``: ``repro serve`` under two closed-loop clients; about
  four in five requests are cache hits, the rest new simulations.

The program always runs in a process of its own with one worker.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics of a traced run (plus the tracing overhead). Lines
starting with ``#`` are information; the last line is the result
object. The exit status is non-zero, with no result line, when the
checkout lacks the program.
"""

import argparse
import os
import shutil
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402

WORKLOADS = ("cold_suite", "warm_suite", "serve_mixed")

#: Fresh-interpreter set-ups per cold_suite run; setup_s is their median.
COLD_SETUPS = 5


def _spawn_suite(args, state, setup_only=False):
    """Run suite.py in a fresh interpreter and return its result."""
    clock = common.HostClock()
    clock.mark()
    cmd = [sys.executable, str(common.BENCH_DIR / "suite.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--state", str(state), "--clock"] + ["%r" % v for v in clock.state()]
    if setup_only:
        cmd.append("--setup-only")
    if args.trace:
        cmd += ["--spans-out", str(common.spans_path(args.workload, args.seed, "suite"))]
    proc = subprocess.run(cmd, cwd=str(common.ROOT), env=common.child_env(state),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=common.CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        common.fail("%s child exited with status %d" % (args.workload, proc.returncode), 1)
    return common.last_json_line(proc.stdout)


def run_suite(args, state):
    runs = []
    if args.workload == "cold_suite":
        runs = [_spawn_suite(args, state, setup_only=True) for _ in range(COLD_SETUPS - 1)]
    out = _spawn_suite(args, state)
    runs.append(out)
    setups = [run["setup_s"] for run in runs]
    common.info("setup_s samples (scaled/measured): %s" % ", ".join(
        "%.3f/%.3f" % (run["setup_s"], run["setup_raw_s"]) for run in runs))
    failures = out["failures"]
    for problem in failures[:20]:
        common.info("FAILED: %s" % problem)
    common.info(common.latency_summary("op scaled", out["scaled"]))
    common.info(common.latency_summary("op measured", out["raw"]))
    common.info("timed phase: %d ops in %.2f s of op time (%.2f s scaled), %d failed"
                % (len(out["raw"]), sum(out["raw"]), sum(out["scaled"]), len(failures)))
    if args.trace:
        layers = {name: tuple(value) for name, value in out["layers"].items()}
        spans_file = common.spans_path(args.workload, args.seed, "suite")
        common.info("spans written to %s" % spans_file.relative_to(common.ROOT))
        return out["attempted"], len(failures), layers
    ms = [d * 1e3 for d in out["scaled"]]
    metrics = {
        "setup_s": common.metric(common.median(setups), "s"),
        "peak_rss_mb": common.metric(out["peak_rss_mb"], "MB"),
        "ops_per_s": common.metric(len(ms) / sum(out["scaled"]), "1/s"),
        "op_p50_ms": common.metric(common.percentile(ms, 50), "ms"),
        "op_p90_ms": common.metric(common.percentile(ms, 90), "ms"),
    }
    return out["attempted"], len(failures), metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        common.fail("--seconds must be positive")
    problem = common.check_checkout()
    if problem:
        common.fail(problem)

    state = common.state_dir(args.workload, args.seed)
    try:
        if args.workload == "serve_mixed":
            import serve_load

            attempted, failed, metrics = serve_load.run(args, state)
        else:
            attempted, failed, metrics = run_suite(args, state)
    finally:
        shutil.rmtree(state, ignore_errors=True)
    if args.trace:
        import spans as spanlib

        spanlib.print_report(metrics)
        metrics = spanlib.report_metrics(metrics)
    if attempted:
        common.info("failed_share %.6f (%d of %d ops)" % (failed / attempted, failed, attempted))
    common.emit(failed == 0 and attempted > 0, max(attempted, 1), failed, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
