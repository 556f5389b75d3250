"""One process running the ``cold_suite`` or ``warm_suite`` workload.

Started by ``run.py`` as a fresh interpreter; prints one JSON object as
its last stdout line. The parent hands over its host clock (``--clock``)
right before the spawn, so ``setup_s`` runs from the fresh interpreter
to the first timed op.

cold_suite
    set-up: import, plan the payload manifest's 139 unique jobs at scale
    0.02, load their digests, shuffle them with the seed.
    op: one job through ``runner.execute([job], workers=1, cache=False)``;
    checked against the manifest digest of its payload.
    timed phase: whole passes over the job set (at least one) until
    ``--seconds`` have passed, so every run times the same job multiset
    and the seed changes only the order.

warm_suite
    set-up: the cold ``repro run --all`` at scale 0.02 (every experiment
    with a plan; the ``fleet`` driver is out) into a private result
    cache: every unique job those experiments plan, one at a time so the
    host speed can be probed after each, then each experiment rendered
    from the filled cache, keeping its text.
    op: one rotation: every one of those experiments, in a fresh seeded
    order, each through its own
    ``registry.run_many([name], workers=1, scale_override=0.02)``;
    checked for every text byte-equal to set-up's and zero cache misses.

Every op is followed by a host-speed probe (``common.HostClock``); an
op's scaled duration is its measured one times the factor of the
probes on either side of it.

With ``--trace 1`` the timed phase runs twice: untraced, then with the
layer wrappers of ``spans.py`` installed. The per-layer numbers come
from the second phase; the difference in mean op time is the tracing
overhead.
"""

import argparse
import hashlib
import json
import os
import random
import resource
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402
import spans as spanlib  # noqa: E402


class ColdSuite:
    def __init__(self, seed, _clock):
        from repro import runner
        from repro.tools import payload_manifest

        self._execute = runner.execute
        self._canonical = payload_manifest.canonical_payload
        with open(common.MANIFEST, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
        jobs = payload_manifest.unique_jobs(manifest["scale"])
        if sorted(jobs) != sorted(manifest["entries"]):
            raise SystemExit("planned job set differs from the payload manifest")
        self.expected = {key: entry["payload_sha256"]
                         for key, entry in manifest["entries"].items()}
        self.order = [(key, jobs[key][0]) for key in sorted(jobs)]
        random.Random(seed).shuffle(self.order)

    def phase(self, seconds, cache_dir, on_op):
        """Whole passes until ``seconds`` have elapsed."""
        start = common.now()
        while True:
            for key, job in self.order:
                on_op(key, lambda job=job: self._run(job, cache_dir))
            if common.now() - start >= seconds:
                return

    def _run(self, job, cache_dir):
        return self._execute([job], workers=1, cache=False, cache_dir=cache_dir)[job.tag]

    def check(self, key, result):
        digest = hashlib.sha256(
            self._canonical(result.to_dict()).encode("utf-8")).hexdigest()
        if digest != self.expected[key]:
            return "payload digest of %s is %s, manifest says %s" % (
                key[:12], digest[:12], self.expected[key][:12])
        return None


class WarmSuite:
    def __init__(self, seed, clock):
        from repro.experiments import registry
        from repro.obs import telemetry

        from repro import runner
        from repro.tools import payload_manifest

        self._registry = registry
        self._telemetry = telemetry
        self.names = [name for name in registry.available()
                      if not registry.is_driver(registry.get(name))]
        # Fill the cache one job at a time, probing the host after each,
        # then render every experiment from it (all hits).
        for _key, (job, _tags) in sorted(payload_manifest.unique_jobs(common.SCALE).items()):
            runner.execute([job], workers=1, cache=True)
            clock.mark()
        misses = self._miss_count()
        self.texts = {}
        for name in self.names:
            self.texts[name] = self._run([name])[name]
            clock.mark()
        if self._miss_count() != misses:
            raise SystemExit("set-up's cache fill missed jobs the experiments plan")
        self.rng = random.Random(seed)
        self._misses = None

    def phase(self, seconds, _cache_dir, on_op):
        """Rotations, each in a fresh seeded order, until ``seconds``."""
        start = common.now()
        rotation = 0
        while common.now() - start < seconds:
            rotation += 1
            order = list(self.names)
            self.rng.shuffle(order)
            self._misses = self._miss_count()
            on_op("rotation %d" % rotation, lambda order=order: self._run(order))

    def _run(self, order):
        return {name: self._registry.run_many(
                    [name], workers=1, scale_override=common.SCALE)[name][1]
                for name in order}

    def _miss_count(self):
        return self._telemetry.snapshot()["counters"].get("cache.misses", 0)

    def check(self, key, texts):
        misses = self._miss_count() - self._misses
        if misses:
            return "%s missed the cache %d time(s)" % (key, misses)
        differ = sorted(name for name in texts if texts[name] != self.texts[name])
        if differ:
            return "%s: rendered text differs from set-up's for %s" % (key, ", ".join(differ))
        return None


def run_phase(suite, seconds, cache_dir, clock, tracer=None):
    """One timed phase. Returns ``(attempted, failures)``; the measured
    and scaled seconds of every op that passed its check are in
    ``clock.raw["op"]`` and ``clock.scaled["op"]``."""
    failures = []
    state = {"attempted": 0}
    clock.reset()

    def on_op(key, call):
        state["attempted"] += 1
        if tracer is not None:
            op_token = tracer.op.set(state["attempted"])
            index, token = tracer.begin("op")
        began = common.now()
        try:
            outcome = call()
        except Exception as err:  # a failed op is counted, never dropped
            failures.append("%s raised %s: %s" % (key, type(err).__name__, err))
            return
        finally:
            took = common.now() - began
            if tracer is not None:
                tracer.end(index, token)
                tracer.op.reset(op_token)
        problem = suite.check(key, outcome)
        if problem:
            failures.append(problem)
        else:
            clock.record("op", took)
        clock.mark()

    suite.phase(seconds, cache_dir, on_op)
    clock.mark()
    return state["attempted"], failures


def _mean_ms(values):
    return sum(values) / len(values) * 1e3 if values else 0.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("cold_suite", "warm_suite"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--state", required=True)
    parser.add_argument("--clock", type=float, nargs=2, required=True,
                        metavar=("MARK_AT", "PROBE_S"),
                        help="the parent's HostClock state at spawn")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans-out")
    args = parser.parse_args(argv)

    clock = common.HostClock(*args.clock)
    suite = (ColdSuite if args.workload == "cold_suite" else WarmSuite)(args.seed, clock)
    clock.mark()
    out = {"setup_raw_s": clock.raw_s, "setup_s": clock.scaled_s}
    if args.setup_only:
        print(json.dumps(out), flush=True)
        return 0

    attempted, failures = run_phase(suite, args.seconds, args.state, clock)
    scaled = clock.scaled.get("op", [])
    out.update(raw=clock.raw.get("op", []), scaled=scaled,
               attempted=attempted, failures=failures)
    if args.trace:
        from repro.obs import telemetry

        tracer = spanlib.Spans()
        spanlib.install(tracer)
        before = telemetry.snapshot()["counters"]
        t_attempted, t_failures = run_phase(suite, args.seconds, args.state, clock, tracer)
        traced = clock.scaled.get("op", [])
        after = telemetry.snapshot()["counters"]
        tracer.write(args.spans_out, "suite")
        records = spanlib.load([args.spans_out])
        counters = {name: after.get(name, 0) - before.get(name, 0) for name in after}
        untraced_ms, traced_ms = _mean_ms(scaled), _mean_ms(traced)
        roots = spanlib.self_times(records).get("op", [])
        out["layers"] = spanlib.layer_report(records, len(traced), counters, extra={
            "op.residual_ms": (_mean_ms(roots), len(roots)),
            "trace.overhead_ms": (traced_ms - untraced_ms, len(traced)),
            "trace.overhead_pct": (
                (traced_ms / untraced_ms - 1) * 100 if untraced_ms else 0.0, len(traced)),
        })
        out.update(attempted=attempted + t_attempted, failures=failures + t_failures)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
