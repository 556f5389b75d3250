"""Tracer overhead microbenchmarks.

Quantifies what the observability layer costs the hot path in three
configurations — tracing off (the default every experiment runs with),
on and unfiltered, and on with a kind filter that rejects the emitted
kind — and folds the events/sec rates into ``BENCH_engine.json``. The
disabled case is the one that matters for experiment fidelity: an emit
site costs exactly one attribute check when tracing is off.
"""

from test_simulator_perf import BENCH_JSON, _mean, _record  # noqa: F401

from repro.experiments.scenarios import corun_scenario
from repro.sim.engine import Simulator
from repro.sim.time import ms
from repro.sim.trace import Tracer

EMITS = 50_000


class TestEmitPath:
    def _drive(self, tracer):
        emit = tracer.emit
        for _ in range(EMITS):
            emit("yield", vcpu="v0", domain="vm1", cause="ipi")
        return tracer

    def test_emit_disabled(self, benchmark):
        tracer = benchmark(lambda: self._drive(Tracer(Simulator(), enabled=False)))
        assert len(tracer) == 0
        _record("trace_emit_off_per_sec", EMITS / _mean(benchmark))

    def test_emit_enabled_unfiltered(self, benchmark):
        tracer = benchmark(
            lambda: self._drive(Tracer(Simulator(), enabled=True))
        )
        assert len(tracer) == EMITS
        _record("trace_emit_on_per_sec", EMITS / _mean(benchmark))

    def test_emit_enabled_filtered_out(self, benchmark):
        tracer = benchmark(
            lambda: self._drive(
                Tracer(Simulator(), enabled=True, kinds=("virq_inject",))
            )
        )
        assert len(tracer) == 0
        _record("trace_emit_filtered_per_sec", EMITS / _mean(benchmark))


class TestScenarioOverhead:
    """Whole-scenario cost: the co-run standard config with tracing off
    vs fully on (every emit site firing into a lossless buffer)."""

    def _run(self, trace):
        scenario = corun_scenario("dedup", seed=7)
        if trace:
            scenario.trace = True
        system = scenario.build()
        system.run(ms(50))
        return system

    def test_corun_tracing_off(self, benchmark):
        system = benchmark.pedantic(self._run, args=(False,), rounds=1, iterations=1)
        assert len(system.tracer) == 0
        _record(
            "corun_untraced_events_per_sec",
            system.sim.executed_events / _mean(benchmark),
        )

    def test_corun_tracing_on(self, benchmark):
        system = benchmark.pedantic(self._run, args=(True,), rounds=1, iterations=1)
        assert len(system.tracer) > 0
        _record(
            "corun_traced_events_per_sec",
            system.sim.executed_events / _mean(benchmark),
        )
