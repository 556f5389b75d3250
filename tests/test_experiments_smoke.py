"""Smoke tests: every paper table/figure harness runs at tiny scale and
produces structurally complete, formattable output."""

import collections
import copy
import functools
import re
from pathlib import Path

import pytest

from repro import runner
from repro.experiments import baselines, common, fig4, fig7, registry, table2, table4a, table4b
from repro.obs import telemetry
from repro.runner import cache
from repro.runner.jobs import apply_options

#: Tiny scale so the whole module stays fast; each experiment's
#: ``claims()`` holds its shape thresholds, asserted at full scale by
#: ``benchmarks/test_claims.py``.
SCALE = 0.15

#: ``{experiment: [claim names]}``, from the "Claims (`<name>.claims()`)
#: ...:" bullet lists in EXPERIMENTS.md.
DOCUMENTED_CLAIMS = {
    name: re.findall(r"^- `([^`]+)`", block, re.M)
    for name, block in re.findall(
        r"^Claims \(`(\w+)\.claims\(\)`\)[^:]*:\n((?:- .*\n)+)",
        (Path(__file__).resolve().parent.parent / "EXPERIMENTS.md").read_text(),
        re.M,
    )
}


class TestRegistry:
    def test_all_experiments_registered(self):
        assert registry.available() == [
            "baselines",
            "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
            "fleet",
            "resilience",
            "table1", "table2", "table4a", "table4b", "table4c",
        ]

    def test_every_module_honours_the_pipeline_contract(self):
        for name in registry.available():
            module = registry.get(name)
            assert callable(getattr(module, "format_result", None)), name
            planned = all(hasattr(module, attr) for attr in ("plan", "reduce"))
            assert planned != hasattr(module, "drive"), name
            if name != "resilience":  # the one experiment that asserts no shape
                assert callable(getattr(module, "claims", None)), name

    def test_unknown_experiment_rejected(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            registry.get("fig99")


class TestReducersAreReadOnly:
    """A result owns its fields (``RunResult.from_dict`` takes its
    payload uncopied), so a reducer or formatter that annotated a
    result in place would change what a later reader of that result
    sees. The results here are replayed from the shared manifest cache,
    the path a warm run takes. ``claims()`` reads the reduced
    results the same way, and always answers with the names
    EXPERIMENTS.md documents. On a full plan every claim's check runs
    unguarded, so a mistyped key or a bad comparison raises here
    instead of reading as a failed shape. The one exception is the
    documented one: a check that compares an unmeasured (None) cell
    reads False (``common.improvement``)."""

    def test_finish_leaves_every_input_result_unchanged(self, monkeypatch, manifest_cache):
        def unguarded(check):
            try:
                return bool(check())
            except TypeError as err:
                if "'NoneType'" not in str(err):
                    raise
                return False

        monkeypatch.setattr(common, "claim", unguarded)
        names = [n for n in registry.available() if not registry.is_driver(registry.get(n))]
        prepared = {name: registry.prepare(name, scale_override=0.02) for name in names}
        by_plan = runner.execute_many({name: p.jobs for name, p in prepared.items()},
                                      cache=True, cache_dir=manifest_cache[0])
        for name, p in prepared.items():
            by_tag = by_plan[name]
            before = {tag: res.to_dict() for tag, res in by_tag.items()}
            results, _text = p.finish(by_tag)
            after = {tag: res.to_dict() for tag, res in by_tag.items()}
            assert after == before, name
            reduced = copy.deepcopy(results)
            claims = p.claims(results)
            assert results == reduced, name
            assert sorted(claims) == sorted(DOCUMENTED_CLAIMS.get(name, [])), name
            assert all(type(ok) is bool for ok in claims.values()), name


class TestPlanMemo:
    """``registry.prepare`` keeps each plan per process: no request's
    options or duration scale may leak into another request's jobs."""

    @staticmethod
    def _keys(jobs):
        return [cache.job_key(job) for job in jobs]

    def test_options_never_leak_into_the_plain_plan(self):
        fresh = self._keys(baselines.plan(scale_override=0.02))
        for options in ({"scheduler": "credit2"}, {"trace": {"kinds": None}},
                        {"faults": "slow-ipi"}):
            plain = registry.prepare("baselines", scale_override=0.02)
            assert isinstance(plain.jobs, tuple)
            assert self._keys(plain.jobs) == fresh
            applied = registry.prepare("baselines", scale_override=0.02, **options)
            assert isinstance(applied.jobs, tuple)
            expected = [apply_options(job, **options)
                        for job in baselines.plan(scale_override=0.02)]
            assert self._keys(applied.jobs) == self._keys(expected) != fresh
        plain = registry.prepare("baselines", scale_override=0.02)
        assert self._keys(plain.jobs) == fresh
        assert registry.prepare("baselines", scale_override=0.02).jobs is plain.jobs

    def test_the_effective_scale_is_part_of_the_key(self, monkeypatch):
        durations = []
        for raw in ("0.02", "0.1", "0.02"):
            monkeypatch.setenv("REPRO_BENCH_SCALE", raw)
            durations.append(registry.prepare("table4a").jobs[0].duration_ns)
        assert durations[0] == durations[2] != durations[1]

    def test_equal_values_of_other_types_do_not_share_a_plan(self):
        by_int = registry.prepare("table4a", scale_override=1).jobs
        assert registry.prepare("table4a", scale_override=1.0).jobs is not by_int
        assert registry.prepare("table4a", scale_override=1).jobs is by_int

    def test_an_unhashable_option_is_planned_afresh(self):
        first = registry.prepare("fig7", scale_override=0.02, workloads=["dedup"]).jobs
        second = registry.prepare("fig7", scale_override=0.02, workloads=["dedup"]).jobs
        assert first == second and first is not second

    def test_a_warm_replay_replans_and_rekeys_nothing(self, monkeypatch, manifest_cache):
        """Once every planned experiment rendered, a second render calls
        no ``plan`` and no ``SimJob.canonical``, misses no cache entry,
        and prints the same text. The counters wrap with
        ``functools.wraps``, as perfbench's span wrappers do, so a
        wrapped ``plan`` still names the plan it kept."""
        monkeypatch.setenv(cache.ENV_DIR, str(manifest_cache[0]))
        monkeypatch.setenv(cache.ENV_TOGGLE, "on")
        names = [name for name in registry.available()
                 if not registry.is_driver(registry.get(name))]
        assert len(names) == 13

        def render():
            return {name: registry.run_many([name], workers=1, scale_override=0.02)[name][1]
                    for name in names}

        first = render()
        calls = collections.Counter()

        def counted(label, function):
            @functools.wraps(function)
            def wrapper(*args, **kwargs):
                calls[label] += 1
                return function(*args, **kwargs)
            return wrapper

        for name in names:
            module = registry.get(name)
            monkeypatch.setattr(module, "plan", counted(name, module.plan))
        monkeypatch.setattr(runner.SimJob, "canonical",
                            counted("canonical", runner.SimJob.canonical))
        misses = telemetry.snapshot()["counters"].get("cache.misses", 0)
        assert render() == first
        assert calls == {}
        assert telemetry.snapshot()["counters"].get("cache.misses", 0) == misses


class TestTables:
    def test_table2(self):
        results, text = registry.run("table2", scale_override=SCALE)
        assert set(results) == set(table2.WORKLOADS)
        for entry in results.values():
            assert entry["solo"] >= 0 and entry["corun"] >= 0
        assert "Table 2" in text and "exim" in text

    def test_table4a(self):
        results, text = registry.run("table4a", scale_override=SCALE)
        assert set(results) == set(table4a.COMPONENTS)
        assert "gmake" in text and "page_alloc" in text

    def test_table4b(self):
        results, text = registry.run("table4b", scale_override=SCALE)
        for kind in table4b.WORKLOADS:
            assert results[kind]["solo"]["count"] >= 0
            assert results[kind]["corun"]["avg"] >= 0
        assert "TLB" in text

    def test_table4c(self):
        results, text = registry.run("table4c", scale_override=SCALE)
        assert results["solo"]["throughput_mbps"] > 0
        assert "iPerf" in text


class TestFigures:
    def test_fig4_reduced(self):
        results, text = registry.run(
            "fig4", scale_override=SCALE, workloads=("gmake",), core_counts=(0, 1)
        )
        assert results["gmake"][0]["target"] == 1.0
        assert results["gmake"][1]["target"] > 0
        assert "Figure 4" in text
        assert fig4.best_core_count(results["gmake"]) == 1
        # A reduced plan lacks what every claim reads: False, not an error.
        assert set(fig4.claims(results).values()) == {False}

    def test_fig5_reduced(self):
        results, text = registry.run(
            "fig5", scale_override=SCALE, workloads=("exim",), core_counts=(0, 1)
        )
        assert results["exim"][0]["improvement"] == 1.0
        assert "Figure 5" in text

    def test_fig6_reduced(self):
        results, text = registry.run("fig6", scale_override=SCALE, workloads=("gmake",))
        runs = results["gmake"]
        assert set(runs) == {"baseline", "static", "dynamic"}
        assert runs["baseline"]["improvement"] == 1.0
        assert "Figure 6" in text

    def test_fig7_reduced(self):
        results, text = registry.run("fig7", scale_override=SCALE, workloads=("gmake",))
        for scheme in fig7.SCHEMES:
            causes = results["gmake"][scheme]
            assert causes["total"] == sum(
                causes[c] for c in ("ipi", "spinlock", "halt", "other")
            )
        assert "Figure 7" in text

    def test_fig8_reduced(self):
        results, text = registry.run("fig8", scale_override=SCALE, workloads=("sjeng",))
        entry = results["sjeng"]
        assert entry["baseline_rate"] > 0
        assert entry["norm_time"] > 0
        assert "Figure 8" in text

    def test_fig9_reduced(self):
        results, text = registry.run("fig9", scale_override=SCALE, modes=("tcp",))
        for config in ("solo", "baseline", "microsliced"):
            assert results["tcp"][config]["throughput_mbps"] > 0
        assert "Figure 9" in text

    def test_registry_run_formats(self):
        _results, text = registry.run("table4c", scale_override=SCALE)
        assert isinstance(text, str) and text


class TestResilience:
    def test_plan_shape(self):
        from repro.experiments import resilience
        from repro.faults import builtin_plans

        jobs = resilience.plan(seed=1, scale_override=0.05)
        assert [job.tag for job in jobs] == [resilience.HEALTHY] + builtin_plans()
        assert jobs[0].faults is None
        for job in jobs[1:]:
            assert job.faults["name"] == job.tag

    def test_reduced_subset(self):
        from repro.experiments import resilience

        results, text = registry.run(
            "resilience", seed=1, scale_override=0.05, fault_plans=("slow-ipi",)
        )
        assert set(results) == {resilience.HEALTHY, "slow-ipi"}
        assert results[resilience.HEALTHY]["vs_healthy"] == 1.0
        assert results["slow-ipi"]["rate"] >= 0
        assert results["slow-ipi"]["violations"] == []
        assert "Resilience" in text and "slow-ipi" in text
