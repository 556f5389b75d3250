"""Smoke tests: every paper table/figure harness runs at tiny scale and
produces structurally complete, formattable output."""

import copy
import re
from pathlib import Path

import pytest

from repro import runner
from repro.experiments import common, fig4, fig7, registry, table2, table4a, table4b

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
