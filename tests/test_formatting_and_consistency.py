"""Fast tests: experiment formatters against synthetic results, and
consistency guards between code, docs, and registries."""

import os

from repro.experiments import common, fig4, fig5, fig6, fig7, fig8, fig9, registry, table1, table2
from repro.experiments import table4a, table4b, table4c
from repro.workloads import registry as workload_registry

REPO_ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


class TestFormatters:
    """Formatters must render any structurally-valid result, including
    degenerate ones (zero rates)."""

    def test_table2_formatter(self):
        results = {
            kind: {
                "solo": 10, "corun": 1000, "solo_per_sec": 100.0,
                "corun_per_sec": 1000.0, "solo_per_work": 0.1,
                "corun_per_work": 10.0, "inflation": 100.0,
            }
            for kind in table2.WORKLOADS
        }
        text = table2.format_result(results)
        assert "100x" in text

    def test_table4a_formatter(self):
        results = {
            c: {"solo_us": 1.0, "corun_us": 500.0, "solo_count": 5, "corun_count": 9}
            for c in table4a.COMPONENTS
        }
        assert "500" in table4a.format_result(results)

    def test_table4b_formatter(self):
        stat = {"avg": 28.0, "min": 5.0, "max": 1927.0, "count": 3}
        results = {kind: {"solo": dict(stat), "corun": dict(stat)} for kind in table4b.WORKLOADS}
        assert "dedup" in table4b.format_result(results)

    def test_table4c_formatter(self):
        io = {"jitter_ms": 0.1, "throughput_mbps": 900.0}
        text = table4c.format_result({"solo": io, "mixed": io})
        assert "900" in text

    def test_fig4_formatter_handles_inf(self):
        per_cores = {
            c: {"target": float("inf") if c == 1 else 1.0, "corunner": 1.0,
                "target_rate": 0.0, "corunner_rate": 1.0}
            for c in (0, 1)
        }
        text = fig4.format_result({"gmake": per_cores})
        assert "inf" in text

    def test_fig5_formatter(self):
        per_cores = {c: {"improvement": 2.0, "corunner": 1.1, "target_rate": 1.0}
                     for c in (0, 1)}
        assert "2.00" in fig5.format_result({"exim": per_cores})

    def test_fig6_formatter(self):
        runs = {
            label: {"improvement": 1.5, "micro_cores": 2, "target_rate": 1.0,
                    "corunner_rate": 1.0, "decisions": []}
            for label in ("baseline", "static", "dynamic")
        }
        assert "1.50x" in fig6.format_result({"gmake": runs})

    def test_fig7_formatter(self):
        causes = {"ipi": 5, "spinlock": 3, "halt": 1, "other": 0, "total": 9}
        results = {"gmake": {s: dict(causes) for s in fig7.SCHEMES}}
        text = fig7.format_result(results)
        assert "gmake" in text and "1.00" in text

    def test_fig8_formatter(self):
        results = {"sjeng": {"baseline_rate": 100.0, "dynamic_rate": 98.0,
                             "norm_time": 1.02, "overhead_pct": 2.0}}
        assert "2.0%" in fig8.format_result(results)

    def test_fig9_formatter(self):
        io = {"throughput_mbps": 500.0, "jitter_ms": 0.2, "dropped": 3}
        results = {"tcp": {c: dict(io) for c in ("solo", "baseline", "microsliced")}}
        assert "TCP" in fig9.format_result(results)

    def test_table1_formatter(self):
        entry = {k + "_x": 1.0 for k in ("lock", "tlb", "io", "corunner", "cotask")}
        assert "baseline" in table1.format_result({"baseline": dict(entry)})


class TestUnmeasuredCells:
    """A rate of 0 (a short run can finish no unit of work) measures
    nothing: the ratio is None, every table renders it n/a, and a claim
    that reads it does not hold."""

    def test_a_zero_or_missing_rate_gives_no_ratio(self):
        for base, rate in ((0, 0), (0, 5.0), (5.0, 0), (None, 5.0), (5.0, 0.0)):
            assert common.improvement(base, rate) is None
            assert common.normalized_time(base, rate) is None
        assert common.improvement(2.0, 3.0) == 1.5
        assert common.normalized_time(2.0, 4.0) == 0.5
        assert common.ratio_cell(None) == "n/a"
        assert common.ratio_cell(1.5) == "1.50x"

    def test_fig4_renders_na_and_its_claims_fail(self):
        per_cores = {c: {"target": None if c == 3 else 0.5, "corunner": 1.0,
                         "target_rate": 1.0, "corunner_rate": 1.0} for c in (0, 1, 2, 3)}
        results = {kind: per_cores for kind in ("vips", "dedup", "gmake", "memclone")}
        assert "n/a" in fig4.format_result(results)
        claims = fig4.claims(results)
        assert claims["vips_gains_at_3_cores"] is False
        assert claims["improves_within_3_cores:gmake"] is False
        assert fig4.best_core_count(per_cores) == 1

    def test_fig6_renders_na_and_its_claims_fail(self):
        runs = {label: {"improvement": None if label == "static" else 1.5,
                        "micro_cores": 2, "target_rate": 1.0, "corunner_rate": 1.0,
                        "decisions": []}
                for label in ("baseline", "static", "dynamic")}
        assert "n/a" in fig6.format_result({"gmake": runs})
        assert fig6.claims({"gmake": runs})["static_not_worse:gmake"] is False

    def test_table1_renders_na_and_its_claims_fail(self):
        entry = {k + "_x": 2.0 for k in ("lock", "tlb", "io", "corunner", "cotask")}
        ours = dict(entry, lock_x=None)
        results = {"baseline": entry, "microsliced": ours}
        row = next(line for line in table1.format_result(results).splitlines()
                   if line.startswith("microsliced"))
        assert row.split()[1:3] == ["n/a", "2.00x"]
        assert table1.claims(results)["lock_gain"] is False
        assert table1.claims(results)["tlb_gain"] is True

    def test_fig5_and_fig8_render_na(self):
        per_cores = {c: {"improvement": None, "corunner": None, "target_rate": 0.0}
                     for c in (0, 1)}
        assert fig5.format_result({"exim": per_cores}).count("n/a") == 4
        results = {"sjeng": {"baseline_rate": 0.0, "dynamic_rate": 0.0,
                             "norm_time": None, "overhead_pct": 0.0}}
        assert "n/a" in fig8.format_result(results)


class TestInventoryConsistency:
    def test_design_md_lists_every_experiment(self):
        design = open(os.path.join(REPO_ROOT, "DESIGN.md")).read()
        for name in registry.available():
            if name == "table1":
                continue  # the quantified Table 1 is an extra, in §4/EXPERIMENTS
            assert ("experiments/%s.py" % name) in design, name

    def test_experiments_md_covers_every_paper_artifact(self):
        experiments = open(os.path.join(REPO_ROOT, "EXPERIMENTS.md")).read()
        for heading in ("Table 2", "Table 4a", "Table 4b", "Table 4c",
                        "Figure 4", "Figure 5", "Figure 6", "Figure 7",
                        "Figure 8", "Figure 9"):
            assert heading in experiments, heading

    def test_readme_quickstart_example_is_runnable_path(self):
        readme = open(os.path.join(REPO_ROOT, "README.md")).read()
        assert "examples/quickstart.py" in readme
        assert os.path.exists(os.path.join(REPO_ROOT, "examples", "quickstart.py"))

    def test_paper_workloads_all_registered(self):
        names = set(workload_registry.available())
        paper_suite = {
            "swaptions", "lookbusy", "exim", "gmake", "psearchy", "memclone",
            "dedup", "vips", "blackscholes", "bodytrack", "streamcluster",
            "raytrace", "perlbench", "sjeng", "bzip2", "iperf",
        }
        assert paper_suite <= names

    def test_every_example_compiles(self):
        """Import each example (its ``main`` stays uncalled), so one that
        names a deleted API fails here, not only in a reader's hands."""
        import importlib.util

        examples = os.path.join(REPO_ROOT, "examples")
        for fname in sorted(os.listdir(examples)):
            if fname.endswith(".py"):
                spec = importlib.util.spec_from_file_location(
                    "example_" + fname[:-3], os.path.join(examples, fname)
                )
                module = importlib.util.module_from_spec(spec)
                spec.loader.exec_module(module)
                assert callable(module.main), fname

    def test_static_best_covers_fig6_workloads(self):
        from repro.experiments import common
        from repro.experiments.fig6 import WORKLOADS

        for kind in WORKLOADS:
            assert kind in common.STATIC_BEST, kind
