"""Fast tests: experiment formatters against synthetic results, and
consistency guards between code, docs, and registries."""

import os

from repro.experiments import fig4, fig5, fig6, fig7, fig8, fig9, registry, table1, table2
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
