"""Smoke tests for the ablation harnesses (full scale runs live in
benchmarks/test_ablations.py)."""

from repro.experiments import ablations, registry

SCALE = 0.15


class TestAblationHarnesses:
    def test_fixed_microslice(self):
        results = ablations.run_fixed_microslice(scale_override=SCALE)
        assert set(results) == {"baseline", "micro_pool", "fixed_100us_all_cores"}
        for entry in results.values():
            assert "target_x" in entry and "corunner_x" in entry
        assert "Ablation" in ablations.format_fixed_microslice(results)

    def test_ple_window(self):
        results = ablations.run_ple_window(scale_override=SCALE, windows_us=(3, 25))
        assert set(results) == {3, 25}
        for entry in results.values():
            assert entry["yields"] >= 0

    def test_micro_slice_length(self):
        results = ablations.run_micro_slice_length(
            scale_override=SCALE, slices_us=(100,)
        )
        assert "baseline" in results and 100 in results

    def test_selective_acceleration(self):
        results = ablations.run_selective_acceleration(scale_override=SCALE)
        assert set(results) == {"baseline", "full", "yield_only"}
        for entry in results.values():
            assert entry["throughput_mbps"] > 0


class TestTable1Harness:
    def test_reduced_scheme_set(self):
        results, text = registry.run(
            "table1", scale_override=SCALE, schemes=("baseline", "vturbo")
        )
        assert set(results) == {"baseline", "vturbo"}
        assert results["baseline"]["lock_x"] == 1.0
        assert "Table 1" in text and "vturbo" in text
