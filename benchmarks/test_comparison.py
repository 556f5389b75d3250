"""Benchmark quantifying Table 1 (our scheme vs prior approaches)."""

from repro.experiments import registry

from conftest import emit


class TestTable1:
    def test_table1_scheme_comparison(self, once):
        results, text = once(registry.run, "table1")
        emit(text)
        ours = results["microsliced"]
        # Our scheme helps all three symptom classes.
        assert ours["lock_x"] > 1.3
        assert ours["tlb_x"] > 1.0
        assert ours["io_x"] > 1.2
        # ... at bounded cost to the co-runner.
        assert ours["corunner_x"] > 0.7
        # Fixed micro-slicing on every core taxes user-level work hard.
        fixed = results["fixed_uslice"]
        assert fixed["corunner_x"] < ours["corunner_x"]
        # vTurbo's static I/O dedication helps I/O but not the lock- or
        # TLB-bound cases (it has no detection mechanism).
        vturbo = results["vturbo"]
        assert vturbo["io_x"] > 1.2
        assert vturbo["lock_x"] < ours["lock_x"]
        assert vturbo["tlb_x"] < ours["tlb_x"]
