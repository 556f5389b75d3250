"""Benchmarks regenerating the paper's tables (2, 4a, 4b, 4c)."""

from repro.experiments import registry, table2, table4b

from conftest import emit


class TestTable2:
    def test_table2_yield_inflation(self, once):
        results, text = once(registry.run, "table2")
        emit(text)
        # Shape: per unit of completed work, consolidation inflates
        # yields by 1-2 orders of magnitude (the paper's counts are per
        # complete benchmark run, i.e. per fixed amount of work).
        assert results["dedup"]["inflation"] > 10
        assert results["vips"]["inflation"] > 10
        for kind in table2.WORKLOADS:
            assert results[kind]["inflation"] > 3


class TestTable4a:
    def test_table4a_gmake_lock_waits(self, once):
        results, text = once(registry.run, "table4a")
        emit(text)
        # Shape: microsecond-scale solo, 100x+ inflation on the hottest
        # class under co-run.
        solo = [entry["solo_us"] for entry in results.values() if entry["solo_count"]]
        assert solo and max(solo) < 50
        inflations = [
            entry["corun_us"] / entry["solo_us"]
            for entry in results.values()
            if entry["solo_us"] and entry["corun_count"]
        ]
        assert max(inflations) > 50


class TestTable4b:
    def test_table4b_tlb_sync_latency(self, once):
        results, text = once(registry.run, "table4b")
        emit(text)
        for kind in table4b.WORKLOADS:
            solo_avg = results[kind]["solo"]["avg"]
            corun_avg = results[kind]["corun"]["avg"]
            assert solo_avg < 200           # tens of µs solo
            assert corun_avg > 1_000        # milliseconds co-run
            assert corun_avg > 20 * solo_avg


class TestTable4c:
    def test_table4c_iperf_solo_vs_mixed(self, once):
        results, text = once(registry.run, "table4c")
        emit(text)
        solo = results["solo"]
        mixed = results["mixed"]
        assert solo["throughput_mbps"] > mixed["throughput_mbps"] * 1.2
        assert mixed["jitter_ms"] > 10 * max(solo["jitter_ms"], 0.001)
