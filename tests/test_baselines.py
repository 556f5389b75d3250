"""The ``baselines`` experiment: plan shape, reduction, rendering, and
tri-path (serial == parallel == cache-replay) determinism.

Its paper-shaped ordering is ``baselines.claims()``, asserted at full
scale by ``benchmarks/test_claims.py``.
"""

import json

import pytest

from repro.errors import ConfigError
from repro.experiments import baselines, registry
from repro.runner import SimJob, execute
from repro.runner.jobs import run_job

SCALE = 0.02  # clamps to the 10 ms duration floor — fast but real


def _norm(value):
    def convert(x):
        if isinstance(x, dict):
            return {str(k): convert(v) for k, v in x.items()}
        if isinstance(x, (list, tuple)):
            return [convert(v) for v in x]
        return x

    return json.dumps(convert(value), sort_keys=True)


class TestPlan:
    def test_full_matrix(self):
        jobs = baselines.plan(scale_override=SCALE)
        assert len(jobs) == len(baselines.SCHEMES) * 4 * len(baselines.CORUNNERS)
        tags = {job.tag for job in jobs}
        assert "credit:gmake:swaptions" in tags
        assert "micro_pool:vips:memclone" in tags

    def test_scheduler_override_only_for_backend_schemes(self):
        jobs = {job.tag: job for job in baselines.plan(scale_override=SCALE)}
        assert jobs["credit:gmake:swaptions"].overrides["scheduler"] == "credit"
        assert "scheduler" not in jobs["micro_pool:gmake:swaptions"].overrides
        assert jobs["cosched:gmake:swaptions"].overrides["scheduler"] == "cosched"
        assert jobs["shortslice:exim:memclone"].overrides["scheduler"] == "shortslice"

    def test_micro_pool_uses_static_policy(self):
        jobs = {job.tag: job for job in baselines.plan(scale_override=SCALE)}
        assert jobs["micro_pool:gmake:swaptions"].policy["mode"] == "static"
        assert jobs["credit:gmake:swaptions"].policy["mode"] == "baseline"

    def test_both_corunner_kinds_present(self):
        # One co-runner alone cannot probe both stories: pure-CPU
        # swaptions exposes the short-slice throughput tax but never
        # blocks, so vCPUs never migrate and balance is vacuously
        # identical to credit; blocky memclone provokes the stealing and
        # sibling stacking the contention metrics need (see baselines.py).
        jobs = baselines.plan(scale_override=SCALE)
        kinds = {job.scenario_kwargs["corunner_kind"] for job in jobs}
        assert kinds == set(baselines.CORUNNERS)
        assert baselines.CPU_CORUNNER == "swaptions"
        assert baselines.BLOCKY_CORUNNER != "swaptions"


class TestReduceAndRender:
    @pytest.fixture(scope="class")
    def reduced(self):
        jobs = baselines.plan(
            scale_override=SCALE,
            schemes=("credit", "cosched", "shortslice"),
            workloads=("gmake",),
        )
        return baselines.reduce(execute(jobs, workers=1, cache=False))

    def test_per_scheme_entries(self, reduced):
        for scheme in ("credit", "cosched", "shortslice"):
            entry = reduced[scheme]
            for key in (
                "target_x",
                "corunner_x",
                "yields",
                "lock_wait_us",
                "tlb_sync_us",
                "sibling_wait_us",
                "gang_idles",
                "steal_ns",
            ):
                assert key in entry
        assert reduced["credit"]["target_x"] == 1.0
        assert reduced["credit"]["corunner_x"] == 1.0

    def test_checks_present(self, reduced):
        checks = reduced["checks"]
        assert "shortslice_taxes_corunner" in checks
        assert "cosched_gang_idles" in checks
        assert all(isinstance(v, bool) for v in checks.values())

    def test_gang_idles_only_under_cosched(self, reduced):
        assert reduced["cosched"]["gang_idles"] > 0
        assert reduced["credit"]["gang_idles"] == 0
        assert reduced["shortslice"]["gang_idles"] == 0

    def test_render(self, reduced):
        text = baselines.format_result(reduced)
        assert "Baselines" in text
        assert "paper-shaped ordering" in text
        for scheme in ("credit", "cosched", "shortslice"):
            assert scheme in text


class _Cell:
    """A stand-in co-run result: just the rates ``reduce`` reads."""

    lockstats = tlb_stats = hv_counters = {}

    def __init__(self, target, corunner):
        self.rates = {"target": target, "corunner": corunner}

    def rate(self, name):
        return self.rates["target" if name in ("gmake", "exim") else "corunner"]

    def total_yields(self, domain):
        return 0

    def steal_time(self, domain):
        return 0


class TestZeroRateCells:
    """A cell with a zero rate on either side has no measured ratio: it
    is left out of the geomean instead of pinning the column to 0 or
    inf, and a scheme with no measured cell reads n/a."""

    def _reduce(self, cells):
        return baselines.reduce({
            "%s:%s:%s" % (scheme, kind, corunner): _Cell(*rates)
            for (scheme, kind), rates in cells.items()
            for corunner in baselines.CORUNNERS
        })

    def test_one_zero_rate_cell_is_left_out(self):
        reduced = self._reduce({
            ("credit", "gmake"): (100.0, 50.0), ("credit", "exim"): (0.0, 50.0),
            ("micro_pool", "gmake"): (150.0, 50.0), ("micro_pool", "exim"): (80.0, 50.0),
        })
        assert reduced["micro_pool"]["target_x"] == pytest.approx(1.5)
        assert reduced["micro_pool"]["corunner_x"] == pytest.approx(1.0)
        assert reduced["checks"]["micro_pool_improves_target"] is True
        assert "1.50x" in baselines.format_result(reduced)

    def test_no_measured_cell_renders_na_and_fails_the_claim(self):
        reduced = self._reduce({
            ("credit", "gmake"): (100.0, 50.0),
            ("micro_pool", "gmake"): (0.0, 50.0),
        })
        assert reduced["micro_pool"]["target_x"] is None
        assert reduced["checks"]["micro_pool_improves_target"] is False
        row = next(line for line in baselines.format_result(reduced).splitlines()
                   if line.startswith("micro_pool"))
        assert row.split()[1:3] == ["n/a", "1.00x"]


class TestDeterminism:
    def test_serial_parallel_cache_identical(self, tmp_path):
        def plan():
            return baselines.plan(
                scale_override=SCALE,
                schemes=("credit", "credit2", "balance"),
                workloads=("gmake",),
            )

        serial = baselines.reduce(execute(plan(), workers=1, cache=False))
        parallel = baselines.reduce(execute(plan(), workers=3, cache=False))
        cold = baselines.reduce(
            execute(plan(), workers=1, cache=True, cache_dir=tmp_path)
        )
        warm = baselines.reduce(
            execute(plan(), workers=1, cache=True, cache_dir=tmp_path)
        )
        assert _norm(serial) == _norm(parallel)
        assert _norm(serial) == _norm(cold)
        assert _norm(serial) == _norm(warm)


class TestRegistryWiring:
    def test_baselines_listed(self):
        assert "baselines" in registry.available()

    def test_registry_scheduler_kwarg_validated_up_front(self):
        with pytest.raises(ConfigError, match="unknown scheduler"):
            registry.run("baselines", scheduler="warp9")

    @pytest.mark.parametrize("scheduler", ["credit2", "shortslice", "credit"])
    def test_scheduler_option_moves_only_the_micro_pool_cells(self, scheduler):
        """``--scheduler`` must not relabel the matrix: each backend
        column keeps its own backend (``credit`` stays the paper's
        Xen-credit baseline); only ``micro_pool`` follows the option."""
        jobs = registry.prepare("baselines", scale_override=SCALE, scheduler=scheduler).jobs
        for job in jobs:
            scheme = job.tag.split(":")[0]
            expected = scheduler if scheme == "micro_pool" else scheme
            assert job.overrides["scheduler"] == expected, job.tag

    def test_default_backend_cells_keep_their_cache_keys(self):
        """The ``credit`` cells now name their backend, and the cache
        identity drops the default, so their keys are the unpinned ones."""
        from repro.runner import cache

        for job in baselines.plan(scale_override=SCALE, schemes=("credit",)):
            bare = SimJob(**dict(job.to_dict(), overrides={}))
            assert job.overrides == {"scheduler": "credit"}
            assert cache.job_key(job) == cache.job_key(bare)

    def test_normal_slice_override_removed(self):
        # The pre-sched ablation hack must be gone: jobs carrying it are
        # rejected instead of silently ignored.
        job = SimJob(
            tag="x",
            scenario="corun",
            scenario_kwargs={"workload_kind": "gmake"},
            duration_ns=10_000_000,
            overrides={"normal_slice": 100_000},
        )
        with pytest.raises(ConfigError, match="unknown scenario overrides"):
            run_job(job)
