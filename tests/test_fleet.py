"""The fleet layer: open arrivals, placement policies, the epoch
orchestrator, seed splitting, and registry/CLI wiring.

The full-size ordering run (informed placement beats random on the
fleet p99 vIRQ tail) lives in ``scripts/ci_smoke.sh`` and
``benchmarks/test_fleet_perf.py``; here the DES-running tests stay
tiny and assert *determinism* and *mechanism*, not magnitudes.
"""

import functools
import json
import random
import re

import pytest

from repro.cli import main
from repro.errors import ConfigError
from repro.experiments import fleet as fleet_experiment
from repro.experiments import registry
from repro.fleet import placement
from repro.fleet.arrivals import CATALOG, HOLD_EPOCHS, Session, generate
from repro.fleet.cluster import FleetSpec, FleetState, run_fleet, summary_json
from repro.metrics.histogram import Histogram
from repro.obs import telemetry
from repro.runner import cache, execute_many
from repro.serve import ValidationError
from repro.serve.jobs import compile_experiment
from repro.sim.rng import derive_seed, split_seeds
from repro.sim.time import ms

#: Small-but-real fleet used by the DES-running tests.
TINY = dict(hosts=4, epochs=3, rate=10.0, scale=0.02)


def bound(**settings):
    """``execute_many`` with its settings bound: the driver's executor."""
    return functools.partial(execute_many, **settings)


def never(plans):
    raise AssertionError("simulated %r" % sorted(plans))


class TestArrivals:
    def test_trace_is_pure_function_of_seed(self):
        assert generate(42, 8.0, 4) == generate(42, 8.0, 4)
        assert generate(42, 8.0, 4) != generate(43, 8.0, 4)

    def test_rate_scales_offered_load(self):
        low = generate(42, 3.0, 6)
        high = generate(42, 30.0, 6)
        assert len(high) > len(low) > 0

    def test_degenerate_inputs_empty(self):
        assert generate(42, 0.0, 4) == []
        assert generate(42, 8.0, 0) == []

    def test_session_fields_well_formed(self):
        kinds = {kind for kind, _v, _w in CATALOG}
        sessions = generate(7, 12.0, 5)
        for index, session in enumerate(sessions):
            assert session.sid == index
            assert 0.0 <= session.arrival < 5
            assert session.epoch == int(session.arrival)
            assert session.hold in HOLD_EPOCHS
            assert session.workload in kinds
            assert session.vcpus >= 1
            assert session.name == "s%d" % index
        arrivals = [s.arrival for s in sessions]
        assert arrivals == sorted(arrivals)


class TestSplitSeeds:
    def test_one_distinct_seed_per_name(self):
        names = ["host:%d" % i for i in range(64)]
        seeds = split_seeds(42, names)
        assert sorted(seeds) == sorted(names)
        assert len(set(seeds.values())) == len(names)
        assert seeds["host:0"] == derive_seed(42, "host:0")

    def test_streams_do_not_overlap(self):
        seeds = split_seeds(42, ["host:%d" % i for i in range(8)])
        draws = {
            name: tuple(random.Random(seed).random() for _ in range(32))
            for name, seed in seeds.items()
        }
        values = list(draws.values())
        assert len(set(values)) == len(values)

    def test_collision_raises_instead_of_aliasing(self, monkeypatch):
        from repro.sim import rng as rng_module

        monkeypatch.setattr(rng_module, "derive_seed", lambda root, name: 7)
        with pytest.raises(ValueError, match="seed collision"):
            rng_module.split_seeds(42, ["a", "b"])

    def test_duplicate_name_is_not_a_collision(self):
        seeds = split_seeds(42, ["a", "a"])
        assert list(seeds) == ["a"]


def _hosts(*loads, pcpus=4, capacity=8):
    return [
        placement.HostView(i, pcpus, capacity, load=load)
        for i, load in enumerate(loads)
    ]


class TestPlacementRegistry:
    def test_builtins_registered(self):
        assert placement.available() == ["first_fit", "random", "steal_aware"]

    def test_unknown_name_raises_config_error(self):
        with pytest.raises(ConfigError, match="unknown placement policy"):
            placement.get("round_robin")

    def test_describe_pairs(self):
        described = dict(placement.describe())
        assert set(described) == set(placement.available())
        assert all(described.values())

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigError, match="already registered"):

            @placement.register
            class Dupe(placement.RandomPolicy):  # noqa: F811
                name = "random"


class TestPlacementPolicies:
    def _session(self, vcpus=1):
        return Session(sid=0, arrival=0.0, hold=1, workload="iperf", vcpus=vcpus)

    def test_all_policies_reject_when_fleet_is_full(self):
        hosts = _hosts(8, 8, capacity=8)
        for name in placement.available():
            policy = placement.get(name)(rng=random.Random(1))
            assert policy.place(self._session(), hosts) is None

    def test_first_fit_prefers_first_uncontended(self):
        hosts = _hosts(4, 1, 0, pcpus=4)
        policy = placement.get("first_fit")(rng=random.Random(1))
        # host 0 would be contended (4+1 > 4 pCPUs); host 1 fits.
        assert policy.place(self._session(), hosts).index == 1

    def test_first_fit_spills_to_least_loaded(self):
        hosts = _hosts(6, 4, 5, pcpus=4)
        policy = placement.get("first_fit")(rng=random.Random(1))
        assert policy.place(self._session(), hosts).index == 1

    def test_random_is_deterministic_given_rng(self):
        hosts = _hosts(0, 0, 0)
        first = placement.get("random")(rng=random.Random(9))
        second = placement.get("random")(rng=random.Random(9))
        picks_a = [first.place(self._session(), hosts).index for _ in range(16)]
        picks_b = [second.place(self._session(), hosts).index for _ in range(16)]
        assert picks_a == picks_b
        assert len(set(picks_a)) > 1

    def test_steal_aware_prefers_low_steal_among_uncontended(self):
        hosts = _hosts(1, 1, 1, pcpus=4)
        hosts[0].steal_pct = 9.0
        hosts[1].steal_pct = 0.5
        hosts[2].steal_pct = 4.0
        policy = placement.get("steal_aware")(rng=random.Random(1))
        assert policy.place(self._session(), hosts).index == 1

    def test_steal_aware_avoids_contended_low_steal_host(self):
        # Host 0 reports the lowest steal but is one placement away
        # from overcommit; host 1 can still take the session with a
        # dedicated core.
        hosts = _hosts(4, 1, pcpus=4)
        hosts[0].steal_pct = 0.0
        hosts[1].steal_pct = 3.0
        policy = placement.get("steal_aware")(rng=random.Random(1))
        assert policy.place(self._session(), hosts).index == 1

    def test_steal_aware_uninformed_falls_back_to_least_loaded(self):
        hosts = _hosts(3, 1, 2, pcpus=4)
        policy = placement.get("steal_aware")(rng=random.Random(1))
        assert policy.place(self._session(), hosts).index == 1


class TestStealAwareRebalance:
    def _contended_hosts(self, steal_ns=10_000_000):
        hosts = _hosts(6, 1, pcpus=4, capacity=8)
        hosts[0].steal_pct = 40.0
        hosts[0].domains = {
            "s1": {"steal_ns": steal_ns, "vcpus": 1},
            "s2": {"steal_ns": steal_ns // 2, "vcpus": 1},
        }
        hosts[1].steal_pct = 0.0
        return hosts

    def test_moves_hot_domains_to_cool_host(self):
        policy = placement.get("steal_aware")(rng=random.Random(1))
        moves = policy.rebalance(self._contended_hosts(), migration_cost_ns=0)
        assert moves == [("s1", 0, 1), ("s2", 0, 1)]

    def test_migration_cost_monotonically_suppresses_moves(self):
        policy = placement.get("steal_aware")(rng=random.Random(1))
        hosts = self._contended_hosts(steal_ns=10_000_000)
        counts = [
            len(policy.rebalance(self._contended_hosts(), migration_cost_ns=cost))
            for cost in (0, 6_000_000, 20_000_000)
        ]
        assert counts == [2, 1, 0]
        del hosts

    def test_max_moves_bounds_churn(self):
        policy = placement.get("steal_aware")(rng=random.Random(1))
        moves = policy.rebalance(
            self._contended_hosts(), migration_cost_ns=0, max_moves=1
        )
        assert len(moves) == 1

    def test_no_feedback_means_no_moves(self):
        policy = placement.get("steal_aware")(rng=random.Random(1))
        assert policy.rebalance(_hosts(6, 0), migration_cost_ns=0) == []


class TestFleetSpec:
    def test_capacity_from_overcommit(self):
        assert FleetSpec(pcpus=12, overcommit=2.0).capacity == 24
        assert FleetSpec(pcpus=12, overcommit=0.25).capacity == 3

    def test_epoch_floor_applies(self):
        assert FleetSpec(epoch_ms=250, scale=0.02).epoch_ns() == ms(10)

    def test_migration_cost_scales_with_realized_epoch(self):
        spec = FleetSpec(epoch_ms=250, migration_cost_ms=5.0, scale=0.02)
        # the epoch realized 10/250 of nominal, so the cost does too
        assert spec.migration_cost_ns() == int(ms(5.0) * ms(10) / ms(250))

    def test_invalid_shape_rejected(self):
        with pytest.raises(ConfigError):
            FleetSpec(hosts=0)
        with pytest.raises(ConfigError):
            FleetSpec(epochs=0)


class TestFleetStateMechanics:
    """Orchestrator mechanics that need no DES run: admission happens
    at plan time, migration bookkeeping at the epoch boundary."""

    def test_admission_rejects_when_over_cap(self):
        spec = FleetSpec(hosts=2, pcpus=2, overcommit=1.0, epochs=1,
                         rate=40.0, scale=0.02)
        state = FleetState(spec, "first_fit")
        state.plan_epoch(0)
        counts = state.counts
        assert counts["rejected"] > 0
        assert counts["admitted"] + counts["rejected"] == counts["arrived"]
        for host in state.hosts:
            assert host.load <= spec.capacity

    def test_rebalance_applies_move_and_counts_downtime(self):
        spec = FleetSpec(hosts=2, epochs=2, rate=1.0, scale=0.02,
                         migration_cost_ms=0.0)
        state = FleetState(spec, "steal_aware")
        session = Session(sid=0, arrival=0.0, hold=3, workload="gmake", vcpus=2)
        state.resident[0] = [session, 0, 3, False]
        state.hosts[0].load = 2
        state.hosts[0].steal_pct = 50.0
        state.hosts[0].domains = {"s0": {"steal_ns": 10**7, "vcpus": 2}}
        state.hosts[1].steal_pct = 0.0
        state._rebalance()
        assert state.migrations == 1
        assert state.resident[0][1] == 1
        assert state.hosts[0].load == 0
        assert state.hosts[1].load == 2
        assert state.resident[0][3] is False  # zero cost: no blackout

    def test_expensive_migration_blacks_out_next_epoch(self):
        # cost realizes to 12 ms >= the 10 ms floored epoch, so the
        # migrated domain sits the next epoch out (and is not compiled
        # into a host job), serving one extra epoch instead.
        spec = FleetSpec(hosts=2, epochs=2, rate=1.0, scale=0.02,
                         migration_cost_ms=300.0)
        state = FleetState(spec, "steal_aware")
        assert spec.migration_cost_ns() >= spec.epoch_ns()
        session = Session(sid=0, arrival=0.0, hold=3, workload="gmake", vcpus=2)
        state.resident[0] = [session, 0, 3, False]
        state.hosts[0].load = 2
        state.hosts[0].steal_pct = 50.0
        state.hosts[0].domains = {"s0": {"steal_ns": 10**10, "vcpus": 2}}
        state.hosts[1].steal_pct = 0.0
        state._rebalance()
        assert state.migrations == 1
        assert state.resident[0][3] is True
        assert state.migration_downtime_ns == spec.epoch_ns()
        jobs = state._compile(1)
        assert jobs == []  # the only domain is migrating

    def test_unknown_policy_fails_before_simulation(self):
        with pytest.raises(ConfigError, match="unknown placement policy"):
            run_fleet(FleetSpec(**TINY), ["warp_speed"], never)


class TestFleetDeterminism:
    def test_summary_bytes_identical_serial_vs_pooled(self):
        spec = FleetSpec(**TINY)
        serial = run_fleet(spec, ["random", "first_fit"],
                           bound(workers=0, cache=False))
        pooled = run_fleet(spec, ["random", "first_fit"],
                           bound(workers=2, cache=False))
        assert summary_json(serial) == summary_json(pooled)

    def test_summary_has_no_wall_clock_fields(self):
        spec = FleetSpec(**TINY)
        text = summary_json(run_fleet(spec, ["first_fit"],
                                      bound(workers=0, cache=False)))
        assert "seconds" not in text
        assert "wall" not in text


class TestExperimentWiring:
    def test_fleet_is_a_registered_driver(self):
        assert "fleet" in registry.available()
        assert registry.is_driver(registry.get("fleet"))
        assert not registry.is_driver(registry.get("fig9"))

    def test_driver_rejects_per_job_rewrites(self):
        with pytest.raises(ConfigError, match="driver"):
            registry.run_many(["fleet"], faults="lossy-ipi")
        with pytest.raises(ConfigError, match="driver"):
            registry.run_many(["fleet"], trace={"kinds": None})

    def test_driver_validates_scheduler_up_front(self):
        with pytest.raises(ConfigError, match="unknown scheduler"):
            registry.run_many(["fleet"], scheduler="warp9")

    def test_checks_shape(self):
        def summary(p99, density):
            return {"virq": {"p99_ns": p99},
                    "packing": {"mean_density": density}}

        checks = fleet_experiment.claims({"policies": {
            "random": summary(1000, 0.5),
            "first_fit": summary(100, 0.5),
            "steal_aware": summary(2000, 0.5),
        }})
        assert checks == {
            "equal_density": True,
            "first_fit_beats_random": True,
            "steal_aware_beats_random": False,
        }
        assert fleet_experiment.claims({"policies": {"random": summary(1, 0.5)}}) == {}

    def test_manifest_is_unaffected_by_the_fleet_experiment(self):
        from repro.tools import payload_manifest

        manifest = payload_manifest.load()
        jobs = payload_manifest.unique_jobs(manifest["scale"])
        assert manifest["count"] == 139
        assert set(jobs) == set(manifest["entries"])


class TestExecuteSeam:
    """``Prepared.drive(execute)``: the driver's only link to the
    executor, so a test can stand in for it."""

    OPTIONS = dict(seed=42, scale_override=0.02, hosts=3, epochs=3, rate=8.0,
                   policies=["random", "first_fit"])

    def test_one_call_per_epoch_keyed_by_policy(self):
        calls = []

        def recording(plans):
            calls.append({name: [job.tag for job in jobs]
                          for name, jobs in plans.items()})
            return execute_many(plans, workers=1, cache=False)

        results, _ = registry.prepare("fleet", **self.OPTIONS).drive(recording)
        tags = [tag for call in calls for jobs in call.values() for tag in jobs]
        assert all(re.fullmatch(r"e\d\d\.h\d\d", tag) for tag in tags), tags
        # Each call is one epoch's wave, in epoch order, keyed by policy.
        waves = [{tag[:3] for jobs in call.values() for tag in jobs} for call in calls]
        assert all(len(wave) == 1 for wave in waves), calls
        assert [min(wave) for wave in waves] == sorted({tag[:3] for tag in tags})
        assert all(set(call) <= set(self.OPTIONS["policies"]) for call in calls)
        summaries = results["policies"]
        assert len(tags) == sum(s["jobs_planned"] for s in summaries.values())

        plain, _ = registry.run("fleet", workers=1, cache=False, **self.OPTIONS)
        assert summary_json(summaries) == summary_json(plain["policies"])

    def test_credit_rerun_replays_from_the_cache(self, tmp_path, monkeypatch):
        """``--scheduler credit`` names the default backend: the same
        host jobs, so the same cache keys, and not one re-simulation."""
        monkeypatch.setenv(cache.ENV_DIR, str(tmp_path / "cache"))
        monkeypatch.delenv(cache.ENV_TOGGLE, raising=False)
        first, _ = registry.run("fleet", workers=1, **self.OPTIONS)
        misses = telemetry.snapshot()["counters"].get("cache.misses", 0)
        again, _ = registry.run("fleet", workers=1, scheduler="credit", **self.OPTIONS)
        assert telemetry.snapshot()["counters"].get("cache.misses", 0) == misses
        assert again == first


#: One table of fleet options, refused alike by every front door:
#: ``registry.prepare``, serve's ``compile_experiment`` and ``repro fleet``.
BAD_OPTIONS = [
    pytest.param({"rate": -3}, "'rate' must be a finite number > 0", id="rate-negative"),
    pytest.param({"rate": 0}, "'rate' must be a finite number > 0", id="rate-zero"),
    pytest.param({"rate": float("nan")}, "'rate' must be a finite number", id="rate-nan"),
    pytest.param({"rate": float("inf")}, "'rate' must be a finite number", id="rate-inf"),
    pytest.param({"overcommit": -1}, "'overcommit' must be a finite number > 0",
                 id="overcommit-negative"),
    pytest.param({"migration_cost_ms": -5}, "'migration_cost_ms' must be a finite number >= 0",
                 id="migration-cost-negative"),
    pytest.param({"hosts": True}, "'hosts' must be an integer >= 1", id="hosts-bool"),
    pytest.param({"policies": ["warp"]}, "unknown placement policy", id="policies-unknown"),
    pytest.param({"policies": []}, "non-empty list", id="policies-empty"),
]


def _fleet_argv(options):
    """``repro fleet`` flags for ``options`` (tiny fleet, no cache)."""
    argv = ["fleet", "--hosts", "2", "--epochs", "2", "--rate", "4",
            "--scale", "0.02", "--no-cache"]
    for key, value in options.items():
        argv += ["--" + key.replace("_", "-"),
                 ",".join(value) if isinstance(value, list) else str(value)]
    return argv


def _exit_code(argv):
    """``cli.main``'s exit status, argparse's usage errors included."""
    try:
        return main(argv)
    except SystemExit as exit:
        return exit.code


def _host_jobs():
    return telemetry.snapshot()["counters"].get("fleet.host_jobs", 0)


class TestFleetOptionsAtEveryFrontDoor:
    """``FleetSpec`` and ``registry.prepare`` own the fleet's rules, so
    a request is valid or not the same way through the library, serve
    and the CLI, and a bad one fails before any host job."""

    @pytest.mark.parametrize("options, match", BAD_OPTIONS)
    def test_registry_prepare_refuses(self, options, match):
        with pytest.raises(ConfigError, match=re.escape(match)):
            registry.prepare("fleet", **options)

    @pytest.mark.parametrize("options, match", BAD_OPTIONS)
    def test_serve_refuses(self, options, match):
        with pytest.raises(ValidationError, match=re.escape(match)):
            compile_experiment(dict({"experiment": "fleet"}, **options))

    # Left out: an infinite rate that got through would hang the suite
    # instead of failing it; ci_smoke.sh runs that row under a timeout.
    @pytest.mark.parametrize("options, match", [
        row for row in BAD_OPTIONS if row.id != "rate-inf"
    ])
    def test_cli_exits_two_before_any_host_job(self, capsys, options, match):
        before = _host_jobs()
        assert _exit_code(_fleet_argv(options)) == 2
        assert _host_jobs() == before
        # argparse's int type refuses the CLI spelling of True itself.
        expected = "invalid int value" if options == {"hosts": True} else match
        assert expected in capsys.readouterr().err

    def test_free_migration_is_valid_everywhere(self, capsys):
        assert registry.prepare("fleet", migration_cost_ms=0).options["spec"].migration_cost_ms == 0
        assert compile_experiment({"experiment": "fleet", "migration_cost_ms": 0}).driver
        argv = _fleet_argv({"migration_cost_ms": 0, "policies": ["first_fit"]})
        assert _exit_code(argv) == 0
        assert "first_fit" in capsys.readouterr().out

    def test_cli_and_serve_default_to_the_experiments_policies(self, monkeypatch):
        seen = []
        configure = fleet_experiment.configure

        def recording(**options):
            seen.append(configure(**options)["policies"])
            raise ConfigError("recorded")

        monkeypatch.setattr(fleet_experiment, "configure", recording)
        assert main(["fleet", "--scale", "0.02"]) == 2
        with pytest.raises(ValidationError, match="recorded"):
            compile_experiment({"experiment": "fleet"})
        assert seen == [list(fleet_experiment.POLICIES)] * 2


    @pytest.mark.parametrize("spelling", [16, 16.0], ids=["int", "float"])
    def test_cli_json_equals_the_served_result_for_either_spelling(self, capsys, spelling):
        options = {"hosts": 2, "epochs": 2, "overcommit": 2, "migration_cost_ms": 5,
                   "policies": ["first_fit"]}
        argv = _fleet_argv(dict(options, rate=16)) + ["--json"]
        assert _exit_code(argv) == 0
        printed = capsys.readouterr().out
        work = compile_experiment(dict(options, experiment="fleet", rate=spelling, scale=0.02))
        served = work.driver(bound(workers=1, cache=False))["results"]
        assert printed == json.dumps(served, indent=2, sort_keys=True) + "\n"
        spec = registry.prepare("fleet", rate=spelling, overcommit=2,
                                migration_cost_ms=5).options["spec"]
        assert [type(value) for value in (spec.rate, spec.overcommit,
                                          spec.migration_cost_ms)] == [float] * 3

    def test_policies_help_names_the_experiments_default(self, capsys):
        assert _exit_code(["fleet", "--help"]) == 0
        text = " ".join(capsys.readouterr().out.split())
        assert "(default: fleet.POLICIES, %s;" % ",".join(fleet_experiment.POLICIES) in text
        assert "all registered" not in text


class TestHistogramFromSnapshot:
    def test_round_trip_preserves_percentiles(self):
        hist = Histogram(name="virq_delivery")
        for value in (0, 1, 5, 100, 2**14, 2**20):
            hist.record(value)
        snap = hist.snapshot()
        rebuilt = Histogram.from_snapshot(snap)
        assert rebuilt.snapshot() == snap

    def test_merge_of_snapshots_matches_direct_merge(self):
        a, b = Histogram(name="h"), Histogram(name="h")
        for value in (3, 9, 81):
            a.record(value)
        for value in (1, 27, 6561):
            b.record(value)
        direct = Histogram(name="h")
        direct.merge(a)
        direct.merge(b)
        via_snap = Histogram.from_snapshot(a.snapshot())
        via_snap.merge(Histogram.from_snapshot(b.snapshot()))
        assert via_snap.snapshot() == direct.snapshot()


class TestScenarioAndCostModel:
    def test_fleet_host_scenario_builds(self):
        from repro.runner.jobs import SimJob, build_system

        job = SimJob(
            tag="t",
            scenario="fleet_host",
            scenario_kwargs={
                "domains": [
                    {"name": "s0", "workload": "iperf", "vcpus": 1},
                    {"name": "s1", "workload": "gmake", "vcpus": 2},
                ],
                "num_pcpus": 4,
            },
            duration_ns=ms(10),
        )
        system = build_system(job)
        assert sorted(d.name for d in system.hv.domains) == ["s0", "s1"]
        assert [d.name for d in system.hv.domains if len(d.vcpus) == 2] == ["s1"]
