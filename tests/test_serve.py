"""``repro serve`` end to end: validation, admission, lifecycle,
streams, metrics, determinism, and a concurrent soak.

Every HTTP test runs against a real server on a real socket (port 0,
event loop on a background thread) with the cache pointed at a tmp
dir — no mocked transport anywhere. Workers default to 1: each server
owns one worker process, and its waves run inline until that worker is
warm. The concurrency under test is the service's (admission, streams,
many clients, the dedicated simulation core), not the pool's, which
has its own suite.
"""

import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.faults import FaultPlan
from repro.obs import telemetry
from repro.runner import cache
from repro.runner import pool as pool_mod
from repro.runner.jobs import SimJob, run_job
from repro.serve import ServeConfig, ValidationError, start_in_thread
from repro.serve.admission import AdmissionController, Rejection
from repro.serve.jobs import MAX_FLEET_SIZE, TERMINAL, compile_experiment, compile_job
from repro.sim.time import ms


@pytest.fixture(autouse=True)
def clean_registry():
    telemetry.reset()
    telemetry.set_enabled(True)
    yield
    telemetry.reset()


@pytest.fixture
def server(tmp_path):
    handle = start_in_thread(
        ServeConfig(port=0, workers=1, cache_dir=str(tmp_path / "cache"))
    )
    yield handle
    handle.stop()


JOB = {
    "tag": "point",
    "scenario": "solo",
    "scenario_kwargs": {"workload_kind": "gmake"},
    "seed": 11,
    "duration_ns": ms(4),
}

#: A fault plan in the human-facing schema (``at_ms``/``until_ms``,
#: flat parameters), as a client would write it.
FAULTS_BY_HAND = {
    "name": "by-hand",
    "faults": [{"kind": "ipi_delay", "at_ms": 1, "until_ms": 3, "delay_ns": 20000}],
}


def wait_pool_ready(handle, timeout=60):
    """Block until the server's waves run in its worker pool. Reads the
    manager in-process, so waiting adds no request to the telemetry."""
    deadline = time.time() + timeout
    while handle.app.manager.pool_state() != "ready":
        assert time.time() < deadline, "the server's worker pool never warmed up"
        time.sleep(0.01)


def counter(name):
    return telemetry.snapshot()["counters"].get(name, 0)


class Client:
    """A tiny http.client wrapper; one connection per request keeps
    tests independent of keep-alive behaviour (covered separately)."""

    def __init__(self, handle, name=None):
        self.handle = handle
        self.name = name

    def request(self, method, path, body=None, headers=None):
        headers = dict(headers or {})
        if self.name:
            headers["X-Repro-Client"] = self.name
        conn = http.client.HTTPConnection(
            self.handle.host, self.handle.port, timeout=120
        )
        try:
            conn.request(
                method, path,
                body=json.dumps(body) if body is not None else None,
                headers=headers,
            )
            resp = conn.getresponse()
            data = resp.read()
        finally:
            conn.close()
        payload = None
        if resp.getheader("Content-Type", "").startswith("application/json"):
            payload = json.loads(data)
        return resp.status, dict(resp.getheaders()), payload if payload is not None else data

    def stream_events(self, job_id, sse=False):
        """Consume ``/jobs/<id>/events`` until the stream closes;
        returns the decoded event dicts (heartbeats skipped)."""
        headers = {"Accept": "text/event-stream"} if sse else {}
        if self.name:
            headers["X-Repro-Client"] = self.name
        conn = http.client.HTTPConnection(
            self.handle.host, self.handle.port, timeout=120
        )
        try:
            conn.request("GET", "/jobs/%s/events" % job_id, headers=headers)
            resp = conn.getresponse()
            assert resp.status == 200
            body = resp.read().decode("utf-8")
        finally:
            conn.close()
        events = []
        for line in body.splitlines():
            line = line.strip()
            if sse:
                if not line.startswith("data:"):
                    continue
                line = line[len("data:"):].strip()
            if not line or line.startswith(":"):
                continue
            event = json.loads(line)
            if event.get("event") != "heartbeat":
                events.append(event)
        return events, resp

    def wait_terminal(self, job_id, timeout=60):
        deadline = time.time() + timeout
        while time.time() < deadline:
            status, _, body = self.request("GET", "/jobs/%s" % job_id)
            assert status == 200
            if body["state"] in TERMINAL:
                return body
            time.sleep(0.02)
        raise AssertionError("submission %s never reached a terminal state" % job_id)


class TestValidation:
    """compile_* must reject anything a registry does not know —
    submission-time 400s, never worker-side crashes."""

    def test_minimal_job_compiles(self):
        work = compile_job(dict(JOB))
        assert len(work.jobs) == 1
        assert work.jobs[0].scenario == "solo"

    # Type rows (duration, seed, tag, trace keys) are spec rules: the
    # one-rule-set test below checks them at submission and build alike.
    # Explicit ids keep these rows' test names stable.
    @pytest.mark.parametrize(
        "patch, match",
        [
            pytest.param({"scenario": "warp"}, "unknown scenario",
                         id="patch0-unknown scenario"),
            pytest.param({"duration_ns": None}, "must be an integer",
                         id="patch1-must be an integer"),
            pytest.param({"duration_ns": 0}, ">= 1", id="patch2->= 1"),
            pytest.param({"duration_ns": True}, "must be an integer",
                         id="patch3-must be an integer"),
            pytest.param({"warmup_ns": -1}, ">= 0", id="patch5->= 0"),
            pytest.param({"surprise": 1}, "unknown field", id="patch7-unknown field"),
            pytest.param({"policy": {"mode": "psychic"}}, "unknown policy mode",
                         id="patch8-unknown policy mode"),
            pytest.param({"overrides": {"quantum": 9}}, "unknown override",
                         id="patch9-unknown override"),
            pytest.param({"overrides": {"scheduler": "warp"}}, "unknown scheduler",
                         id="patch10-unknown scheduler"),
            pytest.param({"scenario_kwargs": {"workload_kind": "bitcoin"}},
                         "unknown workload", id="patch11-unknown workload"),
            pytest.param({"faults": "nope"}, "unknown fault plan",
                         id="patch12-unknown fault plan"),
            pytest.param({"duration_ns": 20_000_000_000}, "service limit",
                         id="patch14-service limit"),
        ],
    )
    def test_bad_job_fields_rejected(self, patch, match):
        payload = dict(JOB)
        payload.update(patch)
        with pytest.raises(ValidationError, match=match):
            compile_job(payload)

    @pytest.mark.parametrize(
        "patch, match",
        [
            ({"scenario": "corun", "scenario_kwargs": {}}, "workload_kind"),
            ({"trace": {"kinds": 5}}, "kinds"),
            ({"trace": {"kinds": "deschedule"}}, "kinds"),
            ({"policy": {"mode": "static"}}, "micro_cores"),
            ({"policy": {"mode": "static", "micro_cores": "x"}}, "micro_cores"),
            ({"policy": {"mode": "static", "micro_cores": 0}}, "micro_cores"),
            ({"policy": {"mode": "dynamic", "adaptive_kwargs": {"bogus": 1}}},
             "adaptive_kwargs"),
            ({"duration_ns": 0}, ">= 1"),
            ({"duration_ns": None}, "must be an integer"),
            ({"duration_ns": True}, "must be an integer"),
            ({"seed": "42"}, "must be an integer"),
            ({"tag": ""}, "non-empty"),
            ({"trace": {"x": 1}}, "'trace' must be"),
            ({"faults": {"garbage": 1}}, "unknown fault plan keys"),
            ({"overrides": {"micro_slice": 0}}, "'micro_slice' must be an integer >= 1"),
            ({"overrides": {"pv_spin_rounds": None}}, "'pv_spin_rounds' must be an integer"),
            ({"policy": {"mode": "yield_only", "micro_cores": 0}}, "micro_cores"),
            # Equivalent spellings: a dict names the spelling the row
            # must compile to, with the same job_key.
            pytest.param({"overrides": {"scheduler": "credit"}}, {},
                         id="default-backend-override"),
            pytest.param({"overrides": {"ple_window": 3000, "micro_slice": 100_000}}, {},
                         id="default-knob-overrides"),
            pytest.param({"faults": FAULTS_BY_HAND},
                         {"faults": FaultPlan.from_dict(FAULTS_BY_HAND).to_dict()},
                         id="fault-dict-by-hand"),
        ],
    )
    def test_job_spec_rules_hold_at_submission_and_build(self, patch, match):
        """One rule set: what compile_job admits, build_system builds,
        and two spellings of one simulation share one cache key."""
        from repro.errors import ConfigError
        from repro.runner.jobs import build_system

        payload = dict(JOB)
        payload.update(patch)
        if isinstance(match, dict):
            (job,) = compile_job(payload).jobs
            (canonical,) = compile_job(dict(JOB, **match)).jobs
            assert cache.job_key(job) == cache.job_key(canonical)
            build_system(SimJob(**payload))
            return
        with pytest.raises(ValidationError, match=match):
            compile_job(payload)
        job = SimJob(**payload)
        with pytest.raises(ConfigError, match=match):
            build_system(job)

    def test_experiment_jobs_obey_the_horizon_limit(self):
        with pytest.raises(ValidationError, match="service limit"):
            compile_experiment({"experiment": "fig4", "scale": 1000.0})

    @pytest.mark.parametrize("scale, match", [
        (float("inf"), "finite number"), (float("nan"), "finite number"),
        (0, "> 0"), (-1.0, "> 0"), ("0.5", "finite number"),
    ])
    def test_experiment_scale_is_a_finite_positive_number(self, scale, match):
        """The rule ``--scale`` and ``REPRO_BENCH_SCALE`` share; an
        infinite scale used to escape as an OverflowError."""
        with pytest.raises(ValidationError, match=match):
            compile_experiment({"experiment": "fig7", "scale": scale})

    def test_builtin_fault_plan_resolved_at_submission(self):
        work = compile_job(dict(JOB, faults="slow-ipi"))
        assert work.jobs[0].faults is not None
        assert isinstance(work.jobs[0].faults, dict)

    def test_experiment_requires_known_name(self):
        with pytest.raises(ValidationError, match="unknown experiment"):
            compile_experiment({"experiment": "fig99"})

    def test_experiment_unknown_field_rejected(self):
        with pytest.raises(ValidationError, match="unknown field"):
            compile_experiment({"experiment": "fig7", "turbo": True})

    def test_experiment_plan_carries_scheduler_override(self):
        work = compile_experiment(
            {"experiment": "fig7", "scale": 0.02, "scheduler": "shortslice"}
        )
        assert all(
            job.overrides.get("scheduler") == "shortslice" for job in work.jobs
        )

    def test_experiment_bad_scheduler_rejected(self):
        with pytest.raises(ValidationError, match="unknown scheduler"):
            compile_experiment({"experiment": "fig7", "scheduler": "warp"})

    def test_driver_rejects_faults(self):
        with pytest.raises(ValidationError, match="does not accept 'faults'"):
            compile_experiment({"experiment": "fleet", "faults": "slow-ipi"})

    def test_driver_rejects_unknown_policy(self):
        with pytest.raises(ValidationError, match="unknown placement policy"):
            compile_experiment({"experiment": "fleet", "policies": ["psychic"]})

    def test_driver_compiles_without_a_plan(self):
        work = compile_experiment({"experiment": "fleet", "epochs": 2})
        assert work.jobs is None
        assert work.driver is not None

    @pytest.mark.parametrize("spec", [
        {"scale": 1000.0},  # a 250 s epoch: each host job past the horizon
        {"rate": 1e12},
        {"hosts": 1_000_000_000},
        {"hosts": MAX_FLEET_SIZE + 1, "epochs": 1, "policies": ["random"]},
        {"rate": MAX_FLEET_SIZE + 1, "epochs": 1},
    ])
    def test_fleet_obeys_the_service_limits(self, spec):
        with pytest.raises(ValidationError, match="service limit"):
            compile_experiment(dict({"experiment": "fleet"}, **spec))

    @pytest.mark.parametrize("spec", [
        {},  # the default fleet
        {"hosts": 4, "epochs": 4, "rate": 16, "scale": 0.02},  # the CI fleet
        {"hosts": MAX_FLEET_SIZE, "epochs": 1, "policies": ["random"]},
        {"rate": MAX_FLEET_SIZE, "epochs": 1},
    ])
    def test_fleet_within_the_service_limits_is_accepted(self, spec):
        assert compile_experiment(dict({"experiment": "fleet"}, **spec)).driver


class TestAdmissionController:
    @pytest.mark.parametrize("limits", [
        {"max_queue_depth": 0}, {"max_inflight_per_client": -1},
        {"max_queue_depth": 2.5}, {"max_inflight_per_client": True},
    ])
    def test_bad_limit_is_a_config_error(self, limits):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="must be an integer >= 1"):
            AdmissionController(**limits)

    def test_queue_full_rejects_429(self):
        controller = AdmissionController(max_queue_depth=2)
        controller.admit("a")
        controller.admit("a")
        with pytest.raises(Rejection) as exc:
            controller.admit("b")
        assert exc.value.status == 429
        assert exc.value.retry_after >= 1

    def test_client_cap_is_per_client(self):
        controller = AdmissionController(max_inflight_per_client=1)
        controller.admit("a")
        with pytest.raises(Rejection):
            controller.admit("a")
        controller.admit("b")  # other clients unaffected

    def test_started_then_finished_releases_the_slot(self):
        controller = AdmissionController(max_inflight_per_client=1)
        controller.admit("a")
        controller.started("a")
        assert controller.queued == 0
        with pytest.raises(Rejection):
            controller.admit("a")  # still in flight
        controller.finished("a")
        controller.admit("a")

    def test_draining_rejects_503(self):
        controller = AdmissionController()
        controller.draining = True
        with pytest.raises(Rejection) as exc:
            controller.admit("a")
        assert exc.value.status == 503

    def test_retry_after_tracks_prediction_clamped(self):
        backlog = {"seconds": 0.0}
        controller = AdmissionController(
            predicted_backlog_seconds=lambda: backlog["seconds"]
        )
        assert controller.retry_after() == 1  # floor
        backlog["seconds"] = 7.4
        assert controller.retry_after() == 7
        backlog["seconds"] = 1e9
        assert controller.retry_after() == 600  # ceiling

    def test_rejections_are_counted(self):
        before = telemetry.snapshot()["counters"].get(
            "serve.admission.rejected_queue_full", 0
        )
        controller = AdmissionController(max_queue_depth=1)
        controller.admit("a")
        with pytest.raises(Rejection):
            controller.admit("b")
        after = telemetry.snapshot()["counters"]["serve.admission.rejected_queue_full"]
        assert after == before + 1


class TestPrediction:
    def test_no_cache_server_learns_its_rate_from_a_wave(self, tmp_path):
        handle = start_in_thread(ServeConfig(
            port=0, workers=1, cache=False, cache_dir=str(tmp_path / "cache"),
        ))
        try:
            manager = handle.app.manager
            work = compile_job(dict(JOB, seed=12))
            before = manager.predict_seconds(work)
            client = Client(handle)
            status, _, body = client.request("POST", "/jobs", JOB)
            assert status == 202
            assert client.wait_terminal(body["id"])["state"] == "done"
            assert manager.predict_seconds(work) != before
        finally:
            handle.stop()


class TestHttpApi:
    def test_healthz(self, server):
        status, _, body = Client(server).request("GET", "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["workers"] == 1
        assert body["pool"] in ("warming", "ready")

    def test_experiment_listing_flags_drivers(self, server):
        status, _, body = Client(server).request("GET", "/experiments")
        assert status == 200
        rows = {row["name"]: row["driver"] for row in body["experiments"]}
        assert rows["fig7"] is False
        assert rows["fleet"] is True

    def test_unknown_route_404(self, server):
        assert Client(server).request("GET", "/warp")[0] == 404

    def test_unknown_submission_404(self, server):
        assert Client(server).request("GET", "/jobs/j-999999")[0] == 404

    def test_bad_json_body_400(self, server):
        conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
        conn.request("POST", "/jobs", body="{nope")
        resp = conn.getresponse()
        data = resp.read()
        conn.close()
        assert resp.status == 400
        assert b"invalid JSON" in data

    def test_method_not_allowed(self, server):
        assert Client(server).request("DELETE", "/experiments")[0] == 405

    def test_invalid_job_is_a_400_not_a_failed_submission(self, server):
        client = Client(server)
        status, _, body = client.request("POST", "/jobs", dict(JOB, scenario="warp"))
        assert status == 400
        assert "unknown scenario" in body["error"]
        assert client.request("GET", "/jobs")[2]["jobs"] == []

    def test_cold_job_lifecycle_and_byte_identity(self, server):
        client = Client(server)
        status, headers, body = client.request("POST", "/jobs", JOB)
        assert status == 202
        assert headers["X-Repro-Cache"] == "miss"
        job_id = body["id"]
        assert body["links"]["events"] == "/jobs/%s/events" % job_id

        final = client.wait_terminal(job_id)
        assert final["state"] == "done"
        status, _, result = client.request("GET", "/jobs/%s/result" % job_id)
        assert status == 200

        # The service answer must be byte-identical to running the same
        # spec directly — same payload dict, same canonical JSON.
        local = run_job(SimJob(**{k: v for k, v in JOB.items()}))
        assert result["result"]["payload"] == local

    def test_repeat_submission_is_a_cache_hit_with_result_inline(self, server):
        client = Client(server)
        _, _, first = client.request("POST", "/jobs", JOB)
        client.wait_terminal(first["id"])
        pool_before = telemetry.snapshot()["counters"].get("pool.jobs_completed", 0)

        status, headers, body = client.request("POST", "/jobs", JOB)
        assert status == 200
        assert headers["X-Repro-Cache"] == "hit"
        assert body["state"] == "done"
        assert body["cache"] == "hit"
        assert "payload" in body["result"]
        # The fast path never touches the pool.
        pool_after = telemetry.snapshot()["counters"].get("pool.jobs_completed", 0)
        assert pool_after == pool_before

    def test_result_before_completion_is_409(self, server):
        client = Client(server)
        _, _, body = client.request("POST", "/jobs", JOB)
        # Terminal already? Fine — the 409 window is timing-dependent;
        # only assert the contract when we catch the submission early.
        status, headers, _ = client.request("GET", "/jobs/%s/result" % body["id"])
        if status == 409:
            assert "Retry-After" in headers
        else:
            assert status == 200
        client.wait_terminal(body["id"])

    def test_events_stream_ndjson(self, server):
        client = Client(server)
        _, _, body = client.request("POST", "/jobs", dict(JOB, seed=77))
        events, resp = client.stream_events(body["id"])
        assert resp.getheader("Content-Type") == "application/x-ndjson"
        kinds = [event["event"] for event in events]
        assert kinds[0] == "queued"
        assert kinds[-1] == "done"
        assert "running" in kinds
        assert [event["seq"] for event in events] == sorted(
            event["seq"] for event in events
        )
        done = events[-1]
        assert done["telemetry"]["engine.jobs_simulated"] >= 1

    def test_events_stream_sse(self, server):
        client = Client(server)
        _, _, body = client.request("POST", "/jobs", dict(JOB, seed=78))
        events, resp = client.stream_events(body["id"], sse=True)
        assert resp.getheader("Content-Type") == "text/event-stream"
        assert events[-1]["event"] == "done"

    def test_stream_replays_history_after_completion(self, server):
        client = Client(server)
        _, _, body = client.request("POST", "/jobs", dict(JOB, seed=79))
        client.wait_terminal(body["id"])
        events, _ = client.stream_events(body["id"])  # opened after the fact
        assert events[0]["event"] == "queued"
        assert events[-1]["event"] == "done"

    def test_experiment_submission_matches_direct_run(self, server, tmp_path):
        client = Client(server)
        spec = {"experiment": "fig7", "scale": 0.02, "seed": 42}
        _, headers, body = client.request("POST", "/experiments", spec)
        final = client.wait_terminal(body["id"], timeout=120)
        assert final["state"] == "done"
        _, _, served = client.request("GET", "/jobs/%s/result" % body["id"])

        from repro.experiments import fig7
        from repro.runner import execute

        jobs = fig7.plan(seed=42, scale_override=0.02)
        by_tag = execute(jobs, workers=1, cache=True,
                         cache_dir=str(tmp_path / "cache"))
        local = fig7.reduce(by_tag)
        assert served["result"]["results"] == json.loads(
            json.dumps(local, sort_keys=True)
        )
        assert served["result"]["formatted"] == fig7.format_result(local)

    def test_experiment_text_matches_registry_run(self, server):
        from repro.experiments import registry

        client = Client(server)
        spec = {"experiment": "table4c", "scale": 0.05}
        _, _, body = client.request("POST", "/experiments", spec)
        assert client.wait_terminal(body["id"], timeout=120)["state"] == "done"
        _, _, served = client.request("GET", "/jobs/%s/result" % body["id"])
        results, text = registry.run("table4c", scale_override=0.05, workers=1, cache=False)
        assert served["result"]["formatted"] == text
        # The claims travel with the result, the same on a cold run and
        # on the cache hit that replays it.
        assert served["result"]["claims"] == registry.get("table4c").claims(results)
        status, headers, hit = client.request("POST", "/experiments", spec)
        assert (status, headers["X-Repro-Cache"]) == (200, "hit")
        assert hit["result"]["claims"] == served["result"]["claims"]

    def test_cancel_completed_submission_is_a_noop(self, server):
        client = Client(server)
        _, _, body = client.request("POST", "/jobs", JOB)
        client.wait_terminal(body["id"])
        status, _, after = client.request("POST", "/jobs/%s/cancel" % body["id"])
        assert status == 200
        assert after["state"] == "done"


class TestOneResultOnEveryFrontDoor:
    """The service, the registry and the CLI answer the same question
    with the same bytes. The server reads the session's manifest cache,
    so every request here is a warm hit."""

    @pytest.fixture
    def warm(self, manifest_cache, monkeypatch):
        directory, jobs, manifest = manifest_cache
        monkeypatch.setenv(cache.ENV_DIR, str(directory))
        monkeypatch.setenv(cache.ENV_TOGGLE, "on")
        monkeypatch.delenv("REPRO_RUNNER_WORKERS", raising=False)
        handle = start_in_thread(
            ServeConfig(port=0, workers=1, cache_dir=str(directory)))
        yield Client(handle), jobs, manifest["scale"]
        handle.stop()

    def test_planned_experiments_match_registry_and_cli(self, warm, capsys):
        from repro import cli
        from repro.experiments import registry

        client, _jobs, scale = warm
        names = [name for name in registry.available()
                 if not registry.is_driver(registry.get(name))]
        assert len(names) == 13
        for name in names:
            status, headers, served = client.request(
                "POST", "/experiments", {"experiment": name, "scale": scale})
            assert (status, headers["X-Repro-Cache"]) == (200, "hit"), name
            results, text = registry.run(name, scale_override=scale)
            claims = registry.prepare(name, scale_override=scale).claims(results)
            assert served["result"]["formatted"] == text, name
            assert served["result"]["claims"] == claims, name
            capsys.readouterr()
            assert cli.main(["run", name, "--scale", str(scale)]) == 0
            assert capsys.readouterr().out == text + "\n", name

    def test_one_manifest_job_per_scenario_matches_run_job(self, warm):
        client, jobs, _scale = warm
        first = {}
        for _key, job in sorted(jobs.items()):
            first.setdefault(job.scenario, job)
        assert len(first) >= 4
        for scenario, job in first.items():
            status, headers, served = client.request("POST", "/jobs", job.to_dict())
            assert (status, headers["X-Repro-Cache"]) == (200, "hit"), scenario
            assert served["result"]["payload"] == run_job(job), scenario

class TestQueuedStates:
    """Deterministic queue-state tests: stop the dispatcher so
    submissions stay queued instead of racing it."""

    @pytest.fixture
    def parked(self, tmp_path):
        handle = start_in_thread(
            ServeConfig(port=0, workers=1, cache_dir=str(tmp_path / "cache"),
                        max_queue_depth=2, max_inflight=2)
        )
        handle.run(handle.app.manager.stop())  # park the dispatcher
        yield handle
        handle.stop()

    def test_cancel_queued_submission(self, parked):
        client = Client(parked, name="c1")
        _, _, body = client.request("POST", "/jobs", JOB)
        assert body["state"] == "queued"
        status, _, after = client.request("DELETE", "/jobs/%s" % body["id"])
        assert status == 200
        assert after["state"] == "cancelled"
        events, _ = client.stream_events(body["id"])
        assert [event["event"] for event in events] == ["queued", "cancelled"]

    def test_queue_depth_limit_yields_429_with_retry_after(self, parked):
        a, b, c = (Client(parked, name=n) for n in ("a", "b", "c"))
        assert a.request("POST", "/jobs", dict(JOB, seed=1))[0] == 202
        assert b.request("POST", "/jobs", dict(JOB, seed=2))[0] == 202
        status, headers, body = c.request("POST", "/jobs", dict(JOB, seed=3))
        assert status == 429
        assert int(headers["Retry-After"]) >= 1
        assert "queue depth" in body["error"]

    def test_per_client_cap_yields_429(self, parked):
        client = Client(parked, name="greedy")
        assert client.request("POST", "/jobs", dict(JOB, seed=1))[0] == 202
        # max_inflight=2 but queue depth is also 2; use a dedicated
        # server knob-free check: second submit fills the queue, third
        # would hit the queue limit first, so assert the cap message on
        # a fresh parked server is covered by the unit tests; here we
        # assert the cap releases nothing while queued.
        assert client.request("POST", "/jobs", dict(JOB, seed=2))[0] == 202
        status, _, body = client.request("POST", "/jobs", dict(JOB, seed=3))
        assert status == 429

    def test_failed_wave_retry_does_not_double_count_progress(
        self, parked, monkeypatch
    ):
        """A wave whose batch raises after some jobs reported progress
        is retried one submission at a time; the retry must count each
        job once, not on top of the failed attempt."""
        import repro.serve.jobs as serve_jobs

        real = serve_jobs.execute_many

        def flaky(plans, progress=None, **kwargs):
            if len(plans) > 1:
                for jobs in plans.values():
                    for job in jobs:
                        progress("done", job.tag, 0, 0)
                raise RuntimeError("wave failed")
            return real(plans, progress=progress, **kwargs)

        monkeypatch.setattr(serve_jobs, "execute_many", flaky)
        a, b = Client(parked, name="a"), Client(parked, name="b")
        ids = [
            client.request("POST", "/jobs", dict(JOB, tag=tag, seed=seed))[2]["id"]
            for client, tag, seed in ((a, "pa", 71), (b, "pb", 72))
        ]
        parked.run(parked.app.manager.start())  # both land in one wave
        for job_id in ids:
            body = a.wait_terminal(job_id)
            assert body["state"] == "done"
            assert (body["jobs_done"], body["jobs_total"]) == (1, 1)

    def test_probe_miss_answered_by_an_earlier_wave_simulates_once(
        self, parked, monkeypatch
    ):
        """Two submissions of one spec both miss the submit-time probe
        and then run in consecutive waves. The wave-time probe in
        ``execute_many`` finds the entry the first wave stored, so the
        job is simulated once: the second probe is load-bearing."""
        import repro.serve.jobs as serve_jobs

        monkeypatch.setattr(serve_jobs, "WAVE_MAX", 1)
        a, b = Client(parked, name="a"), Client(parked, name="b")
        bodies = [client.request("POST", "/jobs", JOB)[2] for client in (a, b)]
        assert [body["state"] for body in bodies] == ["queued", "queued"]
        before = telemetry.snapshot()["counters"].get("engine.jobs_simulated", 0)
        waves = telemetry.snapshot()["counters"].get("serve.dispatch_waves", 0)
        parked.run(parked.app.manager.start())
        results = []
        for body in bodies:
            assert a.wait_terminal(body["id"])["state"] == "done"
            result = a.request("GET", "/jobs/%s/result" % body["id"])[2]
            results.append(result["result"]["payload"])
        counters = telemetry.snapshot()["counters"]
        assert counters["engine.jobs_simulated"] - before == 1
        assert counters["serve.dispatch_waves"] - waves == 2
        assert results[0] == results[1]

    def test_drain_refuses_new_work_with_503(self, parked):
        client = Client(parked, name="late")
        parked.app.admission.draining = True
        status, headers, body = client.request("POST", "/jobs", JOB)
        assert status == 503
        assert "Retry-After" in headers
        assert "draining" in body["error"]


class TestMetricsPath:
    def test_live_metrics_pass_validate_prom(self, server):
        client = Client(server)
        _, _, body = client.request("POST", "/jobs", JOB)
        client.wait_terminal(body["id"])
        status, headers, text = client.request("GET", "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        telemetry.validate_prom(text.decode("utf-8"))
        assert "serve_requests" in text.decode("utf-8")
        assert "serve_admission_admitted" in text.decode("utf-8")

    def test_wall_metrics_follow_suffix_contract(self, server):
        client = Client(server)
        _, _, body = client.request("POST", "/jobs", JOB)
        client.wait_terminal(body["id"])
        snap = telemetry.snapshot(include_wall=False)
        names = (
            list(snap["counters"]) + list(snap["gauges"]) + list(snap["histograms"])
        )
        # Wall-derived serve metrics are excluded from the determinism
        # surface by suffix; nothing wall-ish may hide under a bare name.
        assert not any(name.endswith(telemetry.WALL_SUFFIXES) for name in names)
        full = telemetry.snapshot(include_wall=True)
        assert "serve.request_latency_us" in full["histograms"]
        assert "serve.queue_wait_us" in full["histograms"]

    def test_telemetry_endpoint_is_json(self, server):
        status, _, snap = Client(server).request("GET", "/telemetry")
        assert status == 200
        assert snap["meta"]["format"] == telemetry.FORMAT

    def test_identical_request_sequences_dump_identically(self, tmp_path):
        """The determinism contract extends to the service: the same
        request sequence against a fresh, ready server + fresh cache
        produces a byte-identical non-wall telemetry dump. (Before the
        pool is ready, which process runs a wave depends on wall
        time.)"""

        def run_sequence(root):
            telemetry.reset()
            telemetry.set_enabled(True)
            handle = start_in_thread(
                ServeConfig(port=0, workers=1, cache_dir=str(root / "cache"))
            )
            try:
                wait_pool_ready(handle)
                client = Client(handle, name="seq")
                for seed in (21, 22, 21):  # third one is a cache hit
                    _, _, body = client.request(
                        "POST", "/jobs", dict(JOB, seed=seed)
                    )
                    if body["state"] not in TERMINAL:
                        client.stream_events(body["id"])
                client.request("GET", "/metrics")
                return telemetry.REGISTRY.dumps(include_wall=False)
            finally:
                handle.stop()

        first = run_sequence(tmp_path / "a")
        second = run_sequence(tmp_path / "b")
        assert first == second


def _terminal(client, job_id):
    events, _ = client.stream_events(job_id)
    assert events[-1]["event"] in TERMINAL, events
    return events[-1]


class TestDedicatedCore:
    """Once its pool is warm, a server simulates every wave in its own
    worker process; hits never touch the pool."""

    def test_healthz_pool_goes_ready_then_inline_after_drain(self, server):
        client = Client(server)
        deadline = time.time() + 60
        seen = []
        while not seen or seen[-1] != "ready":
            assert time.time() < deadline, seen
            seen.append(client.request("GET", "/healthz")[2]["pool"])
            time.sleep(0.01)
        assert set(seen) <= {"warming", "ready"}
        server.drain()
        assert client.request("GET", "/healthz")[2]["pool"] == "inline"

    def test_cold_job_runs_in_the_pool_once_ready(self, server):
        wait_pool_ready(server)
        client = Client(server)
        _, _, body = client.request("POST", "/jobs", JOB)
        final = _terminal(client, body["id"])
        assert final["event"] == "done"
        assert final["telemetry"]["pool.jobs_completed"] == 1
        assert final["telemetry"]["runner.jobs_inline"] == 0
        result = client.request("GET", "/jobs/%s/result" % body["id"])[2]
        assert result["result"]["payload"] == run_job(SimJob(**JOB))

    def test_cold_job_runs_inline_while_the_pool_warms(self, server, monkeypatch):
        monkeypatch.setattr(pool_mod.WorkerPool, "warm", property(lambda self: False))
        client = Client(server)
        assert client.request("GET", "/healthz")[2]["pool"] == "warming"
        _, _, body = client.request("POST", "/jobs", JOB)
        final = _terminal(client, body["id"])
        assert final["event"] == "done"
        assert final["telemetry"]["runner.jobs_inline"] == 1
        assert final["telemetry"]["pool.jobs_completed"] == 0
        result = client.request("GET", "/jobs/%s/result" % body["id"])[2]
        assert result["result"]["payload"] == run_job(SimJob(**JOB))

    def test_hit_during_a_pooled_wave_never_touches_the_pool(self, server):
        wait_pool_ready(server)
        client = Client(server)
        _, _, body = client.request("POST", "/jobs", JOB)
        assert _terminal(client, body["id"])["event"] == "done"
        # ~1 s of simulation in the worker: the hit lands well inside it.
        _, _, long_body = client.request(
            "POST", "/jobs", dict(JOB, tag="long", seed=12, duration_ns=ms(400))
        )
        sub = server.app.manager.submissions[long_body["id"]]
        deadline = time.time() + 60
        while not any(e.get("phase") == "start" for e in list(sub.events)):
            assert time.time() < deadline, "the long job never started"
            time.sleep(0.005)
        dispatched = counter("pool.jobs_dispatched")
        completed = counter("pool.jobs_completed")
        status, headers, _ = client.request("POST", "/jobs", JOB)
        assert (status, headers["X-Repro-Cache"]) == (200, "hit")
        assert counter("pool.jobs_dispatched") == dispatched
        assert counter("pool.jobs_completed") == completed
        assert client.request("GET", "/jobs/%s" % long_body["id"])[2]["state"] == "running"
        assert _terminal(client, long_body["id"])["event"] == "done"


    def test_fleet_driver_runs_on_the_servers_own_pool(self, tmp_path, monkeypatch):
        """A driver submission reuses the server's pool and cache: a
        ``--workers 2`` server never starts the process-wide pool
        beside it, the fleet's host results land in the server's cache
        directory and not in the process-wide one, and the result
        matches a direct registry run."""
        from repro.experiments import registry

        shared_calls = []
        monkeypatch.setattr(pool_mod, "shared_pool",
                            lambda workers: shared_calls.append(workers))
        process_cache = tmp_path / "process-cache"
        monkeypatch.setenv(cache.ENV_DIR, str(process_cache))
        monkeypatch.delenv(cache.ENV_TOGGLE, raising=False)
        server_cache = tmp_path / "cache"
        handle = start_in_thread(
            ServeConfig(port=0, workers=2, cache_dir=str(server_cache))
        )
        try:
            wait_pool_ready(handle)
            client = Client(handle)
            spec = {"experiment": "fleet", "hosts": 2, "epochs": 2,
                    "rate": 10.0, "scale": 0.02, "policies": ["first_fit"]}
            _, _, body = client.request("POST", "/experiments", spec)
            final = _terminal(client, body["id"])
            assert final["event"] == "done", final
            assert final["telemetry"]["pool.jobs_completed"] >= 1
            assert final["telemetry"]["runner.jobs_inline"] == 0
            assert shared_calls == []
            _, _, served = client.request("GET", "/jobs/%s/result" % body["id"])
        finally:
            handle.stop()
        assert final["telemetry"]["cache.stores"] >= 1, final["telemetry"]
        assert len(list(server_cache.glob("*.json"))) == final["telemetry"]["cache.stores"]
        assert not list(process_cache.glob("*.json"))
        _, text = registry.run("fleet", hosts=2, epochs=2, rate=10.0,
                               scale_override=0.02, policies=["first_fit"],
                               workers=1, cache=False)
        assert served["result"]["formatted"] == text


class TestWorkerCrashThroughServe:
    CRASHY = dict(JOB, tag="crashy", seed=31)

    def _server(self, tmp_path, monkeypatch, spec):
        # The hook is read in the worker, so it must be set before spawn.
        monkeypatch.setenv(pool_mod.ENV_TEST_CRASH, spec)
        handle = start_in_thread(
            ServeConfig(port=0, workers=1, cache_dir=str(tmp_path / "cache"))
        )
        wait_pool_ready(handle)
        return handle

    def test_one_crash_is_retried_and_the_job_completes(self, tmp_path, monkeypatch):
        handle = self._server(tmp_path, monkeypatch,
                              "crashy:%s" % (tmp_path / "crashed-once"))
        try:
            client = Client(handle)
            crashes = counter("pool.worker_crashes")
            _, _, body = client.request("POST", "/jobs", self.CRASHY)
            final = _terminal(client, body["id"])
            assert final["event"] == "done"
            assert counter("pool.worker_crashes") - crashes == 1
            result = client.request("GET", "/jobs/%s/result" % body["id"])[2]
            assert result["result"]["payload"] == run_job(SimJob(**self.CRASHY))
        finally:
            handle.stop()

    def test_poison_job_fails_and_the_server_keeps_serving(self, tmp_path, monkeypatch):
        handle = self._server(tmp_path, monkeypatch, "crashy")
        try:
            client = Client(handle)
            _, _, body = client.request("POST", "/jobs", JOB)
            assert _terminal(client, body["id"])["event"] == "done"

            _, _, body = client.request("POST", "/jobs", self.CRASHY)
            final = _terminal(client, body["id"])
            assert final["event"] == "failed"
            assert "died repeatedly" in final["error"]

            status, headers, _ = client.request("POST", "/jobs", JOB)
            assert (status, headers["X-Repro-Cache"]) == (200, "hit")
            _, _, body = client.request("POST", "/jobs", dict(JOB, seed=32))
            final = _terminal(client, body["id"])
            assert final["event"] == "done"
            assert final["telemetry"]["pool.jobs_completed"] == 1
            states = [row["state"] for row in client.request("GET", "/jobs")[2]["jobs"]]
            assert all(state in TERMINAL for state in states), states
        finally:
            handle.stop()

    def test_poison_fleet_host_fails_the_driver_and_the_server_keeps_serving(
            self, tmp_path, monkeypatch):
        handle = self._server(tmp_path, monkeypatch, "e00.h00")
        try:
            client = Client(handle)
            spec = {"experiment": "fleet", "hosts": 2, "epochs": 2,
                    "rate": 10.0, "scale": 0.02, "policies": ["first_fit"]}
            _, _, body = client.request("POST", "/experiments", spec)
            final = _terminal(client, body["id"])
            assert final["event"] == "failed"
            assert "died repeatedly" in final["error"]

            _, _, body = client.request("POST", "/jobs", JOB)
            assert _terminal(client, body["id"])["event"] == "done"
            states = [row["state"] for row in client.request("GET", "/jobs")[2]["jobs"]]
            assert len(states) == 2 and all(state in TERMINAL for state in states), states
        finally:
            handle.stop()


class TestCorruptEntryThroughServe:
    def test_same_length_garbage_under_a_hit_is_resimulated(self, server):
        """A hit's entry is overwritten in place by garbage of the same
        length, its mtime restored: the re-POST must see the bytes,
        re-simulate to ``done`` with the first answer, and leave every
        submission terminal."""
        client = Client(server)
        _, _, first = client.request("POST", "/jobs", JOB)
        assert _terminal(client, first["id"])["event"] == "done"
        status, headers, hit = client.request("POST", "/jobs", JOB)
        assert (status, headers["X-Repro-Cache"]) == (200, "hit")
        expected = client.request("GET", "/jobs/%s/result" % first["id"])[2]["result"]
        assert hit["result"] == expected

        key = cache.job_key(SimJob(**JOB))
        entry = Path(cache.entry_path(key, server.app.manager.cache_dir))
        before = entry.stat()
        entry.write_text("{" + "x" * (before.st_size - 1), encoding="utf-8")
        os.utime(entry, ns=(before.st_atime_ns, before.st_mtime_ns))
        corrupt = counter("cache.corrupt_entries")
        with pytest.warns(RuntimeWarning, match="corrupt"):
            status, headers, body = client.request("POST", "/jobs", JOB)
            assert (status, headers["X-Repro-Cache"]) == (202, "miss")
            final = _terminal(client, body["id"])
        assert final["event"] == "done"
        # Two probes read the garbage: the hit fast path, then the
        # wave's own probe; each counts once and neither is memoized.
        assert counter("cache.corrupt_entries") - corrupt == 2
        again = client.request("GET", "/jobs/%s/result" % body["id"])[2]["result"]
        assert again == expected
        assert json.loads(entry.read_text())["result"] == expected["payload"]
        states = [row["state"] for row in client.request("GET", "/jobs")[2]["jobs"]]
        assert len(states) == 3 and all(state in TERMINAL for state in states), states


class TestDrain:
    def test_drain_finishes_inflight_and_persists_telemetry(self, tmp_path):
        cache_dir = tmp_path / "cache"
        handle = start_in_thread(
            ServeConfig(port=0, workers=1, cache_dir=str(cache_dir))
        )
        try:
            client = Client(handle)
            _, _, body = client.request("POST", "/jobs", JOB)
            handle.drain()
            assert handle.app.admission.draining
            status, _, final = client.request("GET", "/jobs/%s" % body["id"])
            assert status == 200  # reads still served while draining
            assert final["state"] == "done"
            assert (cache_dir / "meta" / "telemetry.json").exists()
        finally:
            handle.stop()

    def test_sigterm_with_idle_keepalive_exits_cleanly(self, tmp_path):
        # SIGTERM lands while a wave runs in the server's worker process
        # and an idle keep-alive connection is open: the server must
        # finish the wave, end the connection, exit 0 without a
        # traceback, and leave no worker process behind (checked where
        # /proc lists processes).
        have_proc = os.path.isdir("/proc/self")
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--workers", "1"],
            cwd=str(tmp_path), env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )

        def call(method, path, body=None):
            one = http.client.HTTPConnection(host, int(port), timeout=30)
            try:
                one.request(method, path,
                            body=json.dumps(body) if body is not None else None)
                return json.loads(one.getresponse().read())
            finally:
                one.close()

        try:
            line = proc.stdout.readline()
            assert "listening on http://" in line, line
            host, port = line.split("http://")[1].split()[0].rsplit(":", 1)
            conn = http.client.HTTPConnection(host, int(port), timeout=30)
            conn.request("GET", "/healthz")
            resp = conn.getresponse()
            resp.read()
            assert resp.status == 200
            assert resp.getheader("Connection") == "keep-alive"

            deadline = time.time() + 60
            while call("GET", "/healthz")["pool"] != "ready":
                assert time.time() < deadline, "worker pool never warmed up"
                time.sleep(0.02)
            workers = _spawned_children(proc.pid) if have_proc else []
            assert len(workers) == int(have_proc), workers
            job_id = call("POST", "/jobs", dict(JOB, duration_ns=ms(300)))["id"]
            while call("GET", "/jobs/%s" % job_id)["state"] != "running":
                assert time.time() < deadline, "the wave never started"
                time.sleep(0.005)

            proc.send_signal(signal.SIGTERM)
            out, err = proc.communicate(timeout=60)
            conn.close()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0
        assert "Traceback" not in err, err
        assert "drained cleanly" in out, out
        assert not any(_running(pid) for pid in workers), workers


def _spawned_children(parent_pid):
    """PIDs of ``parent_pid``'s multiprocessing ``spawn`` workers (not
    its resource tracker), from ``/proc``."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open("/proc/%s/stat" % entry) as stat:
                ppid = int(stat.read().rsplit(")", 1)[1].split()[1])
            with open("/proc/%s/cmdline" % entry, "rb") as cmdline:
                argv = cmdline.read()
        except (OSError, IndexError, ValueError):
            continue
        if ppid == parent_pid and b"spawn_main" in argv:
            found.append(int(entry))
    return found


def _running(pid):
    """True while ``pid`` exists and is not a zombie."""
    try:
        with open("/proc/%d/stat" % pid) as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


@pytest.mark.slow
class TestSoak:
    def test_concurrent_mixed_clients_soak(self, tmp_path):
        """The acceptance soak: 8 concurrent clients for ≥30 s mixing
        cold, repeat, and invalid submissions plus event streams. Zero
        stuck submissions, every stream ends terminal, rejections are
        counted — never surfaced as errors."""
        handle = start_in_thread(
            ServeConfig(port=0, workers=1, cache_dir=str(tmp_path / "cache"),
                        max_queue_depth=32, max_inflight=4)
        )
        stop_at = time.time() + 31.0
        errors = []
        stats = {"cold": 0, "hit": 0, "invalid": 0, "rejected": 0, "streams": 0}
        lock = threading.Lock()
        submitted = []

        def client_loop(index):
            client = Client(handle, name="soak-%d" % index)
            round_no = 0
            try:
                while time.time() < stop_at:
                    round_no += 1
                    # Cold work: a seed this client has never used.
                    cold = dict(JOB, seed=1000 + index * 10_000 + round_no,
                                duration_ns=ms(1))
                    status, headers, body = client.request("POST", "/jobs", cold)
                    if status in (202, 200):
                        with lock:
                            submitted.append(body["id"])
                            stats["cold"] += 1
                        if round_no % 3 == 0:
                            events, _ = client.stream_events(body["id"])
                            assert events[-1]["event"] in TERMINAL
                            with lock:
                                stats["streams"] += 1
                        else:
                            client.wait_terminal(body["id"])
                    elif status == 429:
                        assert int(headers["Retry-After"]) >= 1
                        with lock:
                            stats["rejected"] += 1
                        time.sleep(0.05)
                    else:
                        raise AssertionError("unexpected status %d" % status)

                    # Repeat work: everyone resubmits the same point.
                    status, headers, body = client.request("POST", "/jobs", JOB)
                    if status == 200:
                        assert headers["X-Repro-Cache"] == "hit"
                        with lock:
                            stats["hit"] += 1
                    elif status == 202:
                        client.wait_terminal(body["id"])
                        with lock:
                            submitted.append(body["id"])
                    elif status == 429:
                        with lock:
                            stats["rejected"] += 1
                    else:
                        raise AssertionError("unexpected status %d" % status)

                    # Invalid work: must be a 400, never a submission.
                    status, _, _ = client.request(
                        "POST", "/jobs", dict(JOB, scenario="warp")
                    )
                    assert status == 400
                    with lock:
                        stats["invalid"] += 1
            except Exception as err:  # surfaced after join
                errors.append("client %d round %d: %r" % (index, round_no, err))

        threads = [
            threading.Thread(target=client_loop, args=(i,), daemon=True)
            for i in range(8)
        ]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=300)
            assert not any(thread.is_alive() for thread in threads), "client hung"
            assert errors == []

            # Nothing stuck: every submission the clients saw accepted
            # reaches a terminal state.
            client = Client(handle)
            deadline = time.time() + 60
            for job_id in submitted:
                status, _, body = client.request("GET", "/jobs/%s" % job_id)
                if status == 404:
                    continue  # evicted terminal history — fine
                while body["state"] not in TERMINAL:
                    assert time.time() < deadline, "stuck: %s" % job_id
                    time.sleep(0.05)
                    _, _, body = client.request("GET", "/jobs/%s" % job_id)

            counters = telemetry.snapshot()["counters"]
            rejected = sum(
                value for name, value in counters.items()
                if name.startswith("serve.admission.rejected")
            )
            assert rejected == stats["rejected"]
            assert stats["cold"] >= 8
            assert stats["hit"] >= 8
            assert stats["streams"] >= 1
            assert counters["serve.submissions.cache_fast_path"] >= stats["hit"]
        finally:
            handle.drain()
            handle.stop()
