"""Always-on auction service: gateway, engine, warm caches, backends.

Pins the daemon's contracts (``docs/SERVICE.md``):

1. **Lifecycle over HTTP** — submit / status / versioned report /
   metrics round-trip through the hand-rolled asyncio gateway.
2. **Concurrent-job determinism** — the same (n, m, seed) job submitted
   twice concurrently (and once cold, once warm) yields bit-identical
   outcomes and Table 1 counters, and both run reports validate; the
   only divergence is ``cache_stats`` (warm jobs hit more), which is
   the documented by-design exception.
3. **Reject path** — malformed submissions get a structured 400 with
   field-level errors and the queue is untouched; an over-long request
   line or header line gets a 400, and a stalled request is closed after
   the gateway's read deadline, with no exception escaping the handler.
4. **Per-job backends** — two queued jobs requesting different
   arithmetic backends both get what they asked for, even though
   ``DMW_BACKEND`` is only read at import (the daemon routes selection
   through ``using_backend()`` per job).
5. **Warm-cache store semantics** — entries survive between jobs keyed
   by group, eviction clears the group's fixed-base tables.
6. **Metrics endpoint** — the canonical series plus the job histogram.
7. **Pool jobs start cold** — the warm store never crosses the process
   boundary: a pool job's work units, ``cache_stats`` and ``warm`` flag
   are the same on a fresh daemon and a warmed one.
8. **Terminal-state publication** — a record reads ``done`` only once
   ``finished_at`` is stamped.
"""

import json
import os
import socket
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from repro.crypto import backend as crypto_backend
from repro.crypto import fastexp
from repro.crypto.groups import fixture_group
from repro.obs.export import parse_prometheus, validate_run_report
from repro.service import (AuctionService, JobValidationError, ServiceGateway,
                           WarmCacheStore, parse_job)
from repro.service.engine import JobRecord  # noqa: F401 - re-export check


# ---------------------------------------------------------------------------
# Harness: one service + gateway per test that needs HTTP
# ---------------------------------------------------------------------------

class _Client:
    def __init__(self, port, loop_errors):
        self.port = port
        self.base = "http://127.0.0.1:%d" % port
        #: Contexts passed to the gateway loop's exception handler.
        self.loop_errors = loop_errors

    def raw(self, data, timeout=5.0):
        """Send raw bytes; return everything read until the server closes."""
        with socket.create_connection(("127.0.0.1", self.port),
                                      timeout=timeout) as sock:
            sock.sendall(data)
            chunks = []
            while True:
                chunk = sock.recv(1 << 16)
                if not chunk:
                    return b"".join(chunks)
                chunks.append(chunk)

    def get(self, path):
        try:
            with urllib.request.urlopen(self.base + path, timeout=30) as r:
                body = r.read()
                kind = r.headers.get("Content-Type", "")
                return r.status, (json.loads(body) if "json" in kind
                                  else body.decode())
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read())

    def post(self, path, document):
        data = json.dumps(document).encode()
        request = urllib.request.Request(
            self.base + path, data=data,
            headers={"Content-Type": "application/json"})
        try:
            with urllib.request.urlopen(request, timeout=30) as r:
                return r.status, json.loads(r.read())
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read())


@pytest.fixture
def service():
    service = AuctionService(warm_capacity=4, pool_workers=2)
    yield service
    service.close()


@pytest.fixture
def client(service):
    import asyncio

    gateway = ServiceGateway(service)
    loop = asyncio.new_event_loop()
    loop_errors = []

    def record_error(loop, context):
        loop_errors.append(context)
        loop.default_exception_handler(context)

    loop.set_exception_handler(record_error)
    started = threading.Event()

    def run():
        loop.run_until_complete(gateway.start())
        started.set()
        loop.run_forever()
        loop.run_until_complete(gateway.stop())
        loop.run_until_complete(loop.shutdown_asyncgens())
        loop.close()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert started.wait(10)
    yield _Client(gateway.port, loop_errors)
    loop.call_soon_threadsafe(loop.stop)
    thread.join(10)
    assert loop.is_closed()


JOB = {"agents": 5, "tasks": 3, "seed": 7}


def _signature(report):
    """The bit-identity surface: outcome + Table 1 counters."""
    return {
        "schedule": report["schedule"],
        "payments": report["payments"],
        "totals": report["totals"],
        "params": report["params"],
    }


# ---------------------------------------------------------------------------
# 1. Lifecycle over HTTP
# ---------------------------------------------------------------------------

class TestGatewayLifecycle:
    def test_submit_status_report_roundtrip(self, service, client):
        status, health = client.get("/healthz")
        assert (status, health["status"]) == (200, "ok")
        status, record = client.post("/jobs", JOB)
        assert status == 202
        assert record["state"] == "queued"
        job_id = record["id"]
        assert service.wait_idle(120)
        status, record = client.get("/jobs/" + job_id)
        assert status == 200
        assert record["state"] == "done"
        assert record["completed"] is True
        assert record["duration_s"] > 0
        status, report = client.get("/jobs/%s/report" % job_id)
        assert status == 200
        validate_run_report(report)
        assert report["version"] == 5

    def test_unknown_routes_and_methods(self, service, client):
        assert client.get("/jobs/nope")[0] == 404
        assert client.get("/bogus")[0] == 404
        status, _ = client.post("/healthz", {})
        assert status == 405

    def test_report_conflict_until_finished(self, service, client):
        status, record = client.post("/jobs", JOB)
        assert status == 202
        # Queued or running either way: the report is not served early.
        status, body = client.get("/jobs/%s/report" % record["id"])
        assert status in (200, 409)
        assert service.wait_idle(120)
        status, _ = client.get("/jobs/%s/report" % record["id"])
        assert status == 200


# ---------------------------------------------------------------------------
# 2. Concurrent-job determinism + warm/cold bit-identity
# ---------------------------------------------------------------------------

class TestDeterminism:
    def test_concurrent_same_job_bit_identical(self, service, client):
        results = []

        def submit():
            results.append(client.post("/jobs", JOB))

        threads = [threading.Thread(target=submit) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert [status for status, _ in results] == [202, 202]
        assert service.wait_idle(120)
        ids = sorted(record["id"] for _, record in results)
        reports = []
        for job_id in ids:
            status, report = client.get("/jobs/%s/report" % job_id)
            assert status == 200
            validate_run_report(report)
            reports.append(report)
        assert _signature(reports[0]) == _signature(reports[1])

    def test_warm_vs_cold_bit_identical(self, service):
        cold = service.submit(JOB)
        warm = service.submit(JOB)
        assert service.wait_idle(120)
        assert (cold.state, warm.state) == ("done", "done")
        assert cold.warm is False
        assert warm.warm is True
        validate_run_report(cold.report)
        validate_run_report(warm.report)
        assert _signature(cold.report) == _signature(warm.report)
        # Outcome-level bit identity: schedule, payments, per-agent
        # Table 1 counter snapshots.
        assert cold.outcome.schedule.assignment == \
            warm.outcome.schedule.assignment
        assert cold.outcome.payments == warm.outcome.payments
        assert cold.outcome.agent_operations == \
            warm.outcome.agent_operations
        # The documented divergence: the warm job serves lookups from
        # the seeded entries, so it hits strictly more.
        assert warm.cache_stats["hits"] > cold.cache_stats["hits"]

    def test_matches_direct_protocol_run(self, service):
        record = service.submit(JOB)
        assert service.wait_idle(120)
        import random

        from repro.core.agent import DMWAgent
        from repro.core.parameters import DMWParameters
        from repro.core.protocol import DMWProtocol
        from repro.scheduling import workloads

        parameters = DMWParameters.generate(5, fault_bound=1)
        problem = workloads.random_discrete(5, 3, parameters.bid_values,
                                            random.Random(7))
        master = random.Random(8)
        agents = [DMWAgent(i, parameters,
                           [int(problem.time(i, j)) for j in range(3)],
                           rng=random.Random(master.getrandbits(64)))
                  for i in range(5)]
        outcome = DMWProtocol(parameters, agents).execute(3)
        assert record.outcome.schedule.assignment == \
            outcome.schedule.assignment
        assert record.outcome.payments == outcome.payments
        assert record.outcome.agent_operations == outcome.agent_operations

    def test_pool_mode_matches_sequential(self, service):
        sequential = service.submit(JOB)
        pooled = service.submit({**JOB, "mode": "pool", "workers": 2})
        pooled_again = service.submit({**JOB, "mode": "pool", "workers": 2})
        assert service.wait_idle(300)
        assert sequential.state == "done", sequential.error
        assert pooled.state == "done", pooled.error
        assert pooled_again.state == "done", pooled_again.error
        assert pooled.outcome.schedule.assignment == \
            sequential.outcome.schedule.assignment
        assert pooled.outcome.payments == sequential.outcome.payments
        assert pooled.outcome.agent_operations == \
            sequential.outcome.agent_operations
        # The resident executor served both pool jobs.
        assert pooled.outcome.parallelism["workers"] == 2
        assert pooled_again.outcome.agent_operations == \
            pooled.outcome.agent_operations


# ---------------------------------------------------------------------------
# 3. Reject path: structured 4xx, queue untouched
# ---------------------------------------------------------------------------

class TestRejectPath:
    @pytest.mark.parametrize("payload, field", [
        ({"agents": 2, "tasks": 3, "seed": 1}, "agents"),
        ({"agents": 5, "tasks": 0, "seed": 1}, "tasks"),
        ({"agents": 5, "tasks": 3}, "seed"),
        ({"agents": 5, "tasks": 3, "seed": 1, "mode": "warp"}, "mode"),
        ({"agents": 5, "tasks": 3, "seed": 1, "backend": "abacus"},
         "backend"),
        ({"agents": 5, "tasks": 3, "seed": 1, "group_size": "galactic"},
         "group_size"),
        ({"agents": 5, "tasks": 3, "seed": 1, "surprise": True},
         "surprise"),
        ({"agents": 5, "tasks": 3, "seed": 1, "times": [[1]]}, "times"),
    ])
    def test_malformed_submission_structured_400(self, service, client,
                                                 payload, field):
        before = len(service.jobs())
        status, body = client.post("/jobs", payload)
        assert status == 400
        assert body["error"] == "invalid_job"
        assert field in {entry["field"] for entry in body["detail"]}
        assert len(service.jobs()) == before  # queue untouched

    def test_non_json_body_rejected(self, service, client):
        request = urllib.request.Request(
            client.base + "/jobs", data=b"not json",
            headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400

    @pytest.mark.parametrize("request_bytes", [
        b"GET /healthz HTTP/1.1\r\nX-Padding: " + b"a" * 70000
        + b"\r\n\r\n",
        b"GET /" + b"a" * 70000 + b" HTTP/1.1\r\n\r\n",
    ], ids=["long_header", "long_path"])
    def test_over_long_line_gets_400(self, service, client, request_bytes):
        reply = client.raw(request_bytes)
        assert reply.startswith(b"HTTP/1.1 400 ")
        body = json.loads(reply.split(b"\r\n\r\n", 1)[1])
        assert body["error"] == "line_too_long"
        assert client.loop_errors == []
        assert client.get("/healthz")[0] == 200

    def test_stalled_request_is_closed(self, service, client, monkeypatch):
        monkeypatch.setattr("repro.service.gateway.REQUEST_TIMEOUT_S", 0.2)
        started = time.monotonic()
        reply = client.raw(b"POST /jobs HTTP/1.1\r\n"
                           b"Content-Length: 100\r\n\r\n{")
        assert reply == b""
        assert time.monotonic() - started < 2.0
        assert service.jobs() == []
        assert client.loop_errors == []
        assert client.get("/healthz")[0] == 200

    def test_read_deadline_costs_no_task_per_request(self, service):
        # The deadline is a timer on the connection: the read runs in the
        # handler's own task, not in one more task (whose start and end
        # would each cost an event-loop pass).
        import asyncio

        from repro.service import gateway as gateway_module

        loop = asyncio.new_event_loop()
        created = []

        def factory(loop, coro, **kwargs):
            # The loop's own accept tasks are not the gateway's.
            if coro.cr_code.co_filename == gateway_module.__file__:
                created.append(coro.__qualname__)
            return asyncio.Task(coro, loop=loop, **kwargs)

        gateway = ServiceGateway(service)
        loop.run_until_complete(gateway.start())
        loop.set_task_factory(factory)
        thread = threading.Thread(target=loop.run_forever, daemon=True)
        thread.start()
        try:
            client = _Client(gateway.port, [])
            for _ in range(3):
                assert client.get("/healthz")[0] == 200
        finally:
            loop.call_soon_threadsafe(loop.stop)
            thread.join(10)
            loop.set_task_factory(None)
            loop.run_until_complete(gateway.stop())
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.close()
        assert created == ["ServiceGateway._handle"] * 3

    def test_parse_job_errors_carry_every_field(self):
        with pytest.raises(JobValidationError) as excinfo:
            parse_job({"agents": 1, "tasks": -2})
        fields = {entry["field"] for entry in excinfo.value.errors}
        assert {"agents", "tasks", "seed"} <= fields


# ---------------------------------------------------------------------------
# 4. Per-job arithmetic backend selection
# ---------------------------------------------------------------------------

class TestPerJobBackend:
    def test_two_jobs_two_backends(self, service, monkeypatch):
        # The container has only the python engine; register a named
        # clone so two *different* names are selectable.
        class AltBackend(crypto_backend.PythonBackend):
            name = "python-alt"

        monkeypatch.setitem(crypto_backend._FACTORIES, "python-alt",
                            AltBackend)
        monkeypatch.setattr(
            crypto_backend, "available_backends",
            lambda: ["python", "python-alt"])
        first = service.submit({**JOB, "backend": "python"})
        second = service.submit({**JOB, "backend": "python-alt"})
        assert service.wait_idle(120)
        assert first.state == "done", first.error
        assert second.state == "done", second.error
        assert first.report["provenance"]["arithmetic_backend"] == "python"
        assert second.report["provenance"]["arithmetic_backend"] == \
            "python-alt"
        # The daemon's ambient engine is restored between jobs.
        assert crypto_backend.ACTIVE.name == "python"
        # Backends never change computed values.
        assert first.outcome.agent_operations == \
            second.outcome.agent_operations
        assert first.outcome.schedule.assignment == \
            second.outcome.schedule.assignment


# ---------------------------------------------------------------------------
# 5. Warm-cache store semantics
# ---------------------------------------------------------------------------

class TestWarmCacheStore:
    def _parameters(self, size):
        from repro.core.parameters import DMWParameters
        return DMWParameters.generate(5, group_parameters=None,
                                      group_size=size)

    def test_entries_survive_and_stats_stay_per_job(self):
        store = WarmCacheStore(capacity=2)
        parameters = self._parameters("tiny")
        cold = store.cache_for(parameters)
        assert store.warm(parameters) is False
        cold.put_evaluation(("k",), ("v",))
        cold.get_evaluation(("k",))
        store.absorb(parameters, cold)
        assert store.warm(parameters) is True
        warm = store.cache_for(parameters)
        # Entries came across, counters did not.
        assert warm.get_evaluation(("k",)) == ("v",)
        assert warm.hits == 1 and warm.misses == 0

    def test_eviction_clears_fixed_base_tables(self):
        store = WarmCacheStore(capacity=1)
        tiny = self._parameters("tiny")
        small = self._parameters("small")
        fastexp.clear_fixed_base_tables()
        # Touch both groups' generator tables.
        tiny.group_parameters.exp_z1(3)
        small.group_parameters.exp_z1(3)
        tiny_p = tiny.group_parameters.group.p
        entries = fastexp.fixed_base_table_stats()["entries"]
        assert entries >= 2
        store.absorb(tiny, store.cache_for(tiny))
        store.absorb(small, store.cache_for(small))  # evicts tiny
        assert store.stats()["evictions"] == 1
        remaining = fastexp.TABLE_CACHE._tables
        assert not any(key[1] == tiny_p for key in remaining)

    def test_group_key_distinguishes_fixtures(self):
        from repro.service.warmcache import group_key
        assert group_key(fixture_group("tiny")) != \
            group_key(fixture_group("small"))
        assert group_key(fixture_group("tiny")) == \
            group_key(fixture_group("tiny"))


# ---------------------------------------------------------------------------
# 6. Metrics endpoint
# ---------------------------------------------------------------------------

class TestMetricsEndpoint:
    def test_canonical_series_and_histogram(self, service, client):
        status, _ = client.post("/jobs", JOB)
        assert status == 202
        assert service.wait_idle(120)
        status, text = client.get("/metrics")
        assert status == 200
        samples = parse_prometheus(text)
        names = {name for name, _ in samples}
        for name in ("dmw_service_jobs_total", "dmw_service_queue_depth",
                     "dmw_service_job_duration_seconds_bucket",
                     "dmw_service_job_duration_seconds_count",
                     "dmw_warm_cache_groups", "dmw_warm_cache_entries",
                     "dmw_fixed_base_table_entries",
                     "dmw_fixed_base_table_hits",
                     "dmw_run_completed", "dmw_network_messages_total",
                     "dmw_agent_operations_total",
                     "dmw_cache_events_total"):
            assert name in names, "missing %s" % name
        # The latency histogram carries mode/cache labels per job class.
        assert any(name == "dmw_service_job_duration_seconds_count"
                   and dict(labels).get("cache") == "cold"
                   for name, labels in samples)


# ---------------------------------------------------------------------------
# 7. Pool jobs start cold
# ---------------------------------------------------------------------------

POOL_JOB = {**JOB, "mode": "pool", "workers": 2}


def _run(service, job):
    record = service.submit(job)
    assert service.wait_idle(300)
    assert record.state == "done", record.error
    return record


def _warm_store(service, jobs=4):
    """Sequential jobs on POOL_JOB's group, its own instance first."""
    for offset in range(jobs):
        record = _run(service, {**JOB, "seed": JOB["seed"] + offset})
    assert record.warm is True
    assert service.store.stats()["entries"] > 0


class TestPoolJobsStartCold:
    def test_work_unit_size_does_not_grow_with_the_store(self, service,
                                                         monkeypatch):
        import pickle

        import repro.parallel as parallel_mod

        drive = parallel_mod._drive_pool
        sizes = []

        def capture(protocol, pool, spec, remaining, *rest):
            sizes.append([len(pickle.dumps((spec, task)))
                          for task in remaining])
            return drive(protocol, pool, spec, remaining, *rest)

        monkeypatch.setattr(parallel_mod, "_drive_pool", capture)
        _run(service, POOL_JOB)
        _warm_store(service)
        _run(service, POOL_JOB)
        cold, warmed = sizes
        assert len(cold) == JOB["tasks"]
        assert warmed == cold

    def test_warmed_daemon_runs_pool_jobs_cold_and_says_so(self, service):
        cold = _run(service, POOL_JOB)
        _warm_store(service)
        warmed = _run(service, POOL_JOB)
        assert cold.warm is False and warmed.warm is False
        assert warmed.cache_stats == cold.cache_stats
        assert _signature(warmed.report) == _signature(cold.report)
        assert warmed.outcome.agent_operations == \
            cold.outcome.agent_operations


# ---------------------------------------------------------------------------
# 8. Terminal-state publication
# ---------------------------------------------------------------------------

class TestTerminalStatePublication:
    def test_finished_at_is_stamped_before_the_state_turns_done(
            self, service, monkeypatch):
        import time

        from repro.service import engine

        reads = []

        class StateProbe:
            """The engine's clock: every wall-clock read also records the
            state of the job being stamped (read without the lock, as the
            gateway reads it)."""

            def __getattr__(self, name):
                return getattr(time, name)

            def time(self):
                record = service._jobs.get("job-1")
                reads.append(None if record is None else record.state)
                return float(len(reads))

        monkeypatch.setattr(engine, "time", StateProbe())
        record = _run(service, JOB)
        assert record.finished_at is not None
        assert reads[int(record.finished_at) - 1] == "running"
