"""End-to-end service tests: HTTP, dedup, backpressure, degradation, chaos.

The heavyweight acceptance test of the PR: an experiment submitted to a
chaos-ridden service — workers killed mid-simulation, resumed from
checkpoints — must produce a report byte-identical to the plain serial
``run_experiment`` call, with and without the hardware sanitizer.
"""

from __future__ import annotations

import pytest

from repro.experiments.runner import run_experiment
from repro.service import (
    ChaosPolicy,
    ServiceClient,
    ServiceConfig,
    SimulationService,
    serve_in_thread,
)
from repro.service.jobs import JobSpec

#: Cheap grid experiment (runs parallel_simulate, ~0.1 s quick).
FAST_GRID = "ext-slotsize"


@pytest.fixture(scope="module")
def handle():
    with serve_in_thread(
        ServiceConfig(port=0, workers=2, queue_limit=4)
    ) as live:
        yield live


@pytest.fixture(scope="module")
def client(handle):
    return ServiceClient(handle.url)


class TestHttpSurface:
    def test_health(self, client):
        document = client.health()
        assert document["status"] in ("ok", "degraded")
        assert document["workers"] == 2

    def test_submit_wait_then_cache_hit(self, client):
        status, first = client.submit(FAST_GRID, wait=True)
        assert status == 200
        assert first["status"] == "done"
        assert first["source"] == "fresh"
        assert first["tasks_executed"] > 0
        assert "report" in first["result"]

        status, second = client.submit(FAST_GRID, wait=True)
        assert status == 200
        assert second["cache_hit"] is True
        assert second["tasks_executed"] == 0
        assert second["result"]["report"] == first["result"]["report"]

    def test_get_job_by_id(self, client):
        _, submitted = client.submit("table1", wait=True)
        status, fetched = client.job(submitted["id"])
        assert status == 200
        assert fetched["id"] == submitted["id"]
        assert fetched["status"] == "done"

    def test_unknown_job_404(self, client):
        status, document = client.job("job-999999")
        assert status == 404
        assert "error" in document

    def test_bad_experiment_400(self, client):
        status, document, _ = client.request(
            "POST", "/v1/jobs", {"experiment": "not-an-experiment"}
        )
        assert status == 400
        assert "unknown experiment" in document["error"]

    def test_non_json_body_400(self, client):
        import http.client as hc

        connection = hc.HTTPConnection(client.host, client.port, timeout=30)
        try:
            connection.request("POST", "/v1/jobs", body=b"{not json")
            response = connection.getresponse()
            assert response.status == 400
        finally:
            connection.close()

    def test_unknown_route_404_and_bad_method_405(self, client):
        assert client.request("GET", "/nope")[0] == 404
        assert client.request("DELETE", "/v1/jobs")[0] == 405

    def test_stats_and_metrics_documents(self, client):
        stats = client.stats()
        assert stats["queue_limit"] == 4
        assert "pool" in stats and "breaker" in stats
        document = client.metrics()
        # The document must be loadable by repro.telemetry's report path.
        from repro.telemetry.metrics import MetricsRegistry

        registry = MetricsRegistry()
        registry.merge_state(document["metrics"])
        assert registry.value("service_jobs_total") > 0


class TestAdmissionControl:
    def test_queue_overflow_rejected_with_retry_after(self):
        # Service constructed but *not started*: the runner never drains,
        # so admission fills deterministically.
        service = SimulationService(
            ServiceConfig(port=0, workers=1, queue_limit=2)
        )
        try:
            specs = [{"experiment": "table2", "seed": seed} for seed in (1, 2, 3)]
            first = service.submit(specs[0])
            second = service.submit(specs[1])
            assert first.status == 202 and second.status == 202
            third = service.submit(specs[2])
            assert third.status == 429
            assert float(third.headers["Retry-After"]) > 0.0
            assert third.body["retry_after"] > 0.0
        finally:
            service.close()

    def test_coalescing_same_spec_shares_one_job(self):
        service = SimulationService(
            ServiceConfig(port=0, workers=1, queue_limit=2)
        )
        try:
            admitted = service.submit({"experiment": "table3"})
            coalesced = service.submit({"experiment": "table3"})
            assert admitted.status == 202
            assert coalesced.record is admitted.record
            assert admitted.record.requests == 2
            # Coalescing does not consume queue slots: a *different* spec
            # still fits in the second slot.
            other = service.submit({"experiment": "table4"})
            assert other.status == 202
        finally:
            service.close()


class TestNumpyBatchTasks:
    def test_fresh_grid_job_counts_one_task_per_config(self, tmp_path):
        """A numpy-backed grid runs as fused batch tasks, one per worker,
        yet the job reports one executed task per simulated config."""
        pytest.importorskip("numpy")
        from repro.kernel.bench import bench_grids

        grid = bench_grids(quick=True)["figure3"]
        with serve_in_thread(
            ServiceConfig(port=0, workers=2, data_dir=tmp_path)
        ) as live:
            client = ServiceClient(live.url)
            status, document = client.submit("figure3", wait=True)
            assert status == 200, document
            assert document["source"] == "fresh"
            assert document["tasks_executed"] == len(grid)
            assert client.stats()["pool"]["tasks_completed"] == 2
            serial = run_experiment("figure3", quick=True).render()
            assert document["result"]["report"] == serial


class TestDegradationLadder:
    def test_breaker_open_serves_analytic_prediction(self, handle, client):
        breaker = handle.service.breaker
        for _ in range(breaker.failure_threshold):
            breaker.record_failure()
        try:
            status, document = client.submit("figure3", seed=424242, wait=True)
            assert status == 200
            assert document["source"] == "analytic"
            result = document["result"]
            assert result["degraded"] is True
            assert result["mode"] == "analytic"
            assert result["prediction"]["model"] == "markov"
        finally:
            breaker.record_success()

    def test_breaker_open_prefers_stale_over_analytic(self, handle, client):
        service = handle.service
        spec = JobSpec.from_payload({"experiment": "figure1", "seed": 777})
        # A result computed under some older source tree: present in the
        # stale map, absent from the exact-key cache.
        service._stale[spec.stale_key()] = {
            "experiment": "figure1",
            "report": "old but honest",
        }
        breaker = service.breaker
        for _ in range(breaker.failure_threshold):
            breaker.record_failure()
        try:
            status, document = client.submit("figure1", seed=777, wait=True)
            assert status == 200
            assert document["source"] == "stale"
            assert document["result"]["degraded"] is True
            assert document["result"]["report"] == "old but honest"
        finally:
            breaker.record_success()

    def test_exact_cache_hit_wins_even_when_breaker_open(self, handle, client):
        status, fresh = client.submit(FAST_GRID, wait=True)
        assert status == 200
        breaker = handle.service.breaker
        for _ in range(breaker.failure_threshold):
            breaker.record_failure()
        try:
            status, document = client.submit(FAST_GRID, wait=True)
            assert status == 200
            assert document.get("cache_hit") is True
            assert not document["result"].get("degraded")
        finally:
            breaker.record_success()


class TestChaosByteIdentity:
    """The PR's acceptance property, as a test."""

    def test_chaos_run_matches_serial_with_and_without_sanitizer(
        self, monkeypatch, tmp_path
    ):
        serial = run_experiment(FAST_GRID, quick=True).render()
        chaos = ChaosPolicy(
            kill_probability=0.6,
            kill_after_s=(0.0, 0.05),
            max_injections_per_task=2,
        )
        for sanitize in (False, True):
            if sanitize:
                monkeypatch.setenv("REPRO_SANITIZE", "1")
            else:
                monkeypatch.delenv("REPRO_SANITIZE", raising=False)
            with serve_in_thread(
                ServiceConfig(
                    port=0,
                    workers=2,
                    chaos=chaos,
                    checkpoint_every=100,
                    data_dir=tmp_path / f"sanitize-{sanitize}",
                )
            ) as live:
                status, document = ServiceClient(live.url).submit(
                    FAST_GRID, wait=True
                )
                assert status == 200, document
                assert document["status"] == "done"
                assert document["result"]["report"] == serial

    def test_killed_simulation_recovers_byte_identically(self, tmp_path):
        """Explicit mid-run worker kills: resume, not recompute, and the
        recovery is visible in the supervisor's counters."""
        serial = run_experiment("table6", quick=True).render()
        chaos = ChaosPolicy(
            kill_probability=0.5,
            kill_after_s=(0.05, 0.3),
            max_injections_per_task=2,
        )
        with serve_in_thread(
            ServiceConfig(
                port=0,
                workers=2,
                chaos=chaos,
                checkpoint_every=200,
                data_dir=tmp_path / "chaos",
            )
        ) as live:
            client = ServiceClient(live.url)
            status, document = client.submit("table6", wait=True)
            assert status == 200, document
            assert document["result"]["report"] == serial
            pool_stats = client.stats()["pool"]
            assert pool_stats["worker_restarts"] >= 1
            assert pool_stats["tasks_retried"] >= 1
