"""The ``gmap serve`` service layer: admission, supervision, drain/resume.

Each mechanism is tested at its own seam — the queue and breaker as plain
objects with injected clocks, the protocol as pure functions, the whole
service through :class:`~repro.service.server.GmapService` without HTTP —
so failures localise.  Chaos-style end-to-end runs (real processes, real
faults, real listener) live in ``test_service_chaos.py``.
"""

from __future__ import annotations

import threading

import pytest

from repro.service.config import ENV_PREFIX, ServiceConfig
from repro.service.degradation import (
    STATE_CLOSED,
    STATE_HALF_OPEN,
    STATE_OPEN,
    CircuitBreaker,
    DegradationPolicy,
)
from repro.service.protocol import (
    JobOutcome,
    JobRequest,
    RequestValidationError,
    parse_json_body,
    validate_submission,
)
from repro.service.queue import (
    AdmissionQueue,
    QueueClosedError,
    QueueFullError,
    job_kind,
)
from repro.service.server import GmapService


def _wait_terminal(service, job_id, timeout=60.0):
    import time

    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        state = service.job_status(job_id)
        if state and state["status"] in ("completed", "failed"):
            return state
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} did not terminate in {timeout}s")


def _sim_payload(**extra):
    payload = {
        "kind": "simulate",
        "params": {"target": "vectoradd", "scale": "tiny", "cores": 2},
    }
    payload.update(extra)
    return payload


# -- config -----------------------------------------------------------------

class TestServiceConfig:
    def test_defaults_are_valid(self):
        config = ServiceConfig()
        assert config.workers >= 1
        assert config.queue_capacity >= 1

    @pytest.mark.parametrize("field_name,bad", [
        ("workers", 0), ("queue_capacity", 0),
        ("job_timeout", 0.0), ("retries", -1),
    ])
    def test_rejects_bad_values(self, field_name, bad):
        with pytest.raises(ValueError):
            ServiceConfig(**{field_name: bad})

    def test_from_env_reads_prefixed_variables(self, monkeypatch):
        monkeypatch.setenv(ENV_PREFIX + "WORKERS", "5")
        monkeypatch.setenv(ENV_PREFIX + "JOB_TIMEOUT", "7.5")
        monkeypatch.setenv(ENV_PREFIX + "JOURNAL", "no")
        config = ServiceConfig.from_env()
        assert config.workers == 5
        assert config.job_timeout == 7.5
        assert config.journal is False

    def test_explicit_overrides_beat_env(self, monkeypatch):
        monkeypatch.setenv(ENV_PREFIX + "WORKERS", "5")
        assert ServiceConfig.from_env(workers=3).workers == 3


# -- protocol ---------------------------------------------------------------

class TestProtocol:
    def test_request_roundtrip(self):
        request = JobRequest(job_id="j1", kind="simulate",
                             params={"target": "vectoradd"}, seq=7,
                             backend="python",
                             fault={"spec": "crash:*:*"})
        assert JobRequest.from_dict(request.to_dict()) == request

    def test_outcome_to_dict_omits_empty_fields(self):
        payload = JobOutcome(status="queued").to_dict()
        assert payload == {"status": "queued", "degraded": False,
                           "attempts": 0}

    def test_malformed_json_is_typed(self):
        with pytest.raises(RequestValidationError):
            parse_json_body(b"{nope")
        with pytest.raises(RequestValidationError):
            parse_json_body(b"\xff\xfe")

    @pytest.mark.parametrize("payload", [
        [],  # not an object
        {"kind": "launch_missiles"},
        {"kind": "simulate", "params": []},
        {"kind": "simulate", "params": {}},  # missing target
        {"kind": "profile", "params": {}},  # missing benchmark
        {"kind": "generate", "params": {}},  # missing profile
        {"kind": "validate", "params": {"experiment": "fig99"}},
        {"kind": "simulate", "params": {"target": "x"}, "backend": 3},
    ])
    def test_invalid_submissions_rejected(self, payload):
        with pytest.raises(RequestValidationError):
            validate_submission(payload, max_input_bytes=1 << 20)

    def test_fault_directive_needs_opt_in(self):
        payload = _sim_payload(fault={"spec": "crash:*:*"})
        with pytest.raises(RequestValidationError):
            validate_submission(payload, max_input_bytes=1 << 20)
        kind, params, backend, fault, priority = validate_submission(
            payload, max_input_bytes=1 << 20, allow_fault_injection=True)
        assert fault == {"spec": "crash:*:*"}
        assert priority == "interactive"

    def test_oversized_input_file_rejected_413(self, tmp_path):
        big = tmp_path / "big.trace"
        big.write_bytes(b"x" * 2048)
        payload = {"kind": "simulate", "params": {"target": str(big)}}
        with pytest.raises(RequestValidationError) as excinfo:
            validate_submission(payload, max_input_bytes=1024)
        assert excinfo.value.http_status == 413


# -- admission queue --------------------------------------------------------

class TestAdmissionQueue:
    def _request(self, seq=0):
        return JobRequest(job_id=f"j{seq}", kind="simulate", params={},
                          seq=seq)

    def test_fifo_order(self):
        queue = AdmissionQueue(capacity=4)
        for seq in range(3):
            queue.submit(self._request(seq))
        assert [queue.get(0.1).seq for _ in range(3)] == [0, 1, 2]

    def test_sheds_at_capacity_with_retry_hint(self):
        queue = AdmissionQueue(capacity=2, workers=1)
        queue.submit(self._request(0))
        queue.submit(self._request(1))
        with pytest.raises(QueueFullError) as excinfo:
            queue.submit(self._request(2))
        assert excinfo.value.retry_after >= 1.0
        assert queue.depth() == 2  # shedding never grows the queue

    def test_retry_hint_tracks_job_duration(self):
        queue = AdmissionQueue(capacity=8, workers=1)
        for _ in range(20):
            queue.note_job_seconds(10.0)
        for seq in range(4):
            queue.submit(self._request(seq))
        assert queue.retry_after_hint() > 10.0

    def test_closed_queue_rejects_and_drains(self):
        queue = AdmissionQueue(capacity=4)
        queue.submit(self._request(0))
        queue.close()
        with pytest.raises(QueueClosedError):
            queue.submit(self._request(1))
        assert [r.seq for r in queue.drain_remaining()] == [0]
        assert queue.get(0.05) is None

    def test_get_times_out(self):
        assert AdmissionQueue(capacity=1).get(0.05) is None

    def test_job_kind_splits_analytic_simulate(self):
        plain = JobRequest(job_id="a", kind="simulate", params={}, seq=0)
        fast = JobRequest(job_id="b", kind="simulate",
                          params={"analytic": True}, seq=1)
        other = JobRequest(job_id="c", kind="profile", params={}, seq=2)
        assert job_kind(plain) == "simulate"
        assert job_kind(fast) == "simulate:analytic"
        assert job_kind(other) == "profile"

    def test_per_kind_ewma_prices_backlog_item_by_item(self):
        # A millisecond analytic job queued behind a replay job must not be
        # priced at the fleet average: each backlog item carries its own
        # kind's EWMA, so est_wait reflects the actual queue composition.
        queue = AdmissionQueue(capacity=8, workers=1)
        queue.note_job_seconds(10.0, kind="simulate")
        queue.note_job_seconds(0.01, kind="simulate:analytic")
        queue.submit(JobRequest(job_id="a", kind="simulate", params={},
                                seq=0))
        queue.submit(JobRequest(job_id="b", kind="simulate",
                                params={"analytic": True}, seq=1))
        snapshot = queue.snapshot()
        by_kind = snapshot["avg_job_seconds_by_kind"]
        assert by_kind["simulate"] == pytest.approx(10.0)
        assert by_kind["simulate:analytic"] == pytest.approx(0.01)
        assert snapshot["est_wait_seconds"] == pytest.approx(10.01)
        assert snapshot["queue_depth_by_kind"] == {
            "simulate": 1, "simulate:analytic": 1}

    def test_unseen_kind_falls_back_to_fleet_average(self):
        queue = AdmissionQueue(capacity=8, workers=1)
        queue.note_job_seconds(4.0)  # fleet-wide only, no kind attributed
        queue.submit(JobRequest(job_id="a", kind="profile", params={},
                                seq=0))
        snapshot = queue.snapshot()
        assert snapshot["est_wait_seconds"] == \
            pytest.approx(snapshot["avg_job_seconds"])

    def test_get_unblocks_on_close(self):
        queue = AdmissionQueue(capacity=1)
        results = []
        thread = threading.Thread(
            target=lambda: results.append(queue.get(5.0)))
        thread.start()
        queue.close()
        thread.join(2.0)
        assert not thread.is_alive()
        assert results == [None]


# -- priority lanes ----------------------------------------------------------

class FakeClock:
    """Settable clock for aging-based dequeue decisions."""

    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestPriorityLanes:
    def _request(self, seq, lane="interactive"):
        return JobRequest(job_id=f"p{seq}", kind="simulate", params={},
                          seq=seq, priority=lane)

    def _fill(self, queue, interactive, bulk):
        seq = 0
        for _ in range(interactive):
            queue.submit(self._request(seq, "interactive"))
            seq += 1
        for _ in range(bulk):
            queue.submit(self._request(seq, "bulk"))
            seq += 1

    def test_weighted_dequeue_serves_burst_then_bulk(self):
        queue = AdmissionQueue(capacity=16, bulk_capacity=8)
        self._fill(queue, interactive=6, bulk=2)
        lanes = [queue.get(0.1).priority for _ in range(8)]
        # INTERACTIVE_BURST interactive jobs per bulk job while both wait.
        assert lanes == ["interactive"] * 4 + ["bulk"] + \
            ["interactive"] * 2 + ["bulk"]

    def test_single_lane_passthrough_is_fifo(self):
        queue = AdmissionQueue(capacity=8, bulk_capacity=8)
        for seq in range(3):
            queue.submit(self._request(seq, "bulk"))
        assert [queue.get(0.1).seq for _ in range(3)] == [0, 1, 2]

    def test_aged_bulk_head_jumps_the_weights(self):
        clock = FakeClock()
        queue = AdmissionQueue(capacity=16, bulk_capacity=8,
                               bulk_max_wait=30.0, clock=clock)
        queue.submit(self._request(0, "bulk"))
        clock.advance(31.0)  # the bulk head is now past the aging bound
        queue.submit(self._request(1, "interactive"))
        assert queue.get(0.1).priority == "bulk"
        assert queue.get(0.1).priority == "interactive"

    def test_bulk_sheds_at_its_own_capacity(self):
        queue = AdmissionQueue(capacity=10, bulk_capacity=2)
        self._fill(queue, interactive=0, bulk=2)
        with pytest.raises(QueueFullError) as excinfo:
            queue.submit(self._request(9, "bulk"))
        assert excinfo.value.lane == "bulk"
        assert excinfo.value.capacity == 2
        # Interactive still finds room: the total bound is not reached.
        queue.submit(self._request(10, "interactive"))

    def test_bulk_capacity_defaults_to_half_total(self):
        assert AdmissionQueue(capacity=10).bulk_capacity == 5
        assert AdmissionQueue(capacity=1).bulk_capacity == 1

    def test_total_capacity_sheds_interactive_too(self):
        queue = AdmissionQueue(capacity=2, bulk_capacity=1)
        self._fill(queue, interactive=2, bulk=0)
        with pytest.raises(QueueFullError) as excinfo:
            queue.submit(self._request(9, "interactive"))
        assert excinfo.value.lane == "interactive"

    def test_snapshot_reports_lane_depths(self):
        queue = AdmissionQueue(capacity=16, bulk_capacity=3)
        self._fill(queue, interactive=2, bulk=1)
        snapshot = queue.snapshot()
        assert snapshot["queue_depth_by_lane"] == {
            "interactive": 2, "bulk": 1}
        assert snapshot["bulk_capacity"] == 3

    def test_drain_returns_interactive_first(self):
        queue = AdmissionQueue(capacity=16, bulk_capacity=8)
        queue.submit(self._request(0, "bulk"))
        queue.submit(self._request(1, "interactive"))
        queue.close()
        assert [r.priority for r in queue.drain_remaining()] == \
            ["interactive", "bulk"]

    def test_validate_submission_rejects_unknown_priority(self):
        with pytest.raises(RequestValidationError, match="priority"):
            validate_submission(_sim_payload(priority="urgent"),
                                max_input_bytes=1 << 20)

    def test_request_priority_roundtrip(self):
        bulk = JobRequest.from_dict(_sim_payload(job_id="b",
                                                 priority="bulk"))
        assert bulk.priority == "bulk"
        assert JobRequest.from_dict(bulk.to_dict()).priority == "bulk"
        plain = JobRequest.from_dict(_sim_payload(job_id="p"))
        assert plain.priority == "interactive"
        assert "priority" not in plain.to_dict()


# -- circuit breaker --------------------------------------------------------

class TestCircuitBreaker:
    def test_opens_after_threshold_and_recovers(self):
        clock = [0.0]
        breaker = CircuitBreaker(failure_threshold=2, cooldown=10.0,
                                 clock=lambda: clock[0])
        assert breaker.state == STATE_CLOSED
        breaker.record_failure()
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == STATE_OPEN
        assert not breaker.allow()
        clock[0] = 11.0  # cooldown elapsed: exactly one probe allowed
        assert breaker.state == STATE_HALF_OPEN
        assert breaker.allow()
        assert not breaker.allow()
        breaker.record_success()
        assert breaker.state == STATE_CLOSED
        assert breaker.allow()

    def test_failed_probe_reopens(self):
        clock = [0.0]
        breaker = CircuitBreaker(failure_threshold=1, cooldown=5.0,
                                 clock=lambda: clock[0])
        breaker.record_failure()
        clock[0] = 6.0
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == STATE_OPEN

    def test_policy_default_backend_is_never_broken(self):
        policy = DegradationPolicy(backend="python", failure_threshold=1)
        for _ in range(5):
            policy.observe_job_failure("python")
        backend, reasons = policy.effective_backend()
        assert backend == "python"
        assert reasons == []

    def test_policy_demotes_with_open_circuit(self):
        pytest.importorskip("numpy", exc_type=ImportError)
        clock = [0.0]
        policy = DegradationPolicy(backend="numpy", failure_threshold=1,
                                   cooldown=100.0, clock=lambda: clock[0])
        assert policy.effective_backend()[0] == "numpy"
        policy.observe_job_failure("numpy")
        backend, reasons = policy.effective_backend()
        assert backend == "python"
        assert reasons == ["circuit_open:numpy"]
        assert policy.snapshot()["numpy"]["state"] == STATE_OPEN


# -- service lifecycle (no HTTP) -------------------------------------------

@pytest.fixture
def service(tmp_path):
    config = ServiceConfig(
        workers=1, queue_capacity=8, job_timeout=60.0, retries=0,
        journal=True, journal_dir=str(tmp_path / "journal"),
        run_id="test", drain_timeout=2.0, allow_fault_injection=True,
    )
    svc = GmapService(config)
    svc.start()
    yield svc
    svc.queue.close()
    svc.stop()


class TestGmapService:
    def test_simulate_job_completes(self, service):
        accepted = service.submit(_sim_payload())
        state = _wait_terminal(service, accepted["job_id"])
        assert state["status"] == "completed"
        assert state["degraded"] is False
        assert state["result"]["result"]["requests_issued"] > 0

    def test_unknown_job_is_none(self, service):
        assert service.job_status("nope") is None

    def test_invalid_submission_never_enqueued(self, service):
        with pytest.raises(RequestValidationError):
            service.submit({"kind": "simulate", "params": {}})
        assert service.queue.depth() == 0

    def test_profile_and_generate_roundtrip(self, service):
        accepted = service.submit({
            "kind": "profile",
            "params": {"benchmark": "vectoradd", "scale": "tiny"},
        })
        state = _wait_terminal(service, accepted["job_id"])
        assert state["status"] == "completed"
        profile = state["result"]["profile"]
        accepted = service.submit({
            "kind": "generate",
            "params": {"profile": profile, "seed": 7},
        })
        state = _wait_terminal(service, accepted["job_id"])
        assert state["status"] == "completed"
        assert state["result"]["transactions"] > 0

    def test_invalid_input_fails_typed(self, service):
        accepted = service.submit({
            "kind": "profile",
            "params": {"benchmark": "/nonexistent/input.trace"},
        })
        state = _wait_terminal(service, accepted["job_id"])
        assert state["status"] == "failed"
        assert state["error_kind"] in ("invalid_request", "simulation_error")

    def test_healthz_counters(self, service, monkeypatch):
        accepted = service.submit(_sim_payload())
        _wait_terminal(service, accepted["job_id"])

        def full(request):
            raise QueueFullError(8, 1.0)

        monkeypatch.setattr(service.queue, "submit", full)
        with pytest.raises(QueueFullError):
            service.submit(_sim_payload())
        health = service.healthz()
        assert health["status"] == "ok"
        counters = health["counters"]
        assert (counters["submitted"], counters["completed"],
                counters["shed"]) == (1, 1, 1)
        assert health["queue_capacity"] == 8

    def test_draining_service_rejects_503(self, service):
        service.drain()
        with pytest.raises(RequestValidationError) as excinfo:
            service.submit(_sim_payload())
        assert excinfo.value.http_status == 503

    def test_readyz_carries_load_telemetry(self, service):
        """The /readyz body is the fleet router's ranking input: it must
        expose queue depth, capacity, workers, and the duration EWMA."""
        ready = service.readyz()
        assert ready["ready"] is True
        assert ready["replica_id"] == "r0"
        assert ready["draining"] is False
        assert ready["queue_depth"] == 0
        assert ready["queue_capacity"] == 8
        assert ready["workers"] == 1
        assert ready["avg_job_seconds"] >= 0.0
        assert ready["est_wait_seconds"] >= 0.0

    def test_readyz_est_wait_prices_the_backlog(self, service):
        accepted = service.submit(_sim_payload())
        _wait_terminal(service, accepted["job_id"])
        for _ in range(10):
            service.queue.note_job_seconds(2.0)
        ready = service.readyz()
        assert ready["avg_job_seconds"] > 0.0
        # The snapshot must be internally consistent: est_wait is the
        # backlog priced at the EWMA spread across the workers.
        expected = (ready["queue_depth"] * ready["avg_job_seconds"]
                    / ready["workers"])
        assert ready["est_wait_seconds"] == pytest.approx(expected)

    def test_readyz_false_while_draining(self, service):
        service.drain()
        ready = service.readyz()
        assert ready["ready"] is False
        assert ready["draining"] is True


class TestDrainResume:
    def test_checkpointed_jobs_resume_under_original_ids(self, tmp_path):
        config = ServiceConfig(
            workers=1, queue_capacity=16, job_timeout=60.0,
            journal=True, journal_dir=str(tmp_path / "journal"),
            run_id="resume-test", drain_timeout=1.0,
        )
        first = GmapService(config)
        first.start()
        ids = [first.submit(_sim_payload())["job_id"] for _ in range(4)]
        summary = first.drain()
        first.stop()
        assert summary["checkpointed"] >= 1
        pending = [
            job_id for job_id in ids
            if first.job_status(job_id)["status"] == "checkpointed"
        ]
        assert len(pending) == summary["checkpointed"]

        second = GmapService(config)
        resumed = second.start()
        try:
            assert resumed == summary["checkpointed"]
            for job_id in pending:
                state = _wait_terminal(second, job_id)
                assert state["status"] == "completed"
            # Terminal checkpoints are discarded: a third boot is clean.
            second.drain()
        finally:
            second.stop()
        third = GmapService(config)
        try:
            assert third.start() == 0
        finally:
            third.queue.close()
            third.stop()

    def test_concurrent_server_on_same_journal_fails_fast(self, tmp_path):
        from repro.validation.resilience import JournalLockedError

        config = ServiceConfig(
            workers=1, journal=True,
            journal_dir=str(tmp_path / "journal"), run_id="locked",
        )
        first = GmapService(config)
        first.start()
        try:
            second = GmapService(config)
            with pytest.raises(JournalLockedError):
                second.start()
        finally:
            first.queue.close()
            first.stop()


class TestThreadIsolationFallback:
    def test_thread_mode_still_types_crashes(self, tmp_path, monkeypatch):
        """When fork fails, jobs run on the slot thread: a crash fault
        fails typed instead of exiting the server, and a clean job
        completes labelled ``no_process_isolation``."""
        config = ServiceConfig(
            workers=1, journal=False, retries=0, allow_fault_injection=True,
        )
        service = GmapService(config)

        def no_fork(proc):
            raise OSError("fork refused")

        monkeypatch.setattr(service.supervisor._ctx.Process, "start", no_fork)
        service.start()
        try:
            for spec in ("crash:*:*:always", "raise:*:*:always"):
                accepted = service.submit(_sim_payload(fault={
                    "spec": spec, "state": str(tmp_path / "state")}))
                state = _wait_terminal(service, accepted["job_id"])
                assert state["status"] == "failed"
                assert state["error_kind"] == "simulation_error"
            accepted = service.submit(_sim_payload())
            state = _wait_terminal(service, accepted["job_id"])
            assert state["status"] == "completed"
            assert "no_process_isolation:OSError" in state["degraded_reasons"]
        finally:
            service.queue.close()
            service.stop()


# -- counters -----------------------------------------------------------------

class TestCounters:
    def test_concurrent_records_lose_no_increment(self):
        import sys

        from repro.core.integrity import Counters

        counters = Counters(("hits",))
        threads = [threading.Thread(target=lambda: [counters.record("hits")
                                                    for _ in range(100_000)])
                   for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads mid read-modify-write
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert counters.snapshot() == {"hits": 8 * 100_000}

    def test_healthz_and_fleet_counter_keys(self):
        """``bench/serve.py`` and the chaos harness read these keys; each
        is present, at zero, before anything happened."""
        from repro.service.router import RouterCore

        service = GmapService(ServiceConfig(workers=1, queue_capacity=1))
        assert service.healthz()["counters"] == dict.fromkeys(
            ("submitted", "rejected", "shed", "completed", "failed",
             "degraded", "resumed"), 0)
        assert RouterCore([]).fleet_snapshot()["counters"] == dict.fromkeys(
            ("routed", "shed", "spilled", "reassigned", "routed_interactive",
             "routed_bulk", "recovered_terminal", "recovered_pending",
             "evicted_terminal", "registered"), 0)
