"""Supervised execution of admitted jobs in crash-isolated workers.

The supervisor owns N **slot threads**.  Each slot pulls the next admitted
job from the :class:`~repro.service.queue.AdmissionQueue` and runs it in a
disposable ``multiprocessing.Process`` connected by a pipe — the service
twin of the sweep engine's round-harvest pool (PR 2), simplified to one
process per attempt:

* a worker that **crashes** (segfault, injected ``os._exit``) just closes
  the pipe; the parent sees EOF with no payload and types the attempt as
  ``worker_crash``;
* a worker that **hangs** past the per-job deadline is terminated (then
  killed) and the attempt is typed ``timeout``;
* failed attempts are retried up to ``retries`` times with exponential
  restart backoff — the supervisor never dies with its workers.

Where fork fails (``OSError``: fd or memory pressure), the attempt
degrades to in-thread execution labelled ``no_process_isolation:<exc>``:
no crash isolation and no enforceable deadline, but every job still
terminates with a typed outcome.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
import traceback
from multiprocessing.connection import Connection
from multiprocessing.process import BaseProcess
from typing import Any, Callable, Dict, List, Optional

from repro.core.integrity import Counters
from repro.service.backoff import sleep_backoff
from repro.service.config import ServiceConfig
from repro.service.degradation import (
    STAGE_ANALYTIC,
    STAGE_MEMSIM,
    DegradationPolicy,
)
from repro.service.handlers import execute_job
from repro.service.protocol import (
    STATUS_COMPLETED,
    JobOutcome,
    JobRequest,
    failure_outcome,
)
from repro.service.queue import AdmissionQueue, job_kind
from repro.validation.resilience import (
    FAILURE_SIMULATION_ERROR,
    FAILURE_TIMEOUT,
    FAILURE_WORKER_CRASH,
)


def _worker_main(conn: Connection, request: Dict[str, Any],
                 effective_backend: Optional[str],
                 shared_cache_dir: Optional[str] = None) -> None:
    """Worker process entry point: run the job, ship the outcome dict."""
    try:
        payload = execute_job(request, effective_backend,
                              shared_cache_dir=shared_cache_dir)
    except BaseException as exc:  # ship the traceback, don't lose it
        payload = {
            "ok": False,
            "error_kind": FAILURE_SIMULATION_ERROR,
            "error": f"{type(exc).__name__}: {exc}",
            "traceback": traceback.format_exc(limit=5),
        }
    try:
        conn.send(payload)
    except (BrokenPipeError, OSError):
        pass  # parent already gave up on us (deadline); nothing to report
    finally:
        conn.close()


class Supervisor:
    """Runs admitted jobs in supervised worker slots until stopped.

    ``on_outcome(request, outcome)`` is invoked exactly once per admitted
    job with its terminal outcome — the server's single source of truth
    for job state.
    """

    def __init__(
        self,
        config: ServiceConfig,
        queue: AdmissionQueue,
        policy: DegradationPolicy,
        on_outcome: Callable[[JobRequest, JobOutcome], None],
    ) -> None:
        self._config = config
        self._queue = queue
        self._policy = policy
        self._on_outcome = on_outcome
        self._threads: List[threading.Thread] = []
        self._stop = threading.Event()
        self._running_lock = threading.Lock()
        self._running: Dict[str, JobRequest] = {}
        self._ctx = multiprocessing.get_context("fork")
        self._counters = Counters(("restarts",))

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        for slot in range(self._config.workers):
            thread = threading.Thread(
                target=self._slot_loop, name=f"gmap-serve-slot-{slot}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def stop(self, wait: float = 5.0) -> None:
        """Stop pulling new jobs and join the slot threads."""
        self._stop.set()
        self._queue.close()
        deadline = time.monotonic() + wait
        for thread in self._threads:
            remaining = max(0.0, deadline - time.monotonic())
            thread.join(remaining)

    def running_jobs(self) -> List[JobRequest]:
        with self._running_lock:
            return list(self._running.values())

    @property
    def worker_restarts(self) -> int:
        """Total worker processes restarted after a crash/timeout."""
        return self._counters.snapshot()["restarts"]

    # -- slot loop ----------------------------------------------------------

    def _slot_loop(self) -> None:
        while not self._stop.is_set():
            request = self._queue.get(timeout=0.2)
            if request is None:
                if self._queue.closed:
                    return
                continue
            with self._running_lock:
                self._running[request.job_id] = request
            try:
                outcome = self._run_supervised(request)
            finally:
                with self._running_lock:
                    self._running.pop(request.job_id, None)
            self._on_outcome(request, outcome)

    def _run_supervised(self, request: JobRequest) -> JobOutcome:
        """One job to a terminal outcome: attempts, deadlines, backoff."""
        attempts_allowed = 1 + self._config.retries
        last: Optional[JobOutcome] = None
        # Simulation jobs exercise the array memsim engine, not the
        # profile/generate core — route them through the per-stage breaker
        # so each vectorized surface degrades (and recovers) independently.
        # Analytic simulate jobs get a third stage: their replay fallbacks
        # touch the backend far less often, so their breaker must not
        # share failure history with ordinary replay jobs.
        stage = None
        if request.kind == "simulate":
            stage = (STAGE_ANALYTIC if request.params.get("analytic")
                     else STAGE_MEMSIM)
        for attempt in range(1, attempts_allowed + 1):
            backend, demotion_reasons = self._policy.effective_backend(stage)
            started = time.monotonic()
            payload = self._run_attempt(request, backend)
            elapsed = time.monotonic() - started
            self._queue.note_job_seconds(elapsed, kind=job_kind(request))
            outcome = self._outcome_from_payload(payload, attempt)
            outcome.degraded_reasons = (
                demotion_reasons + outcome.degraded_reasons)
            outcome.degraded = bool(outcome.degraded_reasons)
            if outcome.status == STATUS_COMPLETED:
                self._policy.observe(
                    outcome.backend_used or backend,
                    payload.get("fallback_errors") or [],
                    stage=stage)
                return outcome
            self._policy.observe_job_failure(backend, stage=stage)
            last = outcome
            if attempt < attempts_allowed:
                self._counters.record("restarts")
                sleep_backoff(attempt, base=self._config.restart_backoff,
                              cap=5.0, wake=self._stop)
        assert last is not None
        return last

    def _run_attempt(self, request: JobRequest,
                     backend: Optional[str]) -> Dict[str, Any]:
        try:
            return self._run_in_process(request, backend)
        except OSError as exc:
            # Cannot fork (fd/memory pressure): degrade to in-thread
            # execution rather than failing the job outright.
            payload = self._run_in_thread(request, backend)
            reasons = payload.setdefault("degraded_reasons", [])
            reasons.append(f"no_process_isolation:{type(exc).__name__}")
            return payload

    def _run_in_process(self, request: JobRequest,
                        backend: Optional[str]) -> Dict[str, Any]:
        """One attempt in a disposable subprocess with a hard deadline."""
        parent_conn, child_conn = self._ctx.Pipe(duplex=False)
        proc = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, request.to_dict(), backend,
                  self._config.shared_cache_dir),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        try:
            if not parent_conn.poll(self._config.job_timeout):
                self._terminate(proc)
                return {
                    "ok": False,
                    "error_kind": FAILURE_TIMEOUT,
                    "error": (f"job exceeded its {self._config.job_timeout}s "
                              f"deadline"),
                }
            try:
                payload = parent_conn.recv()
            except (EOFError, OSError):
                payload = None
            if not isinstance(payload, dict):
                exitcode = proc.exitcode
                return {
                    "ok": False,
                    "error_kind": FAILURE_WORKER_CRASH,
                    "error": f"worker died without a result "
                             f"(exitcode={exitcode})",
                }
            return payload
        finally:
            parent_conn.close()
            self._reap(proc)

    def _run_in_thread(self, request: JobRequest,
                       backend: Optional[str]) -> Dict[str, Any]:
        """Fork-failure fallback: run the attempt on this slot thread.

        A chaos fault is never armed here: it would mutate the server's
        environment, and a crash fault would exit the server itself, so a
        fault-carrying request fails typed without running.
        """
        if request.fault:
            return {
                "ok": False,
                "error_kind": FAILURE_SIMULATION_ERROR,
                "error": "fault injection needs a worker process; "
                         "refused without process isolation",
            }
        try:
            return execute_job(
                request.to_dict(), backend,
                shared_cache_dir=self._config.shared_cache_dir)
        except BaseException as exc:
            return {
                "ok": False,
                "error_kind": FAILURE_SIMULATION_ERROR,
                "error": f"{type(exc).__name__}: {exc}",
            }

    # -- helpers ------------------------------------------------------------

    @staticmethod
    def _outcome_from_payload(payload: Dict[str, Any],
                              attempt: int) -> JobOutcome:
        if payload.get("ok"):
            return JobOutcome(
                status=STATUS_COMPLETED,
                result=payload.get("result"),
                degraded_reasons=list(payload.get("degraded_reasons") or []),
                degraded=bool(payload.get("degraded_reasons")),
                attempts=attempt,
                backend_used=payload.get("backend_used"),
                integrity_events=dict(payload.get("integrity_events") or {}),
            )
        return failure_outcome(
            payload.get("error_kind") or FAILURE_SIMULATION_ERROR,
            payload.get("error") or "unknown worker failure",
            attempts=attempt,
        )

    @staticmethod
    def _terminate(proc: BaseProcess) -> None:
        proc.terminate()
        proc.join(2.0)
        if proc.is_alive():
            proc.kill()
            proc.join(2.0)

    @staticmethod
    def _reap(proc: BaseProcess) -> None:
        proc.join(0.5)
        if proc.is_alive():
            proc.terminate()
            proc.join(1.0)
            if proc.is_alive():
                proc.kill()
                proc.join(1.0)
