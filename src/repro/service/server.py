"""The ``gmap serve`` daemon: HTTP front end, drain, and resume.

Ties the service layer together around a single job table:

* **admit** — ``POST /jobs`` validates the submission (typed 400/413),
  sheds load when the bounded queue is full (429 with ``Retry-After``),
  and refuses new work while draining (503);
* **run** — the :class:`~repro.service.supervisor.Supervisor` executes
  admitted jobs in crash-isolated workers and reports exactly one
  terminal outcome per job;
* **degrade** — outcomes carry explicit ``degraded``/``degraded_reasons``
  (backend fallback, open circuit, rebuilt artifacts, partial sweeps);
* **drain** — SIGTERM (or ``POST /drain``) stops admission, waits
  ``drain_timeout`` for running jobs, then checkpoints every unfinished
  job to the PR 2 run journal;
* **resume** — the next boot re-admits checkpointed jobs under their
  original ids before opening the listener.

``/healthz`` is liveness plus degradation visibility (breaker states,
counters); ``/readyz`` is admission readiness (503 while draining or
with a full queue).
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time
import uuid
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Tuple

from repro.core.integrity import Counters
from repro.service.backoff import backoff_delay

from repro.service.config import ServiceConfig
from repro.service.degradation import DegradationPolicy
from repro.service.protocol import (
    STATUS_CHECKPOINTED,
    STATUS_COMPLETED,
    STATUS_QUEUED,
    JobOutcome,
    JobRequest,
    RequestValidationError,
    parse_json_body,
    validate_submission,
)
from repro.service.queue import AdmissionQueue, QueueClosedError, QueueFullError
from repro.service.supervisor import Supervisor
from repro.validation.resilience import (
    FAILURE_REJECTED,
    JournalLockedError,
    RunJournal,
)

#: Journal manifest marker distinguishing serve checkpoints from sweeps.
_CHECKPOINT_KIND = "gmap-serve-checkpoints"


class GmapService:
    """Lifecycle facade: build, start, submit, drain, stop.

    Usable without HTTP (the chaos harness and tests drive it directly);
    :class:`ServeHTTPServer` is a thin transport over it.
    """

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.queue = AdmissionQueue(
            config.queue_capacity, config.workers,
            bulk_capacity=config.bulk_capacity or None,
            bulk_max_wait=config.bulk_max_wait)
        self.policy = DegradationPolicy(
            backend=config.backend,
            failure_threshold=config.breaker_threshold,
            cooldown=config.breaker_cooldown,
        )
        self.supervisor = Supervisor(
            config, self.queue, self.policy, self._record_outcome)
        self._jobs_lock = threading.Lock()
        self._jobs: Dict[str, JobOutcome] = {}
        self._requests: Dict[str, JobRequest] = {}
        self._seq = 0
        self._draining = threading.Event()
        self._journal: Optional[RunJournal] = None
        #: job_id -> (kernel_index, config_offset) of its checkpoint entry.
        self._checkpointed: Dict[str, Tuple[int, int]] = {}
        self._counters = Counters((
            "submitted", "rejected", "shed",
            "completed", "failed", "degraded", "resumed",
        ))

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> int:
        """Open the journal, resume checkpointed jobs, start the workers.

        Returns the number of resumed jobs.
        """
        resumed = 0
        if self.config.journal:
            journal = RunJournal(self.config.run_id,
                                 journal_dir=self.config.journal_dir)
            journal.acquire_lock()  # fail fast on a concurrent server
            self._journal = journal
            if journal.load_manifest() is None:
                journal.ensure_manifest(
                    {"kind": _CHECKPOINT_KIND, "run_id": self.config.run_id,
                     "chunk_size": 1},
                    resume=False)
            resumed = self._resume_checkpoints(journal)
        self.supervisor.start()
        return resumed

    def _resume_checkpoints(self, journal: RunJournal) -> int:
        resumed = 0
        for path in journal.completed_chunks():
            parsed = journal.parse_entry_name(path)
            if parsed is None:
                continue
            kernel_index, config_offset = parsed
            entries = journal.load_chunk(kernel_index, config_offset, None)
            if not entries:
                continue
            for entry in entries:
                request_dict = entry.get("request")
                if not isinstance(request_dict, dict):
                    continue
                try:
                    request = JobRequest.from_dict(request_dict)
                except (KeyError, TypeError, ValueError):
                    continue
                with self._jobs_lock:
                    self._seq = max(self._seq, request.seq + 1)
                    self._requests[request.job_id] = request
                    self._jobs[request.job_id] = JobOutcome(
                        status=STATUS_QUEUED)
                    self._checkpointed[request.job_id] = (
                        kernel_index, config_offset)
                try:
                    self.queue.submit(request)
                except (QueueFullError, QueueClosedError):
                    # Keep the checkpoint: the job stays checkpointed on
                    # disk and will be retried on the next boot.
                    with self._jobs_lock:
                        self._jobs[request.job_id] = JobOutcome(
                            status=STATUS_CHECKPOINTED)
                    continue
                resumed += 1
                self._counters.record("resumed")
        return resumed

    def submit(self, payload: Any) -> Dict[str, Any]:
        """Admit one submission; raises typed errors for every refusal."""
        if self._draining.is_set():
            raise RequestValidationError(
                "server is draining; not accepting jobs",
                kind=FAILURE_REJECTED, http_status=503)
        kind, params, backend, fault, priority = validate_submission(
            payload,
            max_input_bytes=self.config.max_input_bytes,
            allow_fault_injection=self.config.allow_fault_injection,
        )
        with self._jobs_lock:
            seq = self._seq
            self._seq += 1
        job_id = str(payload.get("job_id") or uuid.uuid4())
        request = JobRequest(job_id=job_id, kind=kind, params=params,
                             seq=seq, backend=backend, fault=fault,
                             priority=priority)
        with self._jobs_lock:
            self._requests[job_id] = request
            self._jobs[job_id] = JobOutcome(status=STATUS_QUEUED)
        try:
            self.queue.submit(request)
        except (QueueFullError, QueueClosedError):
            with self._jobs_lock:
                self._jobs.pop(job_id, None)
                self._requests.pop(job_id, None)
            self._counters.record("shed")
            raise
        self._counters.record("submitted")
        return {"job_id": job_id, "status": STATUS_QUEUED, "seq": seq}

    def job_status(self, job_id: str) -> Optional[Dict[str, Any]]:
        with self._jobs_lock:
            outcome = self._jobs.get(job_id)
            if outcome is None:
                return None
            payload = outcome.to_dict()
            payload["job_id"] = job_id
            return payload

    def drain(self) -> Dict[str, Any]:
        """Stop admission, let running jobs finish, checkpoint the rest.

        Returns a summary: how many jobs finished during the drain window
        and how many were checkpointed for the next boot.
        """
        self._draining.set()
        self.queue.close()
        pending = self.queue.drain_remaining()
        self.supervisor.stop(wait=self.config.drain_timeout)
        leftover = self.supervisor.running_jobs()
        checkpointed = self._checkpoint_jobs(pending + leftover)
        return {
            "checkpointed": checkpointed,
            "still_running_at_deadline": len(leftover),
        }

    def _checkpoint_jobs(self, requests: List[JobRequest]) -> int:
        count = 0
        for request in requests:
            with self._jobs_lock:
                outcome = self._jobs.get(request.job_id)
                if outcome is not None and outcome.terminal:
                    continue  # finished while we were collecting
                self._jobs[request.job_id] = JobOutcome(
                    status=STATUS_CHECKPOINTED)
            if self._journal is not None:
                self._journal.record_chunk(
                    request.seq, 0, request.kind,
                    [{"config": request.job_id,
                      "request": request.to_dict()}],
                )
                with self._jobs_lock:
                    self._checkpointed[request.job_id] = (request.seq, 0)
            count += 1
        return count

    def stop(self) -> None:
        """Release resources after a drain (or for an abortive shutdown)."""
        self.supervisor.stop(wait=1.0)
        if self._journal is not None:
            self._journal.release_lock()

    # -- introspection ------------------------------------------------------

    def healthz(self) -> Dict[str, Any]:
        return {
            "status": "draining" if self._draining.is_set() else "ok",
            "replica_id": self.config.replica_id,
            "pid": os.getpid(),
            "queue_depth": self.queue.depth(),
            "queue_capacity": self.queue.capacity,
            "running": len(self.supervisor.running_jobs()),
            "worker_restarts": self.supervisor.worker_restarts,
            "breakers": self.policy.snapshot(),
            "counters": self._counters.snapshot(),
        }

    def ready(self) -> bool:
        return (not self._draining.is_set()
                and self.queue.depth() < self.queue.capacity)

    def readyz(self) -> Dict[str, Any]:
        """Admission readiness *with load telemetry*.

        The queue snapshot (depth, capacity, workers, fleet-wide and
        per-kind duration EWMAs) rides along so a fleet router can weigh
        replicas by expected wait instead of blind round-robin — the
        EWMAs are per-process, so this endpoint is the only place a
        sibling can observe them.  Per-kind averages let the router rank
        replicas for millisecond analytic jobs separately from
        seconds-scale replay simulations.
        """
        payload: Dict[str, Any] = {
            "ready": self.ready(),
            "replica_id": self.config.replica_id,
            "draining": self._draining.is_set(),
            "running": len(self.supervisor.running_jobs()),
        }
        payload.update(self.queue.snapshot())
        return payload

    def note_rejected(self) -> None:
        self._counters.record("rejected")

    # -- outcome sink -------------------------------------------------------

    def _record_outcome(self, request: JobRequest,
                        outcome: JobOutcome) -> None:
        # Counted before the outcome is published, so whoever sees the job
        # terminal also sees it counted.
        self._counters.record(
            "completed" if outcome.status == STATUS_COMPLETED else "failed")
        if outcome.degraded:
            self._counters.record("degraded")
        with self._jobs_lock:
            self._jobs[request.job_id] = outcome
            checkpoint = self._checkpointed.pop(request.job_id, None)
        # A resumed job that reached a terminal outcome no longer needs its
        # checkpoint entry; drop it so the next boot doesn't re-run it.
        if checkpoint is not None and self._journal is not None:
            self._journal.discard_chunk(*checkpoint)


class _ServeHandler(BaseHTTPRequestHandler):
    """Routes HTTP requests onto the owning :class:`GmapService`."""

    server_version = "gmap-serve"
    protocol_version = "HTTP/1.1"

    @property
    def service(self) -> GmapService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, fmt: str, *args: Any) -> None:
        pass  # quiet by default; operators use /healthz and /stats

    # -- helpers ------------------------------------------------------------

    def _send_json(self, status: int, payload: Dict[str, Any],
                   headers: Optional[Dict[str, str]] = None) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> bytes:
        length = int(self.headers.get("Content-Length") or 0)
        limit = self.service.config.max_request_bytes
        if length > limit:
            raise RequestValidationError(
                f"request body is {length} bytes, over the "
                f"{limit}-byte limit", http_status=413)
        return self.rfile.read(length)

    # -- routes -------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        if self.path == "/healthz":
            self._send_json(200, self.service.healthz())
            return
        if self.path == "/readyz":
            payload = self.service.readyz()
            self._send_json(200 if payload["ready"] else 503, payload)
            return
        if self.path.startswith("/jobs/"):
            job_id = self.path[len("/jobs/"):]
            payload = self.service.job_status(job_id)
            if payload is None:
                self._send_json(404, {"error": f"unknown job {job_id!r}",
                                      "error_kind": "invalid_request"})
            else:
                self._send_json(200, payload)
            return
        self._send_json(404, {"error": f"no route {self.path!r}",
                              "error_kind": "invalid_request"})

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        if self.path == "/jobs":
            try:
                body = self._read_body()
                payload = parse_json_body(body)
                accepted = self.service.submit(payload)
            except RequestValidationError as exc:
                self.service.note_rejected()
                self._send_json(exc.http_status, {
                    "error": str(exc), "error_kind": exc.kind,
                    "status": "rejected",
                })
                return
            except QueueFullError as exc:
                self._send_json(429, {
                    "error": str(exc), "error_kind": FAILURE_REJECTED,
                    "status": "rejected",
                    "retry_after": exc.retry_after,
                }, headers={"Retry-After": str(int(exc.retry_after) + 1)})
                return
            except QueueClosedError as exc:
                self._send_json(503, {
                    "error": str(exc), "error_kind": FAILURE_REJECTED,
                    "status": "rejected",
                })
                return
            self._send_json(202, accepted)
            return
        if self.path == "/drain":
            summary = self.service.drain()
            self._send_json(200, summary)
            threading.Thread(
                target=self.server.shutdown, daemon=True).start()
            return
        self._send_json(404, {"error": f"no route {self.path!r}",
                              "error_kind": "invalid_request"})


class JoinHeartbeat:
    """Fleet membership: periodic ``POST /register`` to a router.

    Started by ``gmap serve --join <router-url>``, which is also how the
    local children of ``gmap serve --replicas N`` join.  Each beat announces
    ``{replica_id, base_url, epoch}``; the epoch is minted once per
    process (wall-clock milliseconds at boot), so a *restarted* replica
    registers with a higher epoch and the router knows to requeue
    whatever it had assigned to the previous incarnation.  Re-sending on
    an interval doubles as the recovery path for a *router* restart: a
    fresh router (same URL, empty membership) re-learns every live
    replica within one heartbeat.

    Transport errors back off exponentially (capped at 4x the interval)
    instead of hammering a router that is mid-restart.
    """

    def __init__(
        self,
        router_url: str,
        replica_id: str,
        base_url: str,
        *,
        interval: float = 2.0,
        epoch: Optional[int] = None,
    ) -> None:
        self.router_url = router_url.rstrip("/")
        self.replica_id = replica_id
        self.base_url = base_url
        self.interval = interval
        self.epoch = epoch if epoch is not None else int(time.time() * 1000)
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name=f"gmap-join-{replica_id}", daemon=True)

    def start(self) -> "JoinHeartbeat":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)

    def register_once(self) -> bool:
        """One registration attempt; True when the router accepted it."""
        from repro.service.router import http_json

        try:
            status, _body = http_json(
                "POST", f"{self.router_url}/register",
                {"replica_id": self.replica_id, "base_url": self.base_url,
                 "epoch": self.epoch},
                timeout=5.0)
        except OSError:
            return False
        return status == 200

    def _run(self) -> None:
        failures = 0
        while not self._stop.is_set():
            if self.register_once():
                failures = 0
                delay = self.interval
            else:
                failures += 1
                delay = backoff_delay(
                    failures, base=min(self.interval, 0.5),
                    cap=self.interval * 4.0)
            self._stop.wait(delay)


class ServeHTTPServer(ThreadingHTTPServer):
    """Threaded listener: one handler thread per connection, all daemonic
    so a drain never waits on an idle keep-alive socket."""

    daemon_threads = True

    def __init__(self, service: GmapService) -> None:
        self.service = service
        super().__init__(
            (service.config.host, service.config.port), _ServeHandler)


def serve_forever(config: ServiceConfig) -> int:
    """Boot the daemon and block until SIGTERM/SIGINT drains it.

    Prints ``listening on http://host:port`` once ready (the CI job and
    the chaos harness wait for that line).  Returns a process exit code.
    """
    service = GmapService(config)
    try:
        resumed = service.start()
    except JournalLockedError as exc:
        print(f"gmap serve: error [rejected] {exc}")
        return 2
    httpd = ServeHTTPServer(service)
    host, port = httpd.server_address[:2]

    def _drain_signal(_signum: int, _frame: object) -> None:
        threading.Thread(target=_drain_and_shutdown, daemon=True).start()

    def _drain_and_shutdown() -> None:
        service.drain()
        httpd.shutdown()

    signal.signal(signal.SIGTERM, _drain_signal)
    signal.signal(signal.SIGINT, _drain_signal)
    heartbeat: Optional[JoinHeartbeat] = None
    if config.join:
        heartbeat = JoinHeartbeat(
            config.join, config.replica_id, f"http://{host}:{port}",
            interval=config.join_interval).start()
    if resumed:
        print(f"resumed {resumed} checkpointed job(s)", flush=True)
    print(f"listening on http://{host}:{port}", flush=True)
    try:
        httpd.serve_forever(poll_interval=0.2)
    finally:
        if heartbeat is not None:
            heartbeat.stop()
        httpd.server_close()
        service.stop()
    return 0
