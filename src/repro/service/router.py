"""Fleet front door: sticky routing, failover, and job reassignment.

The router is the only address clients see.  It owns three responsibilities
the single-replica server cannot:

* **placement** — submissions are routed *sticky by pipeline key*
  (rendezvous hashing over the routable replicas), so identical jobs land
  on the same replica and coalesce in its in-process caches before they
  even reach the fleet-shared single-flight tier.  Side-effecting jobs
  (chaos faults, ``output`` params) skip stickiness and go to the replica
  with the shortest estimated queue wait instead;
* **failover** — a replica that refuses connections is skipped mid-submit
  (spill to the next candidate in rendezvous order) and marked suspect for
  the :class:`RouterMonitor` to confirm;
* **reassignment** — the router records every accepted job's payload.
  When the monitor declares a replica down, or the replica re-registers
  after a restart, the router resubmits that replica's non-terminal jobs
  (same ``job_id``) to a healthy one.  The shared cache's single flight
  (an ``fcntl`` lock or a lease file, see ``--shared-cache-lock``) makes
  the resubmission safe: if the dead replica already built the artifact
  the resubmitted job is a cache hit, and a mid-build death releases the
  build lock (with the process, or when its lease expires), so exactly
  one live builder proceeds.

The router holds *no* job results of its own beyond a bounded in-memory
cache of terminal outcomes — replicas stay the source of truth for running
jobs.  With a ``--state-dir`` the cache is additionally backed by the
durable :class:`~repro.service.outcome_store.OutcomeStore`: every
placement and terminal outcome is appended to a checksummed log, so a
SIGKILLed router restarts (or a second router starts against the same
state dir) with zero lost terminal outcomes and reassigns the in-flight
jobs it recovers.  Terminal records are evicted from memory after a TTL
(or past a count bound) and served from the store afterwards, so a
long-running router no longer leaks one record per job forever.

Membership has one path, whether the replicas are the local children of
``gmap serve --replicas N`` or ``gmap serve --join <router-url>`` processes
on other hosts: each replica announces ``{replica_id, base_url, epoch}``
on ``POST /register`` and repeats it as a heartbeat.  A first
registration or a higher epoch (the replica restarted) makes the replica
routable; a higher epoch also requeues everything the previous
incarnation held.  The :class:`RouterMonitor` is the only prober: it
reads ``/readyz`` (health plus the queue telemetry that prices backlog),
demotes a replica after consecutive failed probes, and promotes it again
only when a probe succeeds.
"""

from __future__ import annotations

import hashlib
import http.client
import itertools
import json
import threading
import time
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.shared_cache import job_key
from repro.service.outcome_store import OutcomeStore
from repro.service.protocol import (
    FAILURE_INVALID_REQUEST,
    FAILURE_REJECTED,
    PRIORITY_BULK,
    PRIORITY_INTERACTIVE,
    TERMINAL_STATUSES,
)

#: Per-request HTTP timeout toward a replica, seconds.  Short: anything
#: slower than this is effectively down for routing purposes.
REPLICA_TIMEOUT = 5.0


def http_json(
    method: str,
    url: str,
    body: Optional[Dict[str, Any]] = None,
    timeout: float = REPLICA_TIMEOUT,
) -> Tuple[int, Dict[str, Any]]:
    """One JSON request/response exchange; raises OSError family on
    transport failure, returns (status, parsed body) otherwise."""
    data = None if body is None else json.dumps(body).encode()
    req = urllib.request.Request(url, data=data, method=method)
    if data is not None:
        req.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read().decode() or "{}")
    except urllib.error.HTTPError as exc:
        raw = exc.read().decode() if exc.fp else ""
        try:
            payload = json.loads(raw) if raw else {}
        except json.JSONDecodeError:
            payload = {"error": raw}
        return exc.code, payload
    except http.client.HTTPException as exc:
        # A peer dying mid-response surfaces as IncompleteRead /
        # BadStatusLine — transport death, not an HTTP answer.  Normalise
        # to the OSError family every caller already treats as "peer down".
        raise ConnectionError(f"{type(exc).__name__}: {exc}") from exc


class ReplicaEndpoint:
    """Runtime view of one replica, keyed by its ``replica_id``.

    :meth:`register` (the ``--join`` handshake) writes the base URL and
    epoch, the :class:`RouterMonitor` writes liveness and telemetry, and
    router handler threads read them when ranking candidates.
    ``base_url`` is None until the replica first registers.
    """

    def __init__(self, replica_id: str) -> None:
        self.replica_id = replica_id
        self._lock = threading.Lock()
        self._base_url: Optional[str] = None
        self._healthy = False
        self._parked = False
        self._consecutive_failures = 0
        self._telemetry: Dict[str, Any] = {}
        self._restarts = 0
        self._epoch = 0

    # -- membership and monitor-side updates ---------------------------------

    def register(self, base_url: str, epoch: int) -> bool:
        """Record a ``--join`` (re-)registration.

        Returns True when the epoch advanced past a previously registered
        one — i.e. the replica process restarted and its old assignments
        are orphaned.  A first registration or a higher epoch marks the
        endpoint routable immediately (the replica only announces itself
        once it is listening).  A same-epoch heartbeat only refreshes the
        URL: health, the failure count and parking stay the monitor's, so
        a replica it demoted stays out of rotation until a probe succeeds.
        """
        with self._lock:
            first = self._base_url is None
            if not first and epoch < self._epoch:
                return False  # a straggler that lost the race to a newer one
            rejoined = not first and epoch > self._epoch
            self._base_url = base_url
            if first or rejoined:
                self._epoch = epoch
                self._healthy = True
                self._parked = False
                self._consecutive_failures = 0
            if rejoined:
                self._restarts += 1
                self._telemetry = {}
        return rejoined

    @property
    def epoch(self) -> int:
        with self._lock:
            return self._epoch

    def mark_healthy(self, telemetry: Dict[str, Any]) -> None:
        with self._lock:
            self._healthy = True
            self._consecutive_failures = 0
            self._telemetry = dict(telemetry)

    def mark_probe_failed(self, threshold: int) -> bool:
        """Record one failed health probe; True once the replica crosses
        ``threshold`` consecutive failures (transition to down)."""
        with self._lock:
            self._consecutive_failures += 1
            was_healthy = self._healthy
            if self._consecutive_failures >= threshold:
                self._healthy = False
            return was_healthy and not self._healthy

    def mark_parked(self) -> None:
        """Out of rotation until a restarted process registers again: the
        supervisor stopped restarting it (flap budget spent)."""
        with self._lock:
            self._parked = True
            self._healthy = False

    # -- router-side reads ---------------------------------------------------

    @property
    def base_url(self) -> Optional[str]:
        with self._lock:
            return self._base_url

    @property
    def routable(self) -> bool:
        with self._lock:
            return (self._healthy and not self._parked
                    and self._base_url is not None)

    def est_wait_seconds(self) -> float:
        with self._lock:
            try:
                return float(self._telemetry.get("est_wait_seconds", 0.0))
            except (TypeError, ValueError):
                return 0.0

    def est_wait_seconds_for(self, kind: Optional[str]) -> float:
        """Expected wait for a job of ``kind`` on this replica: backlog
        drain time plus the job's own expected service time from the
        replica's per-kind duration EWMA.

        A replica that has been serving millisecond analytic jobs ranks
        ahead of an equally-idle sibling whose history for the kind is
        seconds-scale replay; replicas that never saw the kind fall back
        to their fleet-wide average, and malformed telemetry degrades to
        the plain backlog estimate.
        """
        backlog = self.est_wait_seconds()
        if kind is None:
            return backlog
        with self._lock:
            by_kind = self._telemetry.get("avg_job_seconds_by_kind")
            source = by_kind if isinstance(by_kind, dict) else {}
            service = source.get(kind,
                                 self._telemetry.get("avg_job_seconds", 0.0))
        try:
            return backlog + float(service)
        except (TypeError, ValueError):
            return backlog

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "replica_id": self.replica_id,
                "base_url": self._base_url,
                "healthy": self._healthy,
                "parked": self._parked,
                "consecutive_probe_failures": self._consecutive_failures,
                "restarts": self._restarts,
                "epoch": self._epoch,
                "telemetry": dict(self._telemetry),
            }


class _JobRecord:
    __slots__ = ("payload", "replica_id", "terminal", "reassignments",
                 "settled_at")

    def __init__(self, payload: Dict[str, Any],
                 replica_id: Optional[str]) -> None:
        self.payload = payload
        self.replica_id = replica_id
        self.terminal: Optional[Dict[str, Any]] = None
        self.reassignments = 0
        self.settled_at: Optional[float] = None


class RouterCore:
    """Placement, failover, and reassignment logic (HTTP-free, testable).

    ``store`` (optional) makes job state durable; ``terminal_ttl`` /
    ``max_terminal`` bound the in-memory table — terminal records past
    either bound are evicted and, when a store exists, served from it.
    Non-terminal records are never evicted: they are the reassignment
    work-list.  ``clock`` is injectable (monotonic seconds) for tests.
    """

    def __init__(
        self,
        endpoints: List[ReplicaEndpoint],
        *,
        store: Optional[OutcomeStore] = None,
        terminal_ttl: float = 3600.0,
        max_terminal: int = 4096,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self._endpoints = endpoints
        self._endpoints_lock = threading.Lock()
        self._by_id: Dict[str, ReplicaEndpoint] = {
            ep.replica_id: ep for ep in endpoints
        }
        self._store = store
        self.terminal_ttl = terminal_ttl
        self.max_terminal = max_terminal
        self._clock = clock
        self._jobs: Dict[str, _JobRecord] = {}
        self._jobs_lock = threading.Lock()
        self._seq = itertools.count()
        self._counters = {
            "routed": 0, "shed": 0, "spilled": 0, "reassigned": 0,
            "routed_interactive": 0, "routed_bulk": 0,
            "recovered_terminal": 0, "recovered_pending": 0,
            "evicted_terminal": 0, "registered": 0,
        }
        if store is not None:
            self._recover_from_store(store)

    def _recover_from_store(self, store: OutcomeStore) -> None:
        """Rebuild the job table from the durable log on startup.

        Terminal outcomes become servable records immediately; pending
        jobs become reassignment candidates (their recorded replica may be
        long dead — :meth:`reassign_orphans` and ``lookup`` both requeue
        them once something routable exists).
        """
        now = self._clock()
        with self._jobs_lock:
            for job_id, stored in store.jobs().items():
                if job_id in self._jobs:
                    continue
                record = _JobRecord(stored.payload, stored.replica_id)
                if stored.terminal is not None:
                    record.terminal = dict(stored.terminal)
                    record.settled_at = now
                    self._counters["recovered_terminal"] += 1
                else:
                    self._counters["recovered_pending"] += 1
                self._jobs[job_id] = record

    # -- candidate ranking ---------------------------------------------------

    def _routable(self) -> List[ReplicaEndpoint]:
        with self._endpoints_lock:
            endpoints = list(self._endpoints)
        return [ep for ep in endpoints if ep.routable]

    def endpoint(self, replica_id: Optional[str]) -> Optional[
            ReplicaEndpoint]:
        """The member registered as ``replica_id``, if any."""
        if replica_id is None:
            return None
        with self._endpoints_lock:
            return self._by_id.get(replica_id)

    def endpoints(self) -> List[ReplicaEndpoint]:
        """A point-in-time copy of the membership list."""
        with self._endpoints_lock:
            return list(self._endpoints)

    @staticmethod
    def _rendezvous_order(
        key: str, candidates: List[ReplicaEndpoint]
    ) -> List[ReplicaEndpoint]:
        """Highest-random-weight order: stable per key, and removing one
        replica only remaps that replica's keys (minimal disruption)."""
        def weight(ep: ReplicaEndpoint) -> str:
            return hashlib.sha256(
                f"{key}|{ep.replica_id}".encode()).hexdigest()
        return sorted(candidates, key=weight, reverse=True)

    def candidates_for(self, payload: Dict[str, Any]) -> List[
            ReplicaEndpoint]:
        """Replicas to try, best first; empty when nothing is routable."""
        routable = self._routable()
        if not routable:
            return []
        params = payload.get("params")
        params = params if isinstance(params, dict) else {}
        sticky = payload.get("fault") is None and "output" not in params
        if not sticky:
            kind = str(payload.get("kind") or "")
            if kind == "simulate" and params.get("analytic"):
                kind = "simulate:analytic"
            return sorted(routable,
                          key=lambda ep: ep.est_wait_seconds_for(kind))
        key = job_key(str(payload.get("kind")), params,
                      payload.get("backend"))
        return self._rendezvous_order(key, routable)

    # -- submission ----------------------------------------------------------

    def submit(self, payload: Any) -> Tuple[int, Dict[str, Any]]:
        if not isinstance(payload, dict):
            return 400, {"error": "request body must be a JSON object",
                         "error_kind": FAILURE_INVALID_REQUEST}
        payload = dict(payload)
        job_id = str(payload.get("job_id") or f"fleet-{next(self._seq):08d}")
        payload["job_id"] = job_id
        candidates = self.candidates_for(payload)
        if not candidates:
            return 503, {"error": "no routable replicas",
                         "error_kind": FAILURE_REJECTED, "job_id": job_id}
        return self._place(job_id, payload, candidates)

    def _place(
        self,
        job_id: str,
        payload: Dict[str, Any],
        candidates: List[ReplicaEndpoint],
    ) -> Tuple[int, Dict[str, Any]]:
        shed_response: Optional[Tuple[int, Dict[str, Any]]] = None
        tried = 0
        for endpoint in candidates:
            base = endpoint.base_url
            if base is None:
                continue
            tried += 1
            try:
                status, body = http_json("POST", f"{base}/jobs", payload)
            except OSError:
                endpoint.mark_probe_failed(threshold=1)
                with self._jobs_lock:
                    self._counters["spilled"] += 1
                continue
            if status == 202:
                lane = (PRIORITY_BULK
                        if payload.get("priority") == PRIORITY_BULK
                        else PRIORITY_INTERACTIVE)
                with self._jobs_lock:
                    record = self._jobs.get(job_id)
                    if record is None:
                        self._jobs[job_id] = _JobRecord(
                            payload, endpoint.replica_id)
                    else:  # reassignment path keeps the original payload
                        record.replica_id = endpoint.replica_id
                    self._counters["routed"] += 1
                    self._counters[f"routed_{lane}"] += 1
                if self._store is not None:
                    self._store.record_assignment(
                        job_id, payload, endpoint.replica_id)
                body.setdefault("job_id", job_id)
                body["replica"] = endpoint.replica_id
                return 202, body
            if status == 429:
                # At capacity — a *healthy* refusal; spill sideways and
                # keep the largest Retry-After if everyone sheds.
                shed_response = (status, body)
                with self._jobs_lock:
                    self._counters["spilled"] += 1
                continue
            # Typed refusal (400 invalid, 503 draining...): authoritative.
            if status == 503:
                shed_response = (status, body)
                continue
            body.setdefault("job_id", job_id)
            return status, body
        if shed_response is not None:
            with self._jobs_lock:
                self._counters["shed"] += 1
            status, body = shed_response
            body.setdefault("job_id", job_id)
            return status, body
        return 503, {"error": f"all {tried} routable replicas unreachable",
                     "error_kind": FAILURE_REJECTED, "job_id": job_id}

    # -- lookup --------------------------------------------------------------

    def lookup(self, job_id: str) -> Tuple[int, Dict[str, Any]]:
        with self._jobs_lock:
            record = self._jobs.get(job_id)
        if record is None:
            record = self._recall(job_id)
        if record is None:
            return 404, {"error": f"unknown job {job_id!r}",
                         "error_kind": FAILURE_INVALID_REQUEST}
        if record.terminal is not None:
            return 200, dict(record.terminal)
        endpoint = self.endpoint(record.replica_id)
        base = endpoint.base_url if endpoint is not None else None
        if endpoint is not None and base is not None:
            try:
                status, body = http_json("GET", f"{base}/jobs/{job_id}")
            except OSError:
                status, body = 0, {}
            if status == 200:
                if body.get("status") in TERMINAL_STATUSES:
                    self._settle(job_id, record, body)
                body["replica"] = endpoint.replica_id
                return 200, body
        # Replica gone, unreachable, or lost the job (restart): resubmit
        # under the same id so the client's handle stays valid.
        requeued = self._reassign_record(job_id, record)
        if requeued:
            return 200, {"job_id": job_id, "status": "queued",
                         "reassigned": True}
        return 200, {"job_id": job_id, "status": "queued",
                     "reassigned": False,
                     "note": "awaiting a routable replica"}

    def _recall(self, job_id: str) -> Optional[_JobRecord]:
        """Rehydrate an unknown id from the durable store, if any.

        Covers two cases: a terminal record this router already evicted
        from memory, and a job recorded by a peer/predecessor router
        sharing the state dir.  Rehydrated non-terminal jobs re-enter the
        table so the normal poll/reassign machinery picks them up.
        """
        if self._store is None:
            return None
        stored = self._store.lookup(job_id, refresh=True)
        if stored is None:
            return None
        record = _JobRecord(stored.payload, stored.replica_id)
        if stored.terminal is not None:
            record.terminal = dict(stored.terminal)
            return record  # served straight from the store; stays evicted
        with self._jobs_lock:
            record = self._jobs.setdefault(job_id, record)
        return record

    def _settle(
        self, job_id: str, record: _JobRecord, body: Dict[str, Any]
    ) -> None:
        """Cache a terminal outcome, persist it, and run eviction."""
        outcome = dict(body)
        if self._store is not None:
            self._store.record_terminal(job_id, outcome)
        now = self._clock()
        with self._jobs_lock:
            if record.terminal is None:
                record.terminal = outcome
                record.settled_at = now
            self._evict_terminal_locked(now)

    def _evict_terminal_locked(self, now: float) -> None:
        """Drop terminal records past the TTL or the count bound.

        Non-terminal records are never touched — they are the in-flight
        work-list.  With a durable store the evicted outcomes remain
        servable through :meth:`_recall`; without one, eviction trades
        very-late lookups of old jobs for a bounded footprint.
        """
        settled = [(record.settled_at, job_id)
                   for job_id, record in self._jobs.items()
                   if record.terminal is not None
                   and record.settled_at is not None]
        expired = [job_id for settled_at, job_id in settled
                   if now - settled_at >= self.terminal_ttl]
        overflow = len(settled) - len(expired) - self.max_terminal
        if overflow > 0:
            survivors = sorted(
                (entry for entry in settled if entry[1] not in set(expired)),
            )
            expired.extend(job_id for _, job_id in survivors[:overflow])
        for job_id in expired:
            del self._jobs[job_id]
        if expired:
            self._counters["evicted_terminal"] += len(expired)

    # -- reassignment --------------------------------------------------------

    def _reassign_record(self, job_id: str, record: _JobRecord) -> bool:
        candidates = self.candidates_for(record.payload)
        candidates = [ep for ep in candidates
                      if ep.replica_id != record.replica_id]
        if not candidates:
            candidates = self.candidates_for(record.payload)
        if not candidates:
            return False
        status, _body = self._place(job_id, record.payload, candidates)
        if status == 202:
            with self._jobs_lock:
                record.reassignments += 1
                self._counters["reassigned"] += 1
            return True
        return False

    def reassign_replica(self, replica_id: str) -> int:
        """Resubmit every non-terminal job assigned to ``replica_id``."""
        with self._jobs_lock:
            orphans = [(job_id, record)
                       for job_id, record in self._jobs.items()
                       if record.replica_id == replica_id
                       and record.terminal is None]
        moved = 0
        for job_id, record in orphans:
            if self._reassign_record(job_id, record):
                moved += 1
        return moved

    def reassign_orphans(self) -> int:
        """Requeue every non-terminal job whose replica is not routable.

        The sweep behind recovery: jobs rehydrated from the store point at
        replicas that may never come back (or at no replica at all, when
        the store predates their placement).  Run by the
        :class:`RouterMonitor` each tick once something is routable.
        """
        if not self._routable():
            return 0
        with self._jobs_lock:
            orphans = [
                (job_id, record)
                for job_id, record in self._jobs.items()
                if record.terminal is None
            ]
        moved = 0
        for job_id, record in orphans:
            endpoint = self.endpoint(record.replica_id)
            if endpoint is not None and endpoint.routable:
                continue
            if self._reassign_record(job_id, record):
                moved += 1
        return moved

    # -- membership ----------------------------------------------------------

    def register_replica(
        self, replica_id: str, base_url: str, epoch: int
    ) -> Tuple[int, Dict[str, Any]]:
        """The ``--join`` handshake: admit or refresh a replica.

        Idempotent for heartbeat re-registrations (same epoch).  A higher
        epoch means the replica restarted — its previous assignments are
        requeued (the restarted process kept no queue).  A *lower* epoch
        is a stale straggler (an old process's delayed heartbeat after a
        newer one registered) and is refused so it cannot roll the URL
        back.
        """
        if not replica_id or not base_url:
            return 400, {"error": "replica_id and base_url required",
                         "error_kind": FAILURE_INVALID_REQUEST}
        with self._endpoints_lock:
            endpoint = self._by_id.get(replica_id)
            if endpoint is None:
                endpoint = ReplicaEndpoint(replica_id)
                self._endpoints.append(endpoint)
                self._by_id[replica_id] = endpoint
            elif epoch < endpoint.epoch:
                return 409, {"error": f"stale epoch {epoch} for "
                                      f"{replica_id!r} (current "
                                      f"{endpoint.epoch})",
                             "error_kind": FAILURE_REJECTED}
        rejoined = endpoint.register(base_url, epoch)
        with self._jobs_lock:
            self._counters["registered"] += 1
        if rejoined:
            self.reassign_replica(replica_id)
        return 200, {"registered": True, "replica_id": replica_id,
                     "epoch": epoch, "rejoined": rejoined}

    # -- introspection -------------------------------------------------------

    def fleet_snapshot(self) -> Dict[str, Any]:
        with self._jobs_lock:
            tracked = len(self._jobs)
            settled = sum(
                1 for r in self._jobs.values() if r.terminal is not None)
            counters = dict(self._counters)
        with self._endpoints_lock:
            endpoints = list(self._endpoints)
        snap: Dict[str, Any] = {
            "replicas": [ep.snapshot() for ep in endpoints],
            "routable": sum(1 for ep in endpoints if ep.routable),
            "jobs_tracked": tracked,
            "jobs_settled": settled,
            "counters": counters,
        }
        if self._store is not None:
            snap["store"] = {
                "jobs": len(self._store.jobs()),
                "compactions": self._store.compactions,
                "corrupt_lines": self._store.corrupt_lines,
            }
        return snap

    def ready(self) -> bool:
        return bool(self._routable())


class _RouterHandler(BaseHTTPRequestHandler):
    server: "RouterHTTPServer"
    protocol_version = "HTTP/1.1"

    def log_message(self, *_args: Any) -> None:  # quiet by default
        pass

    def _send_json(self, status: int, payload: Dict[str, Any]) -> None:
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if status == 429 and "retry_after" in payload:
            self.send_header("Retry-After", str(payload["retry_after"]))
        self.end_headers()
        self.wfile.write(body)

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        if self.path not in ("/jobs", "/register"):
            self._send_json(404, {"error": f"no route {self.path!r}"})
            return
        try:
            length = int(self.headers.get("Content-Length") or 0)
            payload = json.loads(self.rfile.read(length).decode() or "null")
        except (ValueError, json.JSONDecodeError):
            self._send_json(400, {"error": "invalid JSON body",
                                  "error_kind": FAILURE_INVALID_REQUEST})
            return
        if self.path == "/register":
            if not isinstance(payload, dict):
                self._send_json(400, {
                    "error": "registration body must be a JSON object",
                    "error_kind": FAILURE_INVALID_REQUEST})
                return
            try:
                epoch = int(payload.get("epoch") or 0)
            except (TypeError, ValueError):
                epoch = 0
            status, body = self.server.core.register_replica(
                str(payload.get("replica_id") or ""),
                str(payload.get("base_url") or ""),
                epoch,
            )
            self._send_json(status, body)
            return
        status, body = self.server.core.submit(payload)
        self._send_json(status, body)

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        core = self.server.core
        if self.path.startswith("/jobs/"):
            status, body = core.lookup(self.path[len("/jobs/"):])
            self._send_json(status, body)
        elif self.path == "/healthz":
            self._send_json(200, {"status": "ok", "role": "router",
                                  "routable": core.fleet_snapshot()[
                                      "routable"]})
        elif self.path == "/readyz":
            ready = core.ready()
            self._send_json(200 if ready else 503,
                            {"ready": ready, "role": "router"})
        elif self.path == "/fleet":
            self._send_json(200, core.fleet_snapshot())
        else:
            self._send_json(404, {"error": f"no route {self.path!r}"})


class RouterHTTPServer(ThreadingHTTPServer):
    """Threaded front-door listener around one :class:`RouterCore`."""

    daemon_threads = True

    def __init__(self, core: RouterCore, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self.core = core
        super().__init__((host, port), _RouterHandler)

    @property
    def base_url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"


def start_router(
    core: RouterCore, host: str = "127.0.0.1", port: int = 0,
) -> Tuple[RouterHTTPServer, threading.Thread, Callable[[], None]]:
    """Start a router server thread; returns (server, thread, stop)."""
    server = RouterHTTPServer(core, host, port)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.2},
        name="gmap-router", daemon=True)
    thread.start()

    def stop() -> None:
        server.shutdown()
        server.server_close()
        thread.join(5.0)

    return server, thread, stop


class RouterMonitor:
    """The router's one prober: health checks plus orphan recovery.

    Every registered replica — a local ``--replicas`` child or a
    cross-host ``--join`` process — is probed on ``/readyz`` each tick.
    A 200 marks it healthy and stores the whole body as its telemetry
    (queue depth, ``est_wait_seconds`` and the per-kind duration EWMAs
    that price backlog in :meth:`RouterCore.candidates_for`);
    ``down_after`` consecutive failures (refused, timed out, or 503 while
    draining or full) take it out of rotation and requeue its jobs.  Each
    tick then requeues non-terminal jobs stranded on unroutable replicas,
    which is also what drives recovery of store-rehydrated jobs after a
    router restart.
    """

    def __init__(
        self,
        core: RouterCore,
        *,
        interval: float = 0.5,
        down_after: int = 3,
    ) -> None:
        self._core = core
        self._interval = interval
        self._down_after = down_after
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="gmap-router-monitor", daemon=True)

    def start(self) -> "RouterMonitor":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=max(self._interval * 4.0, 2.0))

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            self.tick()

    def tick(self) -> None:
        """One monitor pass (public so tests can drive it synchronously)."""
        newly_down: List[str] = []
        for endpoint in self._core.endpoints():
            base = endpoint.base_url
            if base is None:
                continue
            try:
                status, body = http_json(
                    "GET", f"{base}/readyz", timeout=2.0)
            except OSError:
                status, body = 0, {}
            if status == 200:
                endpoint.mark_healthy(body)
            elif endpoint.mark_probe_failed(self._down_after):
                newly_down.append(endpoint.replica_id)
        for replica_id in newly_down:
            self._core.reassign_replica(replica_id)
        self._core.reassign_orphans()
