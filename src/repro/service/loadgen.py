"""Closed- and open-loop load generation against a serve/router endpoint.

The library the chaos harness (:mod:`repro.service.chaos`) drives fleets
with; it has no command line of its own.  Three pieces:

* :class:`Req` — one request: payload in, timing and terminal status out;
* :class:`ReqGenEngine` — seeded request source drawing from a pool of
  ``key_diversity`` distinct pipeline keys, so coalescing pressure on the
  shared single-flight tier is a dial, not an accident;
* :class:`Workload` — the driving loop.  **Closed-loop** (``clients`` in
  lockstep: submit, poll to terminal, repeat) measures capacity;
  **open-loop** (fixed arrival rate, latency clocked from the *intended*
  arrival — no coordinated omission) measures behaviour under load you
  don't control, which is where shedding and tail latency live.

The report counts a shed (429/503 with a typed ``rejected`` kind) as
*shed*, not failed: under deliberate overload shedding is the correct
behaviour, and the chaos gates assert ``failed == 0`` while allowing
``shed > 0``.
"""

from __future__ import annotations

import json
import random
import threading
import time
from dataclasses import dataclass, field
from queue import Empty, Queue
from typing import Any, Dict, List, Optional

from repro.service.backoff import poll_until, sleep_backoff
from repro.service.router import http_json
from repro.service.protocol import (
    PRIORITIES,
    PRIORITY_INTERACTIVE,
    TERMINAL_STATUSES,
)

#: Targets of the synthetic mix.  Tiny scales — the workload exercises the
#: *service*, not the simulator's throughput.
_SYNTH_TARGETS = ("vectoradd", "transpose", "reduction")

#: Default per-job completion deadline, seconds.
DEFAULT_JOB_DEADLINE = 60.0


@dataclass
class Req:
    """One generated request and (after driving) its observed outcome."""

    payload: Dict[str, Any]
    #: Wall time the request was *meant* to start (open-loop pacing).
    intended_at: float = 0.0
    submitted_at: float = 0.0
    finished_at: float = 0.0
    status: str = "pending"   # completed | failed | shed | lost
    job_id: Optional[str] = None
    error: Optional[str] = None

    @property
    def latency(self) -> float:
        return max(0.0, self.finished_at - self.intended_at)

    @property
    def lane(self) -> str:
        lane = self.payload.get("priority", PRIORITY_INTERACTIVE)
        return lane if lane in PRIORITIES else PRIORITY_INTERACTIVE


class ReqGenEngine:
    """Seeded request source over a pool of ``key_diversity`` payloads,
    each a distinct pipeline key (target x ``cores``)."""

    def __init__(
        self,
        seed: int = 1234,
        key_diversity: int = 4,
        scale: str = "tiny",
        priority: Optional[str] = None,
    ) -> None:
        if key_diversity < 1:
            raise ValueError(
                f"key_diversity must be >= 1, got {key_diversity}")
        if priority is not None and priority not in PRIORITIES:
            raise ValueError(
                f"priority must be one of {PRIORITIES}, got {priority!r}")
        self._priority = priority
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        # Entry i runs target i mod 3 on 1 + i // 3 cores: no two entries
        # share a pipeline key.
        self._pool: List[Dict[str, Any]] = [
            {"kind": "simulate",
             "params": {
                 "target": _SYNTH_TARGETS[i % len(_SYNTH_TARGETS)],
                 "scale": scale,
                 "cores": 1 + i // len(_SYNTH_TARGETS),
             }}
            for i in range(key_diversity)
        ]

    def next(self) -> Dict[str, Any]:
        """A fresh copy of a randomly drawn pool payload."""
        with self._lock:
            payload = json.loads(json.dumps(self._rng.choice(self._pool)))
        if self._priority is not None:
            payload["priority"] = self._priority
        return payload


@dataclass
class LoadReport:
    """Aggregated outcome of one workload run."""

    mode: str
    duration_seconds: float
    submitted: int = 0
    completed: int = 0
    failed: int = 0
    shed: int = 0
    lost: int = 0
    latencies_ms: List[float] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    #: Per-priority-lane tallies: lane -> {submitted, completed, shed, ...}
    #: plus that lane's latency samples (ms).
    lane_counts: Dict[str, Dict[str, int]] = field(default_factory=dict)
    lane_latencies_ms: Dict[str, List[float]] = field(default_factory=dict)

    def _lane_bucket(self, lane: str) -> Dict[str, int]:
        return self.lane_counts.setdefault(lane, {
            "submitted": 0, "completed": 0, "failed": 0,
            "shed": 0, "lost": 0,
        })

    @staticmethod
    def _pct(sorted_values: List[float], q: float) -> float:
        if not sorted_values:
            return 0.0
        pos = q * (len(sorted_values) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(sorted_values) - 1)
        frac = pos - lo
        return sorted_values[lo] * (1 - frac) + sorted_values[hi] * frac

    def to_dict(self) -> Dict[str, Any]:
        lat = sorted(self.latencies_ms)
        done = self.completed
        duration = max(self.duration_seconds, 1e-9)
        return {
            "mode": self.mode,
            "duration_seconds": round(self.duration_seconds, 3),
            "submitted": self.submitted,
            "completed": self.completed,
            "failed": self.failed,
            "shed": self.shed,
            "lost": self.lost,
            "shed_rate": (self.shed / self.submitted
                          if self.submitted else 0.0),
            "throughput_rps": done / duration,
            "latency_ms": {
                "p50": round(self._pct(lat, 0.50), 3),
                "p90": round(self._pct(lat, 0.90), 3),
                "p99": round(self._pct(lat, 0.99), 3),
                "max": round(lat[-1], 3) if lat else 0.0,
            },
            "by_lane": {
                lane: {
                    **counts,
                    "latency_ms": {
                        "p50": round(self._pct(
                            sorted(self.lane_latencies_ms.get(lane, [])),
                            0.50), 3),
                        "p99": round(self._pct(
                            sorted(self.lane_latencies_ms.get(lane, [])),
                            0.99), 3),
                    },
                }
                for lane, counts in sorted(self.lane_counts.items())
            },
            "errors": self.errors[:10],
        }


class Workload:
    """Drive an endpoint with requests from a :class:`ReqGenEngine`."""

    def __init__(
        self,
        base_url: str,
        engine: ReqGenEngine,
        job_deadline: float = DEFAULT_JOB_DEADLINE,
        poll_interval: float = 0.05,
    ) -> None:
        self._base = base_url.rstrip("/")
        self._engine = engine
        self._deadline = job_deadline
        self._poll_interval = poll_interval
        self._stop = threading.Event()
        self._lock = threading.Lock()
        self._reqs: List[Req] = []

    def stop(self) -> None:
        self._stop.set()

    # -- one request through to terminal -------------------------------------

    def _drive(self, req: Req) -> None:
        req.submitted_at = time.monotonic()
        status, body = 0, {}
        # The front door itself can drop a connection mid-failover; a
        # bounded retry keeps a client-side blip from counting as a fleet
        # failure.  Replica deaths are already the router's problem.
        for attempt in range(1, 4):
            try:
                status, body = http_json(
                    "POST", f"{self._base}/jobs", req.payload)
                break
            except OSError as exc:
                if attempt == 3 or self._stop.is_set():
                    req.finished_at = time.monotonic()
                    req.status = "lost"
                    req.error = f"submit transport: {type(exc).__name__}"
                    return
                sleep_backoff(attempt, base=0.05, cap=0.5, wake=self._stop)
        if status in (429, 503):
            req.finished_at = time.monotonic()
            req.status = "shed"
            return
        if status != 202:
            req.finished_at = time.monotonic()
            req.status = "failed"
            req.error = f"submit http {status}: {body.get('error')}"
            return
        req.job_id = body.get("job_id")
        state: Dict[str, Any] = {}

        def _terminal() -> bool:
            nonlocal state
            if self._stop.is_set():
                return True
            try:
                code, job = http_json(
                    "GET", f"{self._base}/jobs/{req.job_id}")
            except OSError:
                return False
            if code == 200:
                state = job
            return job.get("status") in TERMINAL_STATUSES

        poll_until(_terminal, timeout=self._deadline,
                   interval=self._poll_interval, wake=self._stop)
        req.finished_at = time.monotonic()
        terminal = state.get("status")
        if terminal == "completed":
            req.status = "completed"
        elif terminal in TERMINAL_STATUSES:
            req.status = "failed"
            req.error = (f"{state.get('failure_kind') or terminal}: "
                         f"{state.get('error') or ''}")
        else:
            req.status = "lost"
            req.error = f"no terminal state in {self._deadline}s"

    def _track(self, req: Req) -> None:
        with self._lock:
            self._reqs.append(req)

    def progress(self) -> int:
        """Requests issued so far (chaos scenarios time kills off this)."""
        with self._lock:
            return len(self._reqs)

    # -- closed loop ---------------------------------------------------------

    def run_closed(
        self,
        clients: int,
        max_requests: Optional[int] = None,
        duration: Optional[float] = None,
    ) -> LoadReport:
        """``clients`` synchronous loops: submit, await terminal, repeat."""
        budget = threading.Semaphore(max_requests) if max_requests else None
        started = time.monotonic()
        deadline = started + duration if duration else None

        def _client() -> None:
            while not self._stop.is_set():
                if deadline is not None and time.monotonic() >= deadline:
                    return
                if budget is not None and not budget.acquire(blocking=False):
                    return
                req = Req(payload=self._engine.next(),
                          intended_at=time.monotonic())
                self._track(req)
                self._drive(req)

        threads = [
            threading.Thread(target=_client, name=f"loadgen-c{i}",
                             daemon=True)
            for i in range(clients)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return self._report("closed", time.monotonic() - started)

    # -- open loop -----------------------------------------------------------

    def run_open(
        self,
        rate: float,
        duration: float,
        max_clients: int = 32,
    ) -> LoadReport:
        """Fixed arrival rate for ``duration`` seconds.

        Arrivals are paced on a fixed schedule; a bounded worker pool
        drives them to terminal.  When every worker is busy the arrival
        still *happens* (queued with its intended timestamp), so measured
        latency includes the wait — no coordinated omission.
        """
        if rate <= 0:
            raise ValueError(f"rate must be > 0, got {rate}")
        work: "Queue[Req]" = Queue()

        def _worker() -> None:
            while not self._stop.is_set():
                try:
                    req = work.get(timeout=0.2)
                except Empty:
                    if arrivals_done.is_set():
                        return
                    continue
                self._drive(req)
                work.task_done()

        arrivals_done = threading.Event()
        workers = [
            threading.Thread(target=_worker, name=f"loadgen-w{i}",
                             daemon=True)
            for i in range(max_clients)
        ]
        for t in workers:
            t.start()
        started = time.monotonic()
        period = 1.0 / rate
        n = 0
        while not self._stop.is_set():
            now = time.monotonic()
            if now - started >= duration:
                break
            next_at = started + n * period
            if now < next_at:
                # Paced wait until the next scheduled arrival (interruptible).
                self._stop.wait(min(next_at - now, 0.5))
                continue
            req = Req(payload=self._engine.next(), intended_at=next_at)
            self._track(req)
            work.put(req)
            n += 1
        arrivals_done.set()
        for t in workers:
            t.join(self._deadline + 5.0)
        return self._report("open", time.monotonic() - started)

    # -- reporting -----------------------------------------------------------

    def _report(self, mode: str, duration: float) -> LoadReport:
        report = LoadReport(mode=mode, duration_seconds=duration)
        with self._lock:
            reqs = list(self._reqs)
        for req in reqs:
            report.submitted += 1
            bucket = report._lane_bucket(req.lane)
            bucket["submitted"] += 1
            if req.status == "completed":
                report.completed += 1
                bucket["completed"] += 1
                latency_ms = req.latency * 1000.0
                report.latencies_ms.append(latency_ms)
                report.lane_latencies_ms.setdefault(
                    req.lane, []).append(latency_ms)
            elif req.status == "shed":
                report.shed += 1
                bucket["shed"] += 1
            elif req.status == "lost":
                report.lost += 1
                bucket["lost"] += 1
                if req.error:
                    report.errors.append(req.error)
            elif req.status == "failed":
                report.failed += 1
                bucket["failed"] += 1
                if req.error:
                    report.errors.append(req.error)
        return report
