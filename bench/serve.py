"""The serve-mix workload: a ``gmap serve`` fleet driven over HTTP.

The system under test is one ``gmap serve --replicas 2 --serve-workers 1``
subprocess (router plus two supervised replicas sharing a single-flight
result cache).  Everything is measured from outside, over the router's
public HTTP interface, by one process with at most two load threads, each
holding at most one connection at a time:

* **set-up** boots the fleet and warms the 54 hot ``simulate`` keys (six
  tiny targets x cores 1/2/4 x simt/flat/analytic), three times over, each
  on a fresh cache; the last fleet stays up;
* **closed loop** — two clients, each submitting a hot key and polling it
  to completion before the next; a *round* requests every hot key once in
  a seeded order.  This measures capacity;
* **open loop** — one submitter sends on a fixed schedule (16 requests/s)
  and one poller watches outstanding jobs: 90% hot keys, 10% fresh keys
  that force a handler build.  Latency is clocked from each request's
  scheduled send time, so a stall also delays the requests queued behind
  it, and the submitter's own lateness is reported.
"""

from __future__ import annotations

import http.client
import json
import os
import queue
import random
import re
import resource
import signal
import subprocess
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple
from urllib.parse import urlsplit

from bench import stats
from bench.digest import result_digest
from bench.tracing import Tracer

HOT_TARGETS = ("vectoradd", "transpose", "reduction", "scalarprod",
               "blackscholes", "backprop")
HOT_CORES = (1, 2, 4)
MODES = ("simt", "flat", "analytic")
#: Fresh keys are one shape at core counts no hot key uses, so each misses
#: every cache and costs about the same: which ones a seed draws does not
#: move the latency tail.
FRESH_TARGET, FRESH_MODE = "vectoradd", "simt"
FRESH_CORES = tuple(range(5, 65))
FRESH_SHARE = 0.1
#: Open-loop arrival rate, requests per second.
OPEN_RATE = 16.0
#: Share of the measured seconds given to the closed loop.
CLOSED_SHARE = 0.25
#: The open loop's latency limit on p95 (a failed request misses it).
LATENCY_LIMIT_MS = 250.0
#: A request with no outcome by then is lost; it counts as this latency.
JOB_DEADLINE = 30.0
POLL_INTERVAL = 0.005
#: Seconds between ``GET /fleet`` samples of queue state (traced runs).
SAMPLE_INTERVAL = 0.25
SETUPS = 3
#: Hot keys timed in-process through the job handler (traced runs).
HANDLER_KEYS = 12
#: Job states after which an outcome no longer changes (HTTP contract).
TERMINAL = ("completed", "failed", "rejected")

#: Per-layer metrics a traced serve run reports.
LAYER_METRICS = (
    "router.submit_ms_p50", "router.poll_ms_p50", "router.spilled",
    "router.shed", "queue.depth_mean", "queue.est_wait_ms_mean",
    "shared_cache.hit_ratio", "shared_cache.coalesced",
    "supervisor.retries", "handler.hit_ms_p50", "handler.miss_ms_p50",
    "loadgen.lag_ms_p99", "trace.overhead_ratio",
)

_READY = re.compile(r"router listening on (http://[\d.]+:\d+)")


# -- the request stream ---------------------------------------------------------


def payload(target: str, cores: int, mode: str) -> Dict[str, Any]:
    """A ``simulate`` job request for one tiny target."""
    params: Dict[str, Any] = {"target": target, "scale": "tiny",
                              "cores": cores}
    if mode != "simt":
        params[mode] = True
    return {"kind": "simulate", "params": params}


def key_of(request: Dict[str, Any]) -> str:
    """``target|mode|cores``: the identity of a job's result."""
    params = request["params"]
    mode = next((m for m in MODES[1:] if params.get(m)), "simt")
    return f"{params['target']}|{mode}|{params['cores']}"


def hot_payloads() -> List[Dict[str, Any]]:
    return [payload(t, c, m)
            for t in HOT_TARGETS for c in HOT_CORES for m in MODES]


def fresh_payloads() -> List[Dict[str, Any]]:
    return [payload(FRESH_TARGET, c, FRESH_MODE) for c in FRESH_CORES]


def open_stream(seed: int, count: int) -> List[Dict[str, Any]]:
    """The seeded open-loop mix: exactly :data:`FRESH_SHARE` of the requests,
    at seeded positions, are fresh keys (each drawn once); the rest are hot
    keys drawn uniformly.  A fixed fresh count keeps the latency tail at the
    same rank among the fresh builds whatever the seed."""
    rng = random.Random(f"open:{seed}")
    hot = hot_payloads()
    fresh = rng.sample(fresh_payloads(), round(FRESH_SHARE * count))
    positions = set(rng.sample(range(count), len(fresh)))
    return [fresh.pop() if i in positions else rng.choice(hot)
            for i in range(count)]


def closed_rounds(seed: int) -> Callable[[], List[Dict[str, Any]]]:
    """Seeded source of closed-loop rounds: every hot key once, shuffled."""
    rng = random.Random(f"closed:{seed}")

    def next_round() -> List[Dict[str, Any]]:
        order = hot_payloads()
        rng.shuffle(order)
        return order

    return next_round


# -- one request -------------------------------------------------------------------


@dataclass
class Request:
    """One job request and what the load generator saw of it."""

    payload: Dict[str, Any]
    #: When the request was due to be sent (perf_counter seconds).
    due: float
    sent: float = 0.0
    done: float = 0.0
    status: str = "pending"       # completed | failed | shed | lost
    job_id: Optional[str] = None
    outcome: Dict[str, Any] = field(default_factory=dict)
    error: str = ""
    submit_s: float = 0.0
    #: ``(start, end)`` of every status poll.
    polls: List[Tuple[float, float]] = field(default_factory=list)

    @property
    def latency(self) -> float:
        """Seconds from due to outcome; a request that never completed
        counts as the job deadline."""
        if self.status != "completed":
            return JOB_DEADLINE
        return self.done - self.due


class Transport:
    """Client side of the router's job API, one connection per call.

    A kept-alive connection would stall each response by the delayed-ACK
    timeout, because the server writes headers and body separately; the
    repository's own clients also connect per call.
    """

    def __init__(self, base_url: str) -> None:
        parts = urlsplit(base_url)
        self._host = parts.hostname or "127.0.0.1"
        self._port = parts.port

    def call(self, method: str, path: str,
             body: Optional[Dict[str, Any]] = None) -> Tuple[int, Any]:
        data = json.dumps(body).encode() if body is not None else None
        headers = {"Connection": "close"}
        if data is not None:
            headers["Content-Type"] = "application/json"
        conn = http.client.HTTPConnection(self._host, self._port,
                                          timeout=JOB_DEADLINE)
        try:
            conn.request(method, path, body=data, headers=headers)
            response = conn.getresponse()
            return response.status, json.loads(response.read() or b"{}")
        finally:
            conn.close()


def submit(transport: Transport, req: Request) -> None:
    """POST the job; a refusal or transport error settles the request."""
    req.sent = time.perf_counter()
    try:
        status, body = transport.call("POST", "/jobs", req.payload)
    except (OSError, http.client.HTTPException, ValueError) as exc:
        req.status, req.error = "lost", f"submit: {type(exc).__name__}"
        req.done = time.perf_counter()
        return
    req.submit_s = time.perf_counter() - req.sent
    if status == 202:
        req.job_id = body["job_id"]
        return
    req.done = time.perf_counter()
    req.status = "shed" if status in (429, 503) else "failed"
    req.error = f"submit http {status}: {body.get('error', '')}"


def poll(transport: Transport, req: Request) -> bool:
    """One status poll; True once the request is settled."""
    start = time.perf_counter()
    try:
        status, body = transport.call("GET", f"/jobs/{req.job_id}")
    except (OSError, http.client.HTTPException, ValueError) as exc:
        req.status, req.error = "lost", f"poll: {type(exc).__name__}"
        req.done = time.perf_counter()
        return True
    end = time.perf_counter()
    req.polls.append((start, end))
    if status == 200 and body.get("status") in TERMINAL:
        req.done, req.outcome = end, body
        req.status = "completed" if body["status"] == "completed" else "failed"
        return True
    if end - req.sent > JOB_DEADLINE:
        req.status, req.error, req.done = "lost", "no outcome in time", end
        return True
    return False


# -- closed loop ---------------------------------------------------------------------


def run_round(transport: Transport, payloads: Sequence[Dict[str, Any]],
              tracer: Optional[Tracer] = None,
              clients: int = 2) -> Tuple[float, List[Request]]:
    """One closed-loop round: each client submits, waits, then takes more.

    With a ``tracer`` each request's spans are recorded as it settles,
    inside the timed round.
    """
    pending: Deque[Dict[str, Any]] = deque(payloads)
    lock = threading.Lock()
    done: List[Request] = []

    def client() -> None:
        while True:
            with lock:
                if not pending:
                    return
                body = pending.popleft()
            req = Request(body, due=time.perf_counter())
            submit(transport, req)
            while req.status == "pending":
                time.sleep(POLL_INTERVAL)
                if poll(transport, req):
                    break
            if tracer is not None:
                record_spans(tracer, [req])
            with lock:
                done.append(req)

    start = time.perf_counter()
    threads = [threading.Thread(target=client, daemon=True)
               for _ in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(JOB_DEADLINE * len(payloads))
    return time.perf_counter() - start, done


# -- open loop ------------------------------------------------------------------------


@dataclass
class OpenLoop:
    """Requests of one open-loop phase plus what the poller sampled."""

    requests: List[Request]
    #: Submitter lateness per request: sent minus due, seconds.
    lateness: List[float]
    #: ``GET /fleet`` bodies sampled while requests were outstanding.
    samples: List[Dict[str, Any]]


def run_open(transport: Transport, payloads: Sequence[Dict[str, Any]],
             rate: float, sample_fleet: bool = False) -> OpenLoop:
    """Send ``payloads`` at ``rate``/s from a submitter; a poller settles them."""
    start = time.perf_counter() + 0.05
    reqs = [Request(body, due=start + i / rate)
            for i, body in enumerate(payloads)]
    handoff: "queue.Queue[Optional[Request]]" = queue.Queue()
    samples: List[Dict[str, Any]] = []

    def submitter() -> None:
        try:
            for req in reqs:
                delay = req.due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                submit(transport, req)
                handoff.put(req)
        finally:
            handoff.put(None)

    def poller() -> None:
        outstanding: List[Request] = []
        submitting = True
        next_sample = time.perf_counter()
        while submitting or outstanding:
            try:
                while True:
                    item = handoff.get_nowait()
                    if item is None:
                        submitting = False
                    elif item.status == "pending":
                        outstanding.append(item)
            except queue.Empty:
                pass
            now = time.perf_counter()
            for req in list(outstanding):
                last = req.polls[-1][1] if req.polls else req.sent
                if now - last >= POLL_INTERVAL and poll(transport, req):
                    outstanding.remove(req)
            if sample_fleet and outstanding and now >= next_sample:
                next_sample = now + SAMPLE_INTERVAL
                try:
                    status, body = transport.call("GET", "/fleet")
                except (OSError, http.client.HTTPException, ValueError):
                    status, body = 0, {}
                if status == 200:
                    samples.append(body)
            time.sleep(0.001)

    threads = [threading.Thread(target=submitter, daemon=True),
               threading.Thread(target=poller, daemon=True)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(len(reqs) / rate + 2 * JOB_DEADLINE)
    return OpenLoop(reqs, [r.sent - r.due for r in reqs if r.sent], samples)


# -- the fleet process ------------------------------------------------------------------


class Fleet:
    """One ``gmap serve --replicas 2`` subprocess and its output reader."""

    def __init__(self, root: Path, workdir: Path) -> None:
        self._root = root
        self._workdir = workdir
        self._proc: Optional[subprocess.Popen[str]] = None
        self._reader: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._log: Deque[str] = deque(maxlen=40)
        self.url = ""

    def start(self, timeout: float = 60.0) -> None:
        self._workdir.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(self._root / "src"), env.get("PYTHONPATH")) if p)
        env["TMPDIR"] = str(self._workdir)
        argv = [sys.executable, "-m", "repro.cli", "serve",
                "--replicas", "2", "--serve-workers", "1",
                "--backend", "python", "--job-timeout", str(JOB_DEADLINE),
                "--shared-cache-dir", str(self._workdir / "shared")]
        self._proc = subprocess.Popen(
            argv, cwd=self._root, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True, start_new_session=True)
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        deadline = time.monotonic() + timeout
        while not self._ready.wait(0.1):
            if self._proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError("fleet never became ready:\n"
                                   + "\n".join(self._log))

    def _read(self) -> None:
        assert self._proc is not None and self._proc.stdout is not None
        for line in self._proc.stdout:
            self._log.append(line.rstrip())
            match = _READY.search(line)
            if match:
                self.url = match.group(1)
                self._ready.set()
        self._proc.stdout.close()

    def stop(self) -> None:
        """SIGTERM (the fleet drains and stops its replicas), then reap."""
        proc = self._proc
        if proc is None:
            return
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(JOB_DEADLINE)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        if self._reader is not None:
            self._reader.join(5.0)
        self._proc = None


# -- the workload -----------------------------------------------------------


def record_spans(tracer: Tracer, reqs: Sequence[Request]) -> None:
    """A request span (due to outcome) over its submit and poll spans."""
    for req in reqs:
        if not req.sent:
            continue
        run = req.job_id or "unsubmitted"
        parent = tracer.record("request", req.due, req.done or req.sent,
                               run=run)
        tracer.record("router.submit", req.sent, req.sent + req.submit_s,
                      run=run, parent=parent)
        for start, end in req.polls:
            tracer.record("router.poll", start, end, run=run, parent=parent)


def _boot_and_warm(root: Path,
                   workdir: Path) -> Tuple[Fleet, float, List[Request]]:
    """One set-up: boot a fleet and build every hot key once."""
    start = time.perf_counter()
    fleet = Fleet(root, workdir)
    fleet.start()
    try:
        _, warm = run_round(Transport(fleet.url), hot_payloads())
    except BaseException:
        fleet.stop()
        raise
    return fleet, time.perf_counter() - start, warm


def verify(reqs: Sequence[Request], reference: Dict[str, str]) -> int:
    """Requests that did not complete cleanly with the reference result."""
    return sum(
        1 for req in reqs
        if req.status != "completed" or req.outcome.get("degraded")
        or reference.get(key_of(req.payload))
        != result_digest(req.outcome.get("result")))


def _p50_ms(values: Sequence[float]) -> float:
    return stats.percentile(values, 50) * 1e3 if values else 0.0


def _handler_times(workdir: Path) -> Tuple[List[float], List[float]]:
    """In-process handler time for hot keys: first call builds, second hits."""
    from repro.service.handlers import execute_job

    misses: List[float] = []
    hits: List[float] = []
    cache = str(workdir / "handler-cache")
    for body in hot_payloads()[:HANDLER_KEYS]:
        for samples in (misses, hits):
            start = time.perf_counter()
            execute_job(body, "python", shared_cache_dir=cache)
            samples.append(time.perf_counter() - start)
    return misses, hits


def record_digests() -> Dict[str, str]:
    """Digest of every hot and fresh key's result, computed in-process."""
    from repro.service.handlers import execute_job

    return {key_of(body): result_digest(execute_job(body, "python")["result"])
            for body in hot_payloads() + fresh_payloads()}


def _layer_metrics(timed: Sequence[Request], open_loop: OpenLoop,
                   fleet_before: Dict[str, Any], fleet_after: Dict[str, Any],
                   handler: Tuple[List[float], List[float]],
                   overhead: float) -> Dict[str, float]:
    outcomes = [r.outcome for r in timed if r.status == "completed"]
    events: Dict[str, int] = {}
    for outcome in outcomes:
        for name, count in (outcome.get("integrity_events") or {}).items():
            events[name] = events.get(name, 0) + count
    lookups = sum(events.get(f"shared_cache_{status}", 0)
                  for status in ("hit", "built", "coalesced", "uncached"))
    telemetry = [replica.get("telemetry") or {}
                 for sample in open_loop.samples
                 for replica in sample.get("replicas", [])]
    before = fleet_before.get("counters", {})
    after = fleet_after.get("counters", {})
    misses, hits = handler
    return {
        "router.submit_ms_p50": _p50_ms([r.submit_s for r in timed
                                         if r.submit_s]),
        "router.poll_ms_p50": _p50_ms([end - start for r in timed
                                       for start, end in r.polls]),
        "router.spilled": after.get("spilled", 0) - before.get("spilled", 0),
        "router.shed": after.get("shed", 0) - before.get("shed", 0),
        "queue.depth_mean": (
            sum(t.get("queue_depth", 0) for t in telemetry) / len(telemetry)
            if telemetry else 0.0),
        "queue.est_wait_ms_mean": (
            sum(t.get("est_wait_seconds", 0.0) for t in telemetry) * 1e3
            / len(telemetry) if telemetry else 0.0),
        "shared_cache.hit_ratio": (events.get("shared_cache_hit", 0) / lookups
                                   if lookups else 0.0),
        "shared_cache.coalesced": events.get("shared_cache_coalesced", 0),
        "supervisor.retries": sum(max(0, o.get("attempts", 1) - 1)
                                  for o in outcomes),
        "handler.hit_ms_p50": _p50_ms(hits),
        "handler.miss_ms_p50": _p50_ms(misses),
        "loadgen.lag_ms_p99": (stats.percentile(open_loop.lateness, 99) * 1e3
                               if open_loop.lateness else 0.0),
        "trace.overhead_ratio": overhead,
    }


def run(root: Path, workdir: Path, seed: int, seconds: float, trace: bool,
        smoke: bool, expected: Dict[str, str],
        trace_path: Optional[str]) -> Dict[str, Any]:
    """Set up (three times), then the closed-loop and open-loop phases.

    Returns ``{"metrics", "attempted", "failed", "details"}``; the set-up
    times are ``details["setup_seconds"]``.  Served results are checked
    against ``expected`` (recorded in-process) where it has the key, else
    against the last warm-up's result.
    """
    setups: List[float] = []
    warms: List[List[Request]] = []
    fleet: Optional[Fleet] = None
    tracer = Tracer(f"serve-mix:seed{seed}")
    closed_seconds = 1.5 if smoke else seconds * CLOSED_SHARE
    open_seconds = 4.0 if smoke else seconds - closed_seconds
    try:
        for index in range(1 if smoke else SETUPS):
            if fleet is not None:
                fleet.stop()
            fleet, took, warm = _boot_and_warm(root,
                                               workdir / f"fleet{index}")
            setups.append(took)
            warms.append(warm)
        assert fleet is not None

        transport = Transport(fleet.url)
        _, fleet_before = transport.call("GET", "/fleet")
        next_round = closed_rounds(seed)
        rounds: List[Tuple[float, List[Request]]] = []
        started = time.perf_counter()
        while not rounds or time.perf_counter() - started < closed_seconds:
            # A traced run records spans live in every other round, so the
            # rounds without them give the tracing overhead.
            live = tracer if trace and len(rounds) % 2 else None
            rounds.append(run_round(transport, next_round(), live))
        closed_total = time.perf_counter() - started

        open_loop = run_open(transport,
                             open_stream(seed, round(OPEN_RATE * open_seconds)),
                             OPEN_RATE, sample_fleet=trace)
        _, fleet_after = transport.call("GET", "/fleet")
    finally:
        if fleet is not None:
            fleet.stop()

    reference = {key_of(r.payload): result_digest(r.outcome.get("result"))
                 for r in warms[-1]}
    reference.update(expected)
    closed = [r for _, reqs in rounds for r in reqs]
    timed = closed + open_loop.requests
    failed = sum(verify(warm, reference) for warm in warms)
    failed += verify(timed, reference)
    latencies = [r.latency for r in open_loop.requests]
    p95_ms = stats.percentile(latencies, 95) * 1e3
    details: Dict[str, Any] = {
        "setup_seconds": setups,
        "closed_rounds": len(rounds),
        "open_requests": len(open_loop.requests),
        "latency_samples": len(latencies),
        "latency_tail_supported": stats.tail_percentile(len(latencies)),
        "latencies_ms": [round(x * 1e3, 3) for x in latencies],
        "round_seconds": [round(took, 6) for took, _ in rounds],
        "latency_limit_ms": LATENCY_LIMIT_MS,
        "latency_limit_met": p95_ms <= LATENCY_LIMIT_MS,
        "lateness_ms_max": max(open_loop.lateness, default=0.0) * 1e3,
    }
    result = {"attempted": len(timed) + sum(len(warm) for warm in warms),
              "failed": failed, "details": details}
    if not trace:
        completed = [r for r in closed if r.status == "completed"]
        children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "run_s": stats.median([took for took, _ in rounds]),
            "req_per_s": len(completed) / closed_total,
            "sim_mreq_per_s": sum(
                r.outcome["result"]["result"]["requests_issued"]
                for r in completed) / closed_total / 1e6,
            "lat_p50_ms": stats.percentile(latencies, 50) * 1e3,
            "lat_p95_ms": p95_ms,
            # The largest single process: a fleet process or this one.
            "peak_rss_mb": max(children, own) / 1024.0,
        }
        return {"metrics": metrics, **result}

    traced = [took for i, (took, _) in enumerate(rounds) if i % 2]
    untraced = [took for i, (took, _) in enumerate(rounds) if not i % 2]
    overhead = (stats.median(traced) / stats.median(untraced)
                if traced else 1.0)
    record_spans(tracer, open_loop.requests)
    metrics = _layer_metrics(timed, open_loop, fleet_before, fleet_after,
                             _handler_times(workdir), overhead)
    if trace_path:
        tracer.write_jsonl(trace_path)
        details["trace_file"] = trace_path
    return {"metrics": metrics, **result}
