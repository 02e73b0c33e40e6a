"""Chaos harness for ``gmap serve``: inject faults, assert survival.

Boots a real service (HTTP listener included) per scenario, injects the
fault families of the PR 2 harness — worker kills, hangs, corrupt
artifacts — plus service-specific abuse (queue floods, drain mid-flight),
and asserts the acceptance invariants:

* the server process never crashes;
* every submission terminates with a well-typed outcome: completed,
  failed with a taxonomy kind, or rejected with an HTTP-style code;
* the queue stays bounded (shedding, not accumulation);
* degraded responses are explicitly labeled;
* a SIGTERM-style drain checkpoints unfinished jobs and the next boot
  resumes every one of them under its original id.

Run it directly (``python -m repro.service.chaos --smoke``) — the CI
``service`` job does exactly that under a hard wall-clock timeout.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple, Union

if TYPE_CHECKING:
    from repro.service.fleet import FleetConfig

from repro.service.backoff import poll_until
from repro.service.config import ServiceConfig
from repro.service.server import GmapService, ServeHTTPServer

#: Upper bound on any single wait inside a scenario, seconds.
WAIT_LIMIT = 60.0


@dataclass
class ScenarioResult:
    """One scenario's verdict: empty ``violations`` means it held."""

    name: str
    violations: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


# -- service/HTTP plumbing --------------------------------------------------

class _LiveServer:
    """An in-process service + HTTP listener, torn down deterministically."""

    def __init__(self, config: ServiceConfig) -> None:
        self.service = GmapService(config)
        self.resumed = self.service.start()
        self.httpd = ServeHTTPServer(self.service)
        host, port = self.httpd.server_address[:2]
        self.base = f"http://{host}:{port}"
        self._thread = threading.Thread(
            target=self.httpd.serve_forever,
            kwargs={"poll_interval": 0.1}, daemon=True)
        self._thread.start()

    def shutdown(self) -> None:
        self.httpd.shutdown()
        self.httpd.server_close()
        self._thread.join(5.0)
        self.service.stop()

    def drain(self) -> Dict[str, Any]:
        status, payload = _request(self.base + "/drain", method="POST")
        # /drain schedules its own HTTP shutdown; join and release.
        self._thread.join(10.0)
        self.httpd.server_close()
        self.service.stop()
        if status != 200:
            raise RuntimeError(f"drain returned HTTP {status}: {payload}")
        return payload


def _request(url: str, body: Optional[Dict[str, Any]] = None,
             method: str = "GET") -> Tuple[int, Dict[str, Any]]:
    data = None
    headers = {}
    if body is not None:
        data = json.dumps(body).encode("utf-8")
        headers["Content-Type"] = "application/json"
    req = urllib.request.Request(url, data=data, headers=headers,
                                 method=method)
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, json.loads(resp.read().decode("utf-8"))
    except urllib.error.HTTPError as exc:
        raw = exc.read().decode("utf-8", "replace")
        try:
            payload = json.loads(raw)
        except ValueError:
            payload = {"error": raw}
        payload.setdefault("_retry_after", exc.headers.get("Retry-After"))
        return exc.code, payload


def _submit(base: str, payload: Dict[str, Any]) -> Tuple[int, Dict[str, Any]]:
    return _request(base + "/jobs", body=payload, method="POST")


def _wait_terminal(base: str, job_id: str,
                   timeout: float) -> Optional[Dict[str, Any]]:
    """Poll one job until a terminal status, or None on deadline."""
    terminal: List[Dict[str, Any]] = []

    def _settled() -> bool:
        status, payload = _request(f"{base}/jobs/{job_id}")
        if status == 200 and payload.get("status") in (
                "completed", "failed", "rejected"):
            terminal.append(payload)
            return True
        return False

    if poll_until(_settled, timeout=min(timeout, WAIT_LIMIT)):
        return terminal[0]
    return None


def _sim_job(fault: Optional[Dict[str, str]] = None) -> Dict[str, Any]:
    job: Dict[str, Any] = {
        "kind": "simulate",
        "params": {"target": "vectoradd", "scale": "tiny", "cores": 2},
    }
    if fault is not None:
        job["fault"] = fault
    return job


def _config(tmp: Path, **overrides: Any) -> ServiceConfig:
    defaults = dict(
        workers=2, queue_capacity=16, job_timeout=30.0, retries=1,
        restart_backoff=0.05, drain_timeout=3.0,
        journal=True, journal_dir=str(tmp / "journal"), run_id="chaos",
        breaker_cooldown=0.5, allow_fault_injection=True,
    )
    defaults.update(overrides)
    return ServiceConfig(**defaults)


# -- scenarios --------------------------------------------------------------

def scenario_worker_kill_retries(tmp: Path, rng: random.Random,
                                 smoke: bool) -> ScenarioResult:
    """A once-fault kills the first worker; the retry must succeed."""
    result = ScenarioResult("worker_kill_retries")
    state = tmp / f"kill-state-{rng.randrange(1 << 30)}"
    server = _LiveServer(_config(tmp, run_id="kill-once"))
    try:
        fault = {"spec": "crash:*:*", "state": str(state)}
        status, accepted = _submit(server.base, _sim_job(fault))
        if status != 202:
            result.violations.append(f"submit returned HTTP {status}")
            return result
        outcome = _wait_terminal(server.base, accepted["job_id"], WAIT_LIMIT)
        if outcome is None:
            result.violations.append("job never reached a terminal status")
        elif outcome["status"] != "completed":
            result.violations.append(
                f"expected completed after retry, got {outcome}")
        elif outcome.get("attempts", 0) < 2:
            result.violations.append(
                f"expected >= 2 attempts, got {outcome.get('attempts')}")
        else:
            result.notes.append(
                f"recovered in {outcome['attempts']} attempts")
    finally:
        server.shutdown()
    return result


def scenario_worker_kill_exhausts(tmp: Path, rng: random.Random,
                                  smoke: bool) -> ScenarioResult:
    """An always-crash fault must yield a typed worker_crash failure —
    and leave the server able to run the next (clean) job."""
    result = ScenarioResult("worker_kill_exhausts")
    server = _LiveServer(_config(tmp, run_id="kill-always", retries=1))
    try:
        fault = {"spec": "crash:*:*:always"}
        status, accepted = _submit(server.base, _sim_job(fault))
        if status != 202:
            result.violations.append(f"submit returned HTTP {status}")
            return result
        outcome = _wait_terminal(server.base, accepted["job_id"], WAIT_LIMIT)
        if outcome is None:
            result.violations.append("crashing job never terminated")
        elif (outcome["status"] != "failed"
              or outcome.get("error_kind") != "worker_crash"):
            result.violations.append(
                f"expected typed worker_crash failure, got {outcome}")
        elif outcome.get("attempts") != 2:
            result.violations.append(
                f"expected exactly 2 attempts, got {outcome.get('attempts')}")
        status, accepted = _submit(server.base, _sim_job())
        if status != 202:
            result.violations.append(
                f"server refused a clean job after crashes: HTTP {status}")
        else:
            outcome = _wait_terminal(
                server.base, accepted["job_id"], WAIT_LIMIT)
            if outcome is None or outcome["status"] != "completed":
                result.violations.append(
                    f"clean job after crashes did not complete: {outcome}")
    finally:
        server.shutdown()
    return result


def scenario_hang_deadline(tmp: Path, rng: random.Random,
                           smoke: bool) -> ScenarioResult:
    """A hung worker must be killed at the deadline and typed ``timeout``."""
    result = ScenarioResult("hang_deadline")
    server = _LiveServer(_config(
        tmp, run_id="hang", job_timeout=1.5, retries=0))
    try:
        fault = {"spec": "hang:*:*:always:30"}
        started = time.monotonic()
        status, accepted = _submit(server.base, _sim_job(fault))
        if status != 202:
            result.violations.append(f"submit returned HTTP {status}")
            return result
        outcome = _wait_terminal(server.base, accepted["job_id"], 20.0)
        elapsed = time.monotonic() - started
        if outcome is None:
            result.violations.append("hung job never terminated")
        elif (outcome["status"] != "failed"
              or outcome.get("error_kind") != "timeout"):
            result.violations.append(
                f"expected typed timeout failure, got {outcome}")
        elif elapsed > 15.0:
            result.violations.append(
                f"deadline enforcement took {elapsed:.1f}s for a 1.5s "
                f"job_timeout")
        else:
            result.notes.append(f"deadline enforced in {elapsed:.1f}s")
    finally:
        server.shutdown()
    return result


def scenario_corrupt_artifact(tmp: Path, rng: random.Random,
                              smoke: bool) -> ScenarioResult:
    """A bit-flipped input artifact must fail typed, never crash or hang."""
    result = ScenarioResult("corrupt_artifact")
    from repro.gpu.executor import build_warp_traces
    from repro.io.trace_io import save_warp_traces
    from repro.workloads import suite

    trace_path = tmp / "chaos-input.trace.npz"
    kernel = suite.make("vectoradd", scale="tiny")
    save_warp_traces(build_warp_traces(kernel), trace_path)
    blob = bytearray(trace_path.read_bytes())
    for _ in range(32):  # flip bytes across the middle of the container
        index = rng.randrange(len(blob) // 4, len(blob) - 1)
        blob[index] ^= 0xFF
    trace_path.write_bytes(bytes(blob))

    server = _LiveServer(_config(tmp, run_id="corrupt", retries=0))
    try:
        status, accepted = _submit(server.base, {
            "kind": "profile", "params": {"benchmark": str(trace_path)},
        })
        if status != 202:
            result.violations.append(f"submit returned HTTP {status}")
            return result
        outcome = _wait_terminal(server.base, accepted["job_id"], WAIT_LIMIT)
        if outcome is None:
            result.violations.append("corrupt-input job never terminated")
        elif outcome["status"] != "failed" or outcome.get("error_kind") not in (
                "corrupt_artifact", "simulation_error", "invalid_request"):
            result.violations.append(
                f"expected a typed failure for corrupt input, got {outcome}")
        else:
            result.notes.append(f"typed as {outcome.get('error_kind')}")
    finally:
        server.shutdown()
    return result


def scenario_queue_flood(tmp: Path, rng: random.Random,
                         smoke: bool) -> ScenarioResult:
    """Flood a tiny queue: shedding with Retry-After, bounded depth, and
    a terminal outcome for every accepted job."""
    result = ScenarioResult("queue_flood")
    capacity = 3
    server = _LiveServer(_config(
        tmp, run_id="flood", workers=1, queue_capacity=capacity,
        retries=0, job_timeout=30.0))
    total = 12 if smoke else 32
    accepted_ids: List[str] = []
    shed = 0
    max_depth = 0
    try:
        for _ in range(total):
            status, payload = _submit(server.base, _sim_job())
            max_depth = max(max_depth, server.service.queue.depth())
            if status == 202:
                accepted_ids.append(payload["job_id"])
            elif status == 429:
                shed += 1
                if not payload.get("retry_after") and not payload.get(
                        "_retry_after"):
                    result.violations.append(
                        "429 response carried no Retry-After hint")
            else:
                result.violations.append(
                    f"unexpected submit response HTTP {status}: {payload}")
        if shed == 0:
            result.violations.append(
                f"flooding {total} jobs into a capacity-{capacity} queue "
                f"shed nothing")
        if max_depth > capacity:
            result.violations.append(
                f"queue depth reached {max_depth} > capacity {capacity}")
        for job_id in accepted_ids:
            outcome = _wait_terminal(server.base, job_id, WAIT_LIMIT)
            if outcome is None:
                result.violations.append(
                    f"accepted job {job_id} never terminated")
            elif outcome["status"] not in ("completed", "failed"):
                result.violations.append(
                    f"accepted job {job_id} ended untyped: {outcome}")
        result.notes.append(
            f"{len(accepted_ids)} accepted, {shed} shed, "
            f"max depth {max_depth}")
    finally:
        server.shutdown()
    return result


def scenario_drain_resume(tmp: Path, rng: random.Random,
                          smoke: bool) -> ScenarioResult:
    """Drain mid-flight; every unfinished job must checkpoint, and a new
    boot on the same journal must resume all of them to completion."""
    result = ScenarioResult("drain_resume")
    journal_dir = tmp / "journal-drain"
    config = _config(
        tmp, run_id="drain", workers=1, queue_capacity=32,
        journal_dir=str(journal_dir), drain_timeout=2.0)
    server = _LiveServer(config)
    submitted: List[str] = []
    try:
        for _ in range(6):
            status, payload = _submit(server.base, _sim_job())
            if status == 202:
                submitted.append(payload["job_id"])
        summary = server.drain()
    except BaseException:
        server.shutdown()
        raise
    checkpointed = summary.get("checkpointed", 0)
    # Jobs that finished during the drain window stay terminal on server
    # A; only the checkpointed remainder must resume.  Every submitted job
    # must be accounted for — finished-or-checkpointed, nothing dropped.
    finished: List[str] = []
    pending: List[str] = []
    for job_id in submitted:
        state = server.service.job_status(job_id) or {}
        if state.get("status") == "completed":
            finished.append(job_id)
        elif state.get("status") == "checkpointed":
            pending.append(job_id)
        else:
            result.violations.append(
                f"job {job_id} neither finished nor checkpointed at "
                f"drain: {state}")
    result.notes.append(
        f"drained with {len(finished)} finished, {checkpointed} "
        f"checkpointed of {len(submitted)}")
    if len(pending) != checkpointed:
        result.violations.append(
            f"drain reported {checkpointed} checkpoints but "
            f"{len(pending)} jobs are in checkpointed state")

    second = _LiveServer(config)
    try:
        if second.resumed != checkpointed:
            result.violations.append(
                f"checkpointed {checkpointed} jobs but resumed "
                f"{second.resumed}")
        for job_id in pending:
            outcome = _wait_terminal(second.base, job_id, WAIT_LIMIT)
            if outcome is None:
                result.violations.append(
                    f"job {job_id} lost across drain/restart")
            elif outcome["status"] != "completed":
                result.violations.append(
                    f"resumed job {job_id} did not complete: {outcome}")
    finally:
        second.shutdown()
    return result


# -- fleet scenarios --------------------------------------------------------

def _fleet_config(smoke: bool, **overrides: Any) -> "FleetConfig":
    from repro.service.fleet import FleetConfig

    defaults = dict(
        replicas=2, workers=1 if smoke else 2, queue_capacity=16,
        job_timeout=30.0, isolation="thread", health_interval=0.2,
        restart_base=0.1, boot_timeout=WAIT_LIMIT,
    )
    defaults.update(overrides)
    return FleetConfig(**defaults)


def scenario_replica_kill(tmp: Path, rng: random.Random,
                          smoke: bool) -> ScenarioResult:
    """SIGKILL one replica under closed-loop load: zero non-shed failures
    (orphans reassigned by the router) and the fleet returns to full
    strength via supervised restart."""
    result = ScenarioResult("replica_kill")
    from repro.service.fleet import Fleet
    from repro.service.loadgen import ReqGenEngine, Workload

    total = 16 if smoke else 40
    with Fleet(_fleet_config(smoke)) as fleet:
        engine = ReqGenEngine(seed=rng.randrange(1 << 30),
                              key_diversity=total, scale="small")
        workload = Workload(fleet.router_url, engine,
                            job_deadline=WAIT_LIMIT)
        holder: Dict[str, Any] = {}
        thread = threading.Thread(
            target=lambda: holder.update(report=workload.run_closed(
                clients=3, max_requests=total)),
            daemon=True)
        thread.start()
        if not poll_until(lambda: workload.progress() >= total // 4,
                          timeout=WAIT_LIMIT):
            result.violations.append("workload never reached steady state")
        fleet.kill_replica(0)
        thread.join(2 * WAIT_LIMIT)
        report = holder.get("report")
        if report is None:
            result.violations.append("workload thread never finished")
            return result
        stats = report.to_dict()
        if stats["failed"] or stats["lost"]:
            result.violations.append(
                f"non-shed failures across a replica kill: "
                f"{stats['failed']} failed, {stats['lost']} lost "
                f"({stats['errors']})")
        if not fleet.wait_routable(2, timeout=WAIT_LIMIT):
            result.violations.append(
                "killed replica never restarted to routable")
        counters = fleet.snapshot()["counters"]
        result.notes.append(
            f"{stats['completed']}/{stats['submitted']} completed, "
            f"{counters['reassigned']} reassigned, "
            f"{counters['spilled']} spilled")
    return result


def scenario_router_partition(tmp: Path, rng: random.Random,
                              smoke: bool) -> ScenarioResult:
    """SIGSTOP a replica (alive but unreachable): the monitor must route
    around it, jobs keep completing, and a SIGCONT lets it rejoin."""
    result = ScenarioResult("router_partition")
    from repro.service.fleet import Fleet

    with Fleet(_fleet_config(smoke, health_failures=2)) as fleet:
        fleet.pause_replica(0)
        if not poll_until(lambda: not fleet.routable("r0"),
                          timeout=WAIT_LIMIT):
            result.violations.append(
                "monitor never declared the paused replica down")
            return result
        for _ in range(4 if smoke else 8):
            status, accepted = _submit(fleet.router_url, _sim_job())
            if status != 202:
                result.violations.append(
                    f"submit during partition returned HTTP {status}")
                continue
            outcome = _wait_terminal(
                fleet.router_url, accepted["job_id"], WAIT_LIMIT)
            if outcome is None or outcome["status"] != "completed":
                result.violations.append(
                    f"job during partition did not complete: {outcome}")
        fleet.resume_replica(0)
        if not fleet.wait_routable(2, timeout=WAIT_LIMIT):
            result.violations.append(
                "resumed replica never rejoined the rotation")
        else:
            result.notes.append("partitioned replica rejoined after SIGCONT")
    return result


def scenario_cache_poison(tmp: Path, rng: random.Random,
                          smoke: bool) -> ScenarioResult:
    """A fault-corrupted shared-cache entry must be quarantined and
    rebuilt on next access — poison is never served as a result."""
    result = ScenarioResult("cache_poison")
    shared = tmp / f"shared-poison-{rng.randrange(1 << 30)}"
    state = tmp / f"poison-state-{rng.randrange(1 << 30)}"
    server = _LiveServer(_config(
        tmp, run_id="poison", workers=1, retries=0,
        shared_cache_dir=str(shared)))
    try:
        fault = {"spec": "corrupt:*:*", "state": str(state)}
        status, accepted = _submit(server.base, _sim_job(fault))
        if status != 202:
            result.violations.append(f"submit returned HTTP {status}")
            return result
        first = _wait_terminal(server.base, accepted["job_id"], WAIT_LIMIT)
        if first is None or first["status"] != "completed":
            result.violations.append(
                f"fault-carrying job did not complete: {first}")
            return result
        # Same pipeline key, no fault: must detect the poisoned entry,
        # quarantine it, rebuild, and return a *clean* result.
        status, accepted = _submit(server.base, _sim_job())
        second = _wait_terminal(server.base, accepted["job_id"], WAIT_LIMIT)
        if second is None or second["status"] != "completed":
            result.violations.append(
                f"job after poisoning did not complete: {second}")
            return result
        events = second.get("integrity_events") or {}
        if not events.get("shared_cache_poisoned"):
            result.violations.append(
                f"poisoned entry was not detected: events {events}")
        if not events.get("shared_cache_built"):
            result.violations.append(
                f"poisoned entry was not rebuilt: events {events}")
        if second.get("result") != first.get("result"):
            result.violations.append(
                "rebuilt result differs from the original")
        quarantined = list((shared / "quarantine").glob("*")) \
            if (shared / "quarantine").exists() else []
        if not quarantined:
            result.violations.append(
                "no quarantined entry on disk after poisoning")
        # Third hit must now be served clean from the rebuilt entry.
        status, accepted = _submit(server.base, _sim_job())
        third = _wait_terminal(server.base, accepted["job_id"], WAIT_LIMIT)
        if third is None or third["status"] != "completed" or not (
                third.get("integrity_events") or {}).get("shared_cache_hit"):
            result.violations.append(
                f"rebuilt entry not served as a clean hit: {third}")
        else:
            result.notes.append(
                "poison quarantined, rebuilt, then served clean")
    finally:
        server.shutdown()
    return result


def scenario_thundering_herd(tmp: Path, rng: random.Random,
                             smoke: bool) -> ScenarioResult:
    """M concurrent submissions of one pipeline key across two replica
    processes: the shared single-flight tier must build exactly once."""
    result = ScenarioResult("thundering_herd")
    from repro.service.fleet import Fleet

    herd = 6 if smoke else 10
    payload = {
        "kind": "simulate",
        "params": {"target": "transpose", "scale": "small", "cores": 2},
    }
    # Process isolation on purpose: each job's integrity-event delta is
    # measured inside its own forked worker, so the build/hit counts are
    # exact (thread workers share one process-wide ledger and overlapping
    # deltas double-count) — and the single-flight lock is exercised
    # across real process boundaries.
    with Fleet(_fleet_config(smoke, workers=2, isolation=None)) as fleet:
        bases = [ep.base_url for ep in fleet.core.endpoints()]
        accepted: List[Tuple[str, str]] = []  # (base, job_id)
        errors: List[str] = []
        lock = threading.Lock()

        def _one(index: int) -> None:
            base = bases[index % len(bases)]  # herd spans both processes
            status, body = _submit(base, dict(payload))
            with lock:
                if status == 202:
                    accepted.append((base, body["job_id"]))
                else:
                    errors.append(f"HTTP {status}")

        threads = [threading.Thread(target=_one, args=(i,), daemon=True)
                   for i in range(herd)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(WAIT_LIMIT)
        if errors:
            result.violations.append(f"herd submissions refused: {errors}")
        built = hits = coalesced = uncached = 0
        for base, job_id in accepted:
            outcome = _wait_terminal(base, job_id, WAIT_LIMIT)
            if outcome is None or outcome["status"] != "completed":
                result.violations.append(
                    f"herd job {job_id} did not complete: {outcome}")
                continue
            events = outcome.get("integrity_events") or {}
            built += events.get("shared_cache_built", 0)
            hits += events.get("shared_cache_hit", 0)
            coalesced += events.get("shared_cache_coalesced", 0)
            uncached += events.get("shared_cache_uncached", 0)
        if built != 1:
            result.violations.append(
                f"expected exactly 1 build for {herd} identical jobs, "
                f"got {built} (hits {hits}, coalesced {coalesced}, "
                f"uncached {uncached})")
        else:
            result.notes.append(
                f"1 build, {coalesced} coalesced, {hits} hits "
                f"across {len(bases)} replicas")
    return result


# -- durable-router / lease scenarios ----------------------------------------

class _ChildProc:
    """A ``gmap serve`` child process with a scanned stdout stream."""

    def __init__(self, argv: List[str]) -> None:
        import os
        import subprocess

        src_root = str(Path(__file__).resolve().parents[2])
        env = dict(os.environ)
        env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli"] + argv,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env)
        self.lines: List[str] = []
        self._thread = threading.Thread(target=self._drain, daemon=True)
        self._thread.start()

    def _drain(self) -> None:
        assert self.proc.stdout is not None
        for line in self.proc.stdout:
            self.lines.append(line)

    def await_match(self, pattern: str, timeout: float) -> Optional[str]:
        """First capture group of ``pattern`` in stdout, or None."""
        import re

        rx = re.compile(pattern)
        found: List[str] = []

        def _scan() -> bool:
            for line in list(self.lines):
                match = rx.search(line)
                if match:
                    found.append(match.group(1))
                    return True
            return False

        if poll_until(_scan, timeout=timeout):
            return found[0]
        return None

    def kill(self) -> None:
        """SIGKILL, reaped."""
        try:
            self.proc.kill()
            self.proc.wait(timeout=10)
        except OSError:
            pass


def _router_fleet_snapshot(url: str) -> Dict[str, Any]:
    try:
        status, body = _request(url + "/fleet")
    except OSError:
        return {}
    return body if status == 200 else {}


def scenario_router_kill(tmp: Path, rng: random.Random,
                         smoke: bool) -> ScenarioResult:
    """SIGKILL a durable standalone router (and one cross-host replica)
    mid-flight; a restarted router on the same ``--state-dir`` and port
    must serve every previously-terminal outcome unchanged and drive all
    in-flight jobs — including the dead replica's — to completion."""
    result = ScenarioResult("router_kill")
    state = tmp / f"router-state-{rng.randrange(1 << 30)}"
    shared = tmp / f"router-shared-{rng.randrange(1 << 30)}"

    def _router(port: int) -> _ChildProc:
        return _ChildProc(["serve", "--router-only",
                           "--state-dir", str(state), "--port", str(port)])

    children: List[_ChildProc] = []
    try:
        router = _router(0)
        children.append(router)
        url = router.await_match(r"router listening on (http://\S+)",
                                 WAIT_LIMIT)
        if url is None:
            result.violations.append("router never printed its ready line")
            return result
        port = int(url.rsplit(":", 1)[1])
        replicas: List[_ChildProc] = []
        for i in range(2):
            replica = _ChildProc([
                "serve", "--join", url, "--replica-id", f"rk{i}",
                "--serve-workers", "1", "--isolation", "thread",
                "--shared-cache-dir", str(shared), "--no-journal",
                "--join-interval", "0.5"])
            children.append(replica)
            replicas.append(replica)
            if replica.await_match(r"^listening on (http://\S+)",
                                   WAIT_LIMIT) is None:
                result.violations.append(
                    f"replica rk{i} never printed its ready line")
                return result
        if not poll_until(
                lambda: _router_fleet_snapshot(url).get("routable", 0) >= 2,
                timeout=WAIT_LIMIT):
            result.violations.append(
                "replicas never registered with the router")
            return result

        # Fast jobs to terminal: the outcomes that must survive the kill.
        settled: Dict[str, Dict[str, Any]] = {}
        for _ in range(3):
            status, accepted = _submit(url, _sim_job())
            if status != 202:
                result.violations.append(
                    f"pre-kill submit returned HTTP {status}")
                return result
            outcome = _wait_terminal(url, accepted["job_id"], WAIT_LIMIT)
            if outcome is None or outcome["status"] != "completed":
                result.violations.append(
                    f"pre-kill job did not complete: {outcome}")
                return result
            settled[accepted["job_id"]] = outcome

        # In-flight jobs: distinct keys spread over both single-worker
        # replicas, slow enough that they are still queued at kill time.
        inflight: Dict[str, str] = {}  # job_id -> replica_id
        for i in range(6):
            payload = {
                "kind": "simulate",
                "params": {
                    "target": ("transpose", "reduction",
                               "vectoradd")[i % 3],
                    "scale": "small", "cores": 1 + i // 3,
                },
            }
            status, accepted = _submit(url, payload)
            if status != 202:
                result.violations.append(
                    f"in-flight submit returned HTTP {status}")
                return result
            inflight[accepted["job_id"]] = accepted.get("replica", "")
        if len(inflight) < 3:
            result.violations.append(
                f"needed >= 3 in-flight jobs, got {len(inflight)}")
            return result

        # Kill the router, then the replica owning the most in-flight
        # jobs — its assignments are the reassignment work-list.
        owners = [rid for rid in inflight.values() if rid]
        victim_id = max(set(owners), key=owners.count) if owners else "rk0"
        victim_index = 0 if victim_id == "rk0" else 1
        router.kill()
        replicas[victim_index].kill()

        restarted = _router(port)
        children.append(restarted)
        if restarted.await_match(r"router listening on (http://\S+)",
                                 WAIT_LIMIT) is None:
            result.violations.append(
                "restarted router never printed its ready line")
            return result
        if not poll_until(
                lambda: _router_fleet_snapshot(url).get("routable", 0) >= 1,
                timeout=WAIT_LIMIT):
            result.violations.append(
                "surviving replica never re-registered after the restart")
            return result

        # Every pre-kill terminal outcome must be served unchanged.
        for job_id, before in settled.items():
            status, after = _request(f"{url}/jobs/{job_id}")
            if status != 200 or after.get("status") != "completed":
                result.violations.append(
                    f"terminal outcome lost across router kill: "
                    f"{job_id} -> HTTP {status} {after}")
            elif after.get("result") != before.get("result"):
                result.violations.append(
                    f"terminal result changed across router kill: {job_id}")
        # Every in-flight job must reach completion (reassigned as needed).
        for job_id in inflight:
            outcome = _wait_terminal(url, job_id, WAIT_LIMIT)
            if outcome is None or outcome["status"] != "completed":
                result.violations.append(
                    f"in-flight job {job_id} did not survive the router "
                    f"kill: {outcome}")
        snap = _router_fleet_snapshot(url)
        counters = snap.get("counters", {})
        if counters.get("recovered_terminal", 0) < len(settled):
            result.violations.append(
                f"restarted router recovered "
                f"{counters.get('recovered_terminal')} terminal outcomes, "
                f"expected >= {len(settled)}")
        if sum(1 for rid in inflight.values() if rid == victim_id) \
                and counters.get("reassigned", 0) < 1:
            result.violations.append(
                f"no reassignment recorded for the killed replica's "
                f"jobs: {counters}")
        result.notes.append(
            f"{len(settled)} outcomes survived, {len(inflight)} in-flight "
            f"completed, {counters.get('reassigned', 0)} reassigned after "
            f"killing {victim_id}")
    finally:
        for child in children:
            child.kill()
    return result


def _crash_with_lease(root: str, key: str, ttl: float) -> None:
    """Child body: take the key's build lease, then die without release."""
    import os

    from repro.core.shared_cache import SharedResultCache

    cache = SharedResultCache(root, lock_backend="lease", lease_ttl=ttl)
    cache._acquire(key)
    os._exit(1)


def scenario_lease_expiry(tmp: Path, rng: random.Random,
                          smoke: bool) -> ScenarioResult:
    """A builder SIGKILLed while holding a lease must not wedge the key:
    the next builder takes the expired lease over (one takeover event)
    and the build runs exactly once."""
    import multiprocessing
    import os

    from repro.core.integrity import integrity_events
    from repro.core.shared_cache import (
        EVENT_LEASE_TAKEOVER,
        SharedResultCache,
        STATUS_BUILT,
    )

    result = ScenarioResult("lease_expiry")
    root = tmp / f"lease-cache-{rng.randrange(1 << 30)}"
    key = "f" * 64
    ttl = 1.0
    cache = SharedResultCache(root, lock_backend="lease", lease_ttl=ttl,
                              lock_timeout=WAIT_LIMIT)
    lease_path = cache._lease_path(key)
    ctx = multiprocessing.get_context("fork")
    child = ctx.Process(target=_crash_with_lease,
                        args=(str(root), key, ttl))
    child.start()
    child.join(WAIT_LIMIT)
    if child.exitcode != 1 or not lease_path.exists():
        result.violations.append(
            f"child did not die holding the lease (exit {child.exitcode}, "
            f"lease present: {lease_path.exists()})")
        return result

    marker_dir = root / "markers"
    marker_dir.mkdir(parents=True, exist_ok=True)

    def _build() -> Dict[str, Any]:
        # O_CREAT|O_EXCL marker: a second concurrent build would raise.
        fd = os.open(marker_dir / f"build-{os.getpid()}",
                     os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        os.close(fd)
        return {"value": 42}

    before = integrity_events.snapshot()
    started = time.monotonic()
    body, status = cache.single_flight(key, _build)
    waited = time.monotonic() - started
    delta = integrity_events.delta(before)
    if status != STATUS_BUILT or body != {"value": 42}:
        result.violations.append(
            f"takeover build did not run: status {status!r}, body {body}")
    if not delta.get(EVENT_LEASE_TAKEOVER):
        result.violations.append(
            f"no {EVENT_LEASE_TAKEOVER} event recorded: {delta}")
    markers = list(marker_dir.glob("build-*"))
    if len(markers) != 1:
        result.violations.append(
            f"expected exactly 1 build, found {len(markers)} markers")
    if waited > 10 * ttl + 5.0:
        result.violations.append(
            f"takeover took {waited:.1f}s for a {ttl}s lease TTL")
    if not result.violations:
        result.notes.append(
            f"expired lease taken over in {waited:.2f}s, built once")
    return result


SCENARIOS = (
    scenario_worker_kill_retries,
    scenario_worker_kill_exhausts,
    scenario_hang_deadline,
    scenario_corrupt_artifact,
    scenario_queue_flood,
    scenario_drain_resume,
    scenario_replica_kill,
    scenario_router_partition,
    scenario_cache_poison,
    scenario_thundering_herd,
    scenario_router_kill,
    scenario_lease_expiry,
)


def run_chaos(smoke: bool = False, seed: int = 1234,
              tmp: Optional[Path] = None,
              only: Optional[Union[str, List[str]]] = None,
              ) -> List[ScenarioResult]:
    """Execute the scenarios (all, or the ``only``-named ones), in order."""
    rng = random.Random(seed)
    wanted = None if only is None else (
        {only} if isinstance(only, str) else set(only))
    selected = [s for s in SCENARIOS
                if wanted is None
                or s.__name__[len("scenario_"):] in wanted]
    if not selected or (wanted is not None
                        and len(selected) != len(wanted)):
        names = ", ".join(s.__name__[len("scenario_"):] for s in SCENARIOS)
        raise ValueError(f"unknown scenario in {only!r}; available: {names}")
    results = []
    tmpdir = tempfile.TemporaryDirectory(prefix="gmap-chaos-") \
        if tmp is None else None
    root = Path(tmpdir.name) if tmpdir else Path(tmp)
    try:
        for scenario in selected:
            results.append(scenario(root, rng, smoke))
    finally:
        if tmpdir is not None:
            tmpdir.cleanup()
    return results


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point: run the scenarios, print a verdict per scenario,
    optionally write a JSON report (``--out``); exit 0 iff none violated."""
    parser = argparse.ArgumentParser(
        description="gmap serve chaos harness (see docs/robustness.md)")
    parser.add_argument("--smoke", action="store_true",
                        help="reduced load (CI-sized flood)")
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--out", default=None,
                        help="write a JSON report to this path")
    parser.add_argument("--only", default=None, metavar="SCENARIO",
                        nargs="+",
                        help="run only the named scenario(s) "
                             "(e.g. queue_flood replica_kill)")
    args = parser.parse_args(argv)
    results = run_chaos(smoke=args.smoke, seed=args.seed, only=args.only)
    failures = 0
    for result in results:
        marker = "ok " if result.ok else "FAIL"
        notes = f" ({'; '.join(result.notes)})" if result.notes else ""
        print(f"[{marker}] {result.name}{notes}")
        for violation in result.violations:
            failures += 1
            print(f"       - {violation}")
    if args.out:
        report = {
            "seed": args.seed,
            "smoke": args.smoke,
            "scenarios": [
                {"name": r.name, "ok": r.ok, "violations": r.violations,
                 "notes": r.notes}
                for r in results
            ],
        }
        Path(args.out).write_text(json.dumps(report, indent=2))
    print(f"{len(results) - sum(1 for r in results if not r.ok)}/"
          f"{len(results)} scenarios held "
          f"({failures} violation(s))")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
