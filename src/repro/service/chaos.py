"""Chaos harness for ``gmap serve``: inject faults, assert survival.

Boots a real service (HTTP listener included) per scenario, injects the
sweep engine's fault families — worker kills, hangs, corrupt artifacts,
one :data:`FAULT_CASES` row each — plus service-specific abuse (queue
floods, drain mid-flight, fleet and lease faults), and asserts the
acceptance invariants:

* the server process never crashes;
* every submission terminates with a well-typed outcome: completed,
  failed with a taxonomy kind, or rejected with an HTTP-style code;
* the queue stays bounded (shedding, not accumulation);
* degraded responses are explicitly labeled;
* a SIGTERM-style drain checkpoints unfinished jobs and the next boot
  resumes every one of them under its original id;
* a fleet loses no request across a replica SIGKILL, the killed replica
  rejoins within :data:`WAIT_LIMIT`, and past saturation it sheds rather
  than fails while interactive work keeps a bounded tail (and, with
  ``--require-scaling X``, 3 replicas give X times 1 replica's
  throughput).

Run it directly (``python -m repro.service.chaos --smoke``) — the CI
``service`` job does exactly that under a hard wall-clock timeout.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple, Union

if TYPE_CHECKING:
    from repro.service.fleet import FleetConfig
    from repro.service.loadgen import LoadReport

from repro.service.backoff import poll_until
from repro.service.config import ServiceConfig
from repro.service.router import http_json
from repro.service.server import GmapService, ServeHTTPServer

#: Upper bound on any single wait inside a scenario, seconds; also the
#: bound on a killed replica's kill-to-routable recovery.
WAIT_LIMIT = 60.0

#: Per-request HTTP timeout of the harness's own client calls, seconds.
REQUEST_TIMEOUT = 30.0

#: Upper bound on the interactive lane's p99 while bulk traffic saturates
#: the fleet, ms.  Generous: it catches starvation (p99 at the job
#: deadline), not jitter.
INTERACTIVE_P99_BOUND_MS = 30_000.0


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
        status, payload = http_json("POST", self.base + "/drain",
                                    timeout=REQUEST_TIMEOUT)
        # /drain schedules its own HTTP shutdown; join and release.
        self._thread.join(10.0)
        self.httpd.server_close()
        self.service.stop()
        if status != 200:
            raise RuntimeError(f"drain returned HTTP {status}: {payload}")
        return payload


def _submit(base: str, payload: Dict[str, Any]) -> Tuple[int, Dict[str, Any]]:
    return http_json("POST", base + "/jobs", payload, timeout=REQUEST_TIMEOUT)


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


def _await(result: ScenarioResult, base: str, job_id: str, what: str,
           expect: Tuple[str, ...] = ("completed",),
           timeout: float = WAIT_LIMIT) -> Optional[Dict[str, Any]]:
    """Poll a job to its terminal outcome; None (and a violation) if it
    never settles or settles outside ``expect``."""
    terminal: List[Dict[str, Any]] = []

    def _settled() -> bool:
        status, payload = http_json("GET", f"{base}/jobs/{job_id}",
                                    timeout=REQUEST_TIMEOUT)
        if status == 200 and payload.get("status") in (
                "completed", "failed", "rejected"):
            terminal.append(payload)
            return True
        return False

    if not poll_until(_settled, timeout=min(timeout, WAIT_LIMIT)):
        result.violations.append(
            f"{what} {job_id} never reached a terminal status")
        return None
    outcome = terminal[0]
    if outcome["status"] not in expect:
        result.violations.append(
            f"{what} {job_id} ended {outcome['status']}, expected "
            f"{'/'.join(expect)}: {outcome}")
        return None
    return outcome


def _run_job(result: ScenarioResult, base: str, payload: Dict[str, Any],
             what: str, expect: Tuple[str, ...] = ("completed",),
             timeout: float = WAIT_LIMIT) -> Optional[Dict[str, Any]]:
    """Submit, require 202, wait terminal: the outcome, or None after
    recording the violation."""
    status, accepted = _submit(base, payload)
    if status != 202:
        result.violations.append(f"{what}: submit returned HTTP {status}")
        return None
    return _await(result, base, accepted["job_id"], what, expect, timeout)


# -- single-server fault table ----------------------------------------------

@dataclass(frozen=True)
class FaultCase:
    """One single-server fault scenario as data: the server overrides, the
    faulty job, and the typed outcome that proves the server survived.

    The job must end in ``status`` (with an ``error_kinds`` kind and
    exactly ``attempts`` attempts, where given) within ``deadline``
    seconds of its submission; a clean job must then still complete.
    """

    name: str
    doc: str
    job: Callable[[Path, random.Random], Dict[str, Any]]
    overrides: Dict[str, Any] = field(default_factory=dict)
    status: str = "failed"
    error_kinds: Tuple[str, ...] = ()
    attempts: Optional[int] = None
    deadline: float = WAIT_LIMIT


def _corrupt_trace_job(tmp: Path, rng: random.Random) -> Dict[str, Any]:
    """A profile job over a bit-flipped trace: the ``.npz`` container
    where NumPy is importable, else the checksummed text trace."""
    from repro.core.backend import numpy_available
    from repro.gpu.executor import kernel_warp_traces
    from repro.io.trace_io import save_warp_traces
    from repro.workloads import suite

    suffix = ".trace.npz" if numpy_available() else ".trace"
    trace_path = tmp / f"chaos-input{suffix}"
    kernel = suite.make("vectoradd", scale="tiny")
    save_warp_traces(kernel_warp_traces(kernel), trace_path)
    blob = bytearray(trace_path.read_bytes())
    for _ in range(32):  # flip bytes across the middle of the file
        index = rng.randrange(len(blob) // 4, len(blob) - 1)
        blob[index] ^= 0xFF
    trace_path.write_bytes(bytes(blob))
    return {"kind": "profile", "params": {"benchmark": str(trace_path)}}


FAULT_CASES = (
    FaultCase(
        "worker_kill_retries",
        "A once-fault kills the first worker; the retry must succeed.",
        lambda tmp, rng: _sim_job({
            "spec": "crash:*:*",
            "state": str(tmp / f"kill-state-{rng.randrange(1 << 30)}")}),
        status="completed", attempts=2),
    FaultCase(
        "worker_kill_exhausts",
        "An always-crash fault must yield a typed worker_crash failure.",
        lambda tmp, rng: _sim_job({"spec": "crash:*:*:always"}),
        overrides={"retries": 1}, error_kinds=("worker_crash",),
        attempts=2),
    FaultCase(
        "hang_deadline",
        "A hung worker must be killed at the deadline and typed timeout.",
        lambda tmp, rng: _sim_job({"spec": "hang:*:*:always:30"}),
        overrides={"job_timeout": 1.5, "retries": 0},
        error_kinds=("timeout",), deadline=15.0),
    FaultCase(
        "corrupt_artifact",
        "A bit-flipped input artifact must fail typed, never crash or hang.",
        _corrupt_trace_job, overrides={"retries": 0},
        error_kinds=("corrupt_artifact", "simulation_error",
                     "invalid_request")),
)


def _run_fault_case(case: FaultCase, tmp: Path,
                    rng: random.Random) -> ScenarioResult:
    result = ScenarioResult(case.name)
    job = case.job(tmp, rng)
    server = _LiveServer(_config(tmp, run_id=case.name, **case.overrides))
    try:
        started = time.monotonic()
        outcome = _run_job(result, server.base, job, "faulty job",
                           expect=(case.status,), timeout=case.deadline)
        elapsed = time.monotonic() - started
        if outcome is not None:
            kind = outcome.get("error_kind")
            if case.error_kinds and kind not in case.error_kinds:
                result.violations.append(
                    f"expected error kind in {case.error_kinds}, got "
                    f"{outcome}")
            if case.attempts is not None \
                    and outcome.get("attempts") != case.attempts:
                result.violations.append(
                    f"expected exactly {case.attempts} attempts, got "
                    f"{outcome.get('attempts')}")
            result.notes.append(
                f"{outcome['status']} ({kind or 'no error'}) after "
                f"{outcome.get('attempts')} attempt(s) in {elapsed:.1f}s")
        _run_job(result, server.base, _sim_job(), "clean job after the fault")
    finally:
        server.shutdown()
    return result


def _fault_scenario(case: FaultCase) -> Callable[..., ScenarioResult]:
    def scenario(tmp: Path, rng: random.Random,
                 smoke: bool) -> ScenarioResult:
        return _run_fault_case(case, tmp, rng)

    scenario.__name__ = scenario.__qualname__ = f"scenario_{case.name}"
    scenario.__doc__ = case.doc
    return scenario


# -- scenarios --------------------------------------------------------------

def scenario_queue_flood(tmp: Path, rng: random.Random,
                         smoke: bool) -> ScenarioResult:
    """Flood a tiny queue: shedding with a ``retry_after`` hint, bounded
    depth, and a terminal outcome for every accepted job."""
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
                if not payload.get("retry_after"):
                    result.violations.append(
                        "429 response carried no retry_after hint")
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
            _await(result, server.base, job_id, "accepted job",
                   expect=("completed", "failed"))
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
            _await(result, second.base, job_id, "resumed job")
    finally:
        second.shutdown()
    return result


# -- fleet scenarios --------------------------------------------------------

def _fleet_config(smoke: bool, **overrides: Any) -> "FleetConfig":
    from repro.service.fleet import FleetConfig

    defaults = dict(
        replicas=2, workers=1 if smoke else 2, queue_capacity=16,
        job_timeout=30.0, health_interval=0.2,
        restart_base=0.1, boot_timeout=WAIT_LIMIT,
    )
    defaults.update(overrides)
    return FleetConfig(**defaults)


def _background(run: Callable[[], "LoadReport"],
                ) -> Tuple[threading.Thread, Dict[str, "LoadReport"]]:
    """Run a load on a daemon thread; its report lands under ``"report"``."""
    holder: Dict[str, "LoadReport"] = {}
    thread = threading.Thread(target=lambda: holder.update(report=run()),
                              daemon=True)
    thread.start()
    return thread, holder


def _check_load(result: ScenarioResult, what: str,
                report: "LoadReport") -> Dict[str, Any]:
    """The report as a dict, after recording a violation unless every
    request completed or was shed (a shed is a correct answer to
    overload; a failure, a loss or an unsettled request is not)."""
    stats = report.to_dict()
    if stats["completed"] + stats["shed"] != stats["submitted"]:
        errors = stats["errors"]
        result.violations.append(
            f"{what}: {stats['failed']} failed, {stats['lost']} lost, "
            f"{stats['completed']} completed and {stats['shed']} shed of "
            f"{stats['submitted']} submitted"
            + (f" (first error: {errors[0]})" if errors else ""))
    return stats


def scenario_replica_kill(tmp: Path, rng: random.Random,
                          smoke: bool) -> ScenarioResult:
    """SIGKILL one replica under closed-loop load: no request fails or is
    lost (the router reassigns the orphans), and the supervised restart
    re-registers with a higher epoch, routable within :data:`WAIT_LIMIT`
    of the kill and counted as exactly one restart."""
    result = ScenarioResult("replica_kill")
    from repro.service.fleet import Fleet
    from repro.service.loadgen import ReqGenEngine, Workload

    total = 16 if smoke else 40
    with Fleet(_fleet_config(smoke)) as fleet:
        engine = ReqGenEngine(seed=rng.randrange(1 << 30),
                              key_diversity=total, scale="small")
        workload = Workload(fleet.router_url, engine,
                            job_deadline=WAIT_LIMIT)
        thread, holder = _background(
            lambda: workload.run_closed(clients=3, max_requests=total))
        if not poll_until(lambda: workload.progress() >= total // 4,
                          timeout=WAIT_LIMIT):
            result.violations.append("workload never reached steady state")
        victim = fleet.core.endpoint("r0")
        assert victim is not None, "Fleet.start waits for every replica"
        epoch = victim.epoch
        killed_at = time.monotonic()
        fleet.kill_replica(0)
        # Waiting for the epoch keeps the check from reading "routable"
        # off the dead incarnation before the router has noticed it died.
        if poll_until(lambda: victim.epoch > epoch and victim.routable,
                      timeout=WAIT_LIMIT):
            result.notes.append(f"r0 rejoined "
                                f"{time.monotonic() - killed_at:.1f}s "
                                f"after the kill")
        else:
            result.violations.append(
                f"killed replica did not rejoin with a higher epoch within "
                f"{WAIT_LIMIT:.0f}s")
        restarts = victim.snapshot()["restarts"]
        if restarts != 1:
            result.violations.append(
                f"expected exactly 1 restart of r0, got {restarts}")
        thread.join(2 * WAIT_LIMIT)
        report = holder.get("report")
        if report is None:
            result.violations.append("workload thread never finished")
            return result
        stats = _check_load(result, "load across a replica kill", report)
        counters = fleet.snapshot()["counters"]
        result.notes.append(
            f"{stats['completed']}/{stats['submitted']} completed, "
            f"{counters['reassigned']} reassigned, "
            f"{counters['spilled']} spilled")
    return result


def scenario_fleet_saturation(tmp: Path, rng: random.Random, smoke: bool,
                              require_scaling: Optional[float] = None,
                              ) -> ScenarioResult:
    """Drive fleets to and past saturation, each phase on a fresh fleet so
    that none warms another's shared cache: a closed loop on 1 replica and
    then on 3, an open loop at twice the 3-replica throughput, then bulk
    traffic at that rate beside a closed interactive loop.  No request
    fails or is lost (sheds are allowed); the interactive lane completes
    with p99 <= :data:`INTERACTIVE_P99_BOUND_MS`; and with
    ``require_scaling``, 3 replicas give at least that multiple of 1
    replica's throughput.  The sizes are fixed, ``smoke`` or not: 12
    ``tiny`` requests per closed loop, 1 worker and queue capacity 4 per
    replica, 3 s open loops."""
    result = ScenarioResult("fleet_saturation")
    from repro.service.fleet import Fleet
    from repro.service.loadgen import ReqGenEngine, Workload
    from repro.service.protocol import PRIORITY_BULK, PRIORITY_INTERACTIVE

    replicas, requests, duration = 3, 12, 3.0

    def fresh_fleet(size: int) -> Fleet:
        return Fleet(_fleet_config(smoke, replicas=size, workers=1,
                                   queue_capacity=4, job_timeout=WAIT_LIMIT))

    def workload(url: str, key_diversity: int,
                 priority: str = PRIORITY_INTERACTIVE) -> Workload:
        engine = ReqGenEngine(seed=rng.randrange(1 << 30),
                              key_diversity=key_diversity, scale="tiny",
                              priority=priority)
        return Workload(url, engine, job_deadline=WAIT_LIMIT)

    rps: Dict[int, float] = {}
    for size in (1, replicas):
        with fresh_fleet(size) as fleet:
            report = workload(fleet.router_url, 2 * requests).run_closed(
                clients=2 * size, max_requests=requests)
        rps[size] = _check_load(result, f"closed loop on {size} replica(s)",
                                report)["throughput_rps"]
    scaling = rps[replicas] / rps[1] if rps[1] > 0 else 0.0
    rate = max(2.0, 2.0 * rps[replicas])

    with fresh_fleet(replicas) as fleet:
        overload = _check_load(
            result, f"open loop at {rate:.1f} rps",
            workload(fleet.router_url, 64).run_open(rate=rate,
                                                    duration=duration))

    with fresh_fleet(replicas) as fleet:
        bulk = workload(fleet.router_url, 64, PRIORITY_BULK)
        thread, holder = _background(
            lambda: bulk.run_open(rate=rate, duration=duration))
        threading.Event().wait(0.3)  # let bulk pressure build first
        interactive = workload(fleet.router_url, requests).run_closed(
            clients=2, max_requests=requests // 2)
        thread.join(duration + 2 * WAIT_LIMIT)
    if "report" in holder:
        _check_load(result, "bulk lane", holder["report"])
    else:
        result.violations.append("bulk load never finished")
    inter = _check_load(result, "interactive lane", interactive)
    p99 = inter["latency_ms"]["p99"]
    if inter["completed"] == 0:
        result.violations.append("interactive lane completed nothing "
                                 "under bulk saturation")
    if p99 > INTERACTIVE_P99_BOUND_MS:
        result.violations.append(
            f"interactive p99 {p99:.0f} ms under bulk saturation exceeds "
            f"{INTERACTIVE_P99_BOUND_MS:.0f} ms")
    if require_scaling is not None and scaling < require_scaling:
        result.violations.append(
            f"{replicas} replicas gave {scaling:.2f}x the throughput of 1, "
            f"below the {require_scaling:.2f}x floor")
    result.notes.append(
        f"1 replica {rps[1]:.1f} rps, {replicas} replicas "
        f"{rps[replicas]:.1f} rps ({scaling:.2f}x"
        f"{'' if require_scaling is not None else ', unarmed'}), open loop "
        f"at {rate:.1f} rps shed {overload['shed_rate']:.0%}, interactive "
        f"p99 {p99:.0f} ms under bulk")
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
            _run_job(result, fleet.router_url, _sim_job(),
                     "job during partition")
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
        first = _run_job(result, server.base, _sim_job(fault),
                         "fault-carrying job")
        if first is None:
            return result
        # Same pipeline key, no fault: must detect the poisoned entry,
        # quarantine it, rebuild, and return a *clean* result.
        second = _run_job(result, server.base, _sim_job(),
                          "job after poisoning")
        if second is None:
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
        if not any((shared / "quarantine").glob("*")):
            result.violations.append(
                "no quarantined entry on disk after poisoning")
        # Third hit must now be served clean from the rebuilt entry.
        third = _run_job(result, server.base, _sim_job(), "job after rebuild")
        if third is None:
            return result
        if not (third.get("integrity_events") or {}).get("shared_cache_hit"):
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
    with Fleet(_fleet_config(smoke, workers=2)) as fleet:
        bases = [ep.base_url for ep in fleet.core.endpoints()]
        def _one(index: int) -> Tuple[str, int, Dict[str, Any]]:
            base = bases[index % len(bases)]  # herd spans both processes
            return (base,) + _submit(base, dict(payload))

        with ThreadPoolExecutor(max_workers=herd) as pool:
            submissions = list(pool.map(_one, range(herd)))
        built = hits = coalesced = uncached = 0
        for base, status, body in submissions:
            if status != 202:
                result.violations.append(
                    f"herd submission refused: HTTP {status}")
                continue
            outcome = _await(result, base, body["job_id"], "herd job")
            if outcome is None:
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
        status, body = http_json("GET", url + "/fleet",
                                 timeout=REQUEST_TIMEOUT)
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
                "--serve-workers", "1",
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
            outcome = _run_job(result, url, _sim_job(), "pre-kill job")
            if outcome is None:
                return result
            settled[outcome["job_id"]] = outcome

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
            status, after = http_json("GET", f"{url}/jobs/{job_id}",
                                      timeout=REQUEST_TIMEOUT)
            if status != 200 or after.get("status") != "completed":
                result.violations.append(
                    f"terminal outcome lost across router kill: "
                    f"{job_id} -> HTTP {status} {after}")
            elif after.get("result") != before.get("result"):
                result.violations.append(
                    f"terminal result changed across router kill: {job_id}")
        # Every in-flight job must reach completion (reassigned as needed).
        for job_id in inflight:
            _await(result, url, job_id, "in-flight job after the router kill")
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
    from repro.core.shared_cache import SharedResultCache

    cache = SharedResultCache(root, lease_ttl=ttl)
    cache._acquire(key)
    os._exit(1)


def scenario_lease_expiry(tmp: Path, rng: random.Random,
                          smoke: bool) -> ScenarioResult:
    """A builder that dies holding a lease must not wedge the key.

    A builder SIGKILLed on this host is seen dead and taken over at once,
    well inside its 30 s TTL.  A silent builder on another host (a planted
    ``otherhost:1:0`` lease) is taken over only after its TTL.  Each key
    shows one takeover event and exactly one build."""
    import multiprocessing

    from repro.core.integrity import integrity_events
    from repro.core.lease import LeaseFile
    from repro.core.shared_cache import (
        EVENT_LEASE_TAKEOVER,
        SharedResultCache,
        STATUS_BUILT,
    )

    result = ScenarioResult("lease_expiry")
    root = tmp / f"lease-cache-{rng.randrange(1 << 30)}"
    dead_key, foreign_key = "d" * 64, "f" * 64
    dead_ttl, foreign_ttl = 30.0, 1.0
    cache = SharedResultCache(root, lock_timeout=WAIT_LIMIT)

    def _take_over(key: str) -> float:
        marker_dir = root / f"markers-{key[0]}"
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
        if delta.get(EVENT_LEASE_TAKEOVER) != 1:
            result.violations.append(
                f"expected one {EVENT_LEASE_TAKEOVER} event: {delta}")
        markers = list(marker_dir.glob("build-*"))
        if len(markers) != 1:
            result.violations.append(
                f"expected exactly 1 build, found {len(markers)} markers")
        return waited

    lease_path = cache._lease_path(dead_key)
    ctx = multiprocessing.get_context("fork")
    child = ctx.Process(target=_crash_with_lease,
                        args=(str(root), dead_key, dead_ttl))
    child.start()
    child.join(WAIT_LIMIT)
    if child.exitcode != 1 or not lease_path.exists():
        result.violations.append(
            f"child did not die holding the lease (exit {child.exitcode}, "
            f"lease present: {lease_path.exists()})")
        return result
    dead_wait = _take_over(dead_key)
    if dead_wait > 5.0:
        result.violations.append(
            f"dead same-host builder taken over after {dead_wait:.1f}s, "
            f"not at once ({dead_ttl}s TTL)")

    LeaseFile(cache._lease_path(foreign_key), owner_id="otherhost:1:0",
              ttl=foreign_ttl).try_acquire()
    foreign_wait = _take_over(foreign_key)
    if foreign_wait < 0.9 * foreign_ttl:
        result.violations.append(
            f"foreign lease taken over after {foreign_wait:.2f}s, "
            f"before its {foreign_ttl}s TTL")
    if foreign_wait > 10 * foreign_ttl + 5.0:
        result.violations.append(
            f"takeover took {foreign_wait:.1f}s for a {foreign_ttl}s TTL")
    if not result.violations:
        result.notes.append(
            f"dead builder taken over in {dead_wait:.2f}s, foreign lease "
            f"after {foreign_wait:.2f}s ({foreign_ttl}s TTL), each built "
            f"once")
    return result


SCENARIOS = tuple(_fault_scenario(case) for case in FAULT_CASES) + (
    scenario_queue_flood,
    scenario_drain_resume,
    scenario_replica_kill,
    scenario_fleet_saturation,
    scenario_router_partition,
    scenario_cache_poison,
    scenario_thundering_herd,
    scenario_router_kill,
    scenario_lease_expiry,
)


def run_chaos(smoke: bool = False, seed: int = 1234,
              tmp: Optional[Path] = None,
              only: Optional[Union[str, List[str]]] = None,
              require_scaling: Optional[float] = None,
              ) -> List[ScenarioResult]:
    """Execute the scenarios (all, or the ``only``-named ones), in order;
    ``require_scaling`` arms :func:`scenario_fleet_saturation`'s floor."""
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
            if scenario is scenario_fleet_saturation:
                results.append(scenario_fleet_saturation(
                    root, rng, smoke, require_scaling=require_scaling))
            else:
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
    parser.add_argument("--require-scaling", type=float, default=None,
                        metavar="X",
                        help="fleet_saturation fails unless 3 replicas give "
                             "X times the throughput of 1 (unarmed by "
                             "default: on a few CPUs smoke sizes measure "
                             "scheduling noise)")
    args = parser.parse_args(argv)
    if args.require_scaling is not None and args.only \
            and "fleet_saturation" not in args.only:
        parser.error("--require-scaling arms fleet_saturation, which "
                     "--only leaves out")
    results = run_chaos(smoke=args.smoke, seed=args.seed, only=args.only,
                        require_scaling=args.require_scaling)
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
