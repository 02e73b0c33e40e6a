"""``gmap bench-serve``: the fleet's performance and resilience report.

Five phases, each against a fresh fleet (own shared-cache tempdir, so no
phase warms another's cache):

1. **single** — closed-loop saturation of one replica: the scaling
   baseline;
2. **fleet** — the same workload against N replicas: ``scaling_x`` is the
   throughput ratio (gated only under ``--require-scaling``, because a
   single-core machine cannot scale by adding processes);
3. **overload** — open-loop arrivals at 2x the fleet's measured
   saturation throughput: reports the shed rate and tail latency under
   deliberate overload (sheds are *correct* here; failures are not);
4. **recovery** — SIGKILL one replica mid-run: reports the time until
   the fleet is back to full strength and asserts zero non-shed
   failures across the kill;
5. **priority** — open-loop *bulk* arrivals at 2x fleet saturation with
   a concurrent closed-loop *interactive* stream: reports
   ``bulk_saturation_interactive_p99`` and gates that interactive work
   still completes (bulk sheds are correct; interactive losses are not).

The JSON report (``BENCH_serve.json``, ``schema`` 2) is consumed by the
CI ``fleet`` job, which gates on schema validity and the zero-failure
invariant.  Schema 2 is a superset of schema 1: every schema-1 field is
still present, plus per-lane latency blocks (``by_lane``) and the
``priority`` phase.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Any, Dict, List, Optional

from repro.service.backoff import poll_until
from repro.service.fleet import Fleet, FleetConfig
from repro.service.loadgen import LoadReport, ReqGenEngine, Workload
from repro.service.protocol import PRIORITY_BULK, PRIORITY_INTERACTIVE

BENCH_SCHEMA = 2

#: Upper bound on kill -> full-strength recovery, seconds (gate).
RECOVERY_BOUND_SECONDS = 60.0

#: Upper bound on interactive p99 while bulk saturates the fleet, ms.
#: Generous — the gate catches starvation (p99 at the job deadline),
#: not jitter.
INTERACTIVE_P99_BOUND_MS = 30_000.0

#: Report keys every phase block must carry (schema gate).
_REPORT_KEYS = ("submitted", "completed", "failed", "shed", "lost",
                "throughput_rps", "latency_ms")


def _fleet_config(replicas: int, smoke: bool) -> FleetConfig:
    return FleetConfig(
        replicas=replicas,
        workers=1 if smoke else 2,
        queue_capacity=4 if smoke else 16,
        job_timeout=60.0,
        health_interval=0.2,
        restart_base=0.1,
        boot_timeout=60.0,
    )


def _closed_phase(replicas: int, smoke: bool, seed: int,
                  requests: int, clients: int,
                  scale: str) -> LoadReport:
    with Fleet(_fleet_config(replicas, smoke)) as fleet:
        engine = ReqGenEngine(seed=seed, key_diversity=2 * requests,
                              scale=scale)
        workload = Workload(fleet.router_url, engine, job_deadline=60.0)
        return workload.run_closed(clients=clients, max_requests=requests)


def _overload_phase(replicas: int, smoke: bool, seed: int,
                    rate: float, duration: float,
                    scale: str) -> LoadReport:
    with Fleet(_fleet_config(replicas, smoke)) as fleet:
        engine = ReqGenEngine(seed=seed, key_diversity=64, scale=scale)
        workload = Workload(fleet.router_url, engine, job_deadline=60.0)
        return workload.run_open(rate=rate, duration=duration)


def _recovery_phase(replicas: int, smoke: bool, seed: int,
                    requests: int, scale: str) -> Dict[str, Any]:
    with Fleet(_fleet_config(replicas, smoke)) as fleet:
        engine = ReqGenEngine(seed=seed, key_diversity=2 * requests,
                              scale=scale)
        workload = Workload(fleet.router_url, engine, job_deadline=60.0)
        result: Dict[str, LoadReport] = {}
        thread = threading.Thread(
            target=lambda: result.update(report=workload.run_closed(
                clients=max(2, replicas), max_requests=requests)),
            daemon=True)
        thread.start()
        threading.Event().wait(0.3)  # let the loop reach steady state
        killed = fleet.core.endpoint("r0")
        assert killed is not None, "r0 never registered"
        epoch = killed.epoch
        killed_at = time.monotonic()
        fleet.kill_replica(0)
        # Recovery is kill -> restart -> the new process registers with a
        # higher epoch -> full strength.  Waiting for the epoch keeps a
        # fast check from reading "all routable" off the dead incarnation
        # before the router has even noticed it.
        rejoined = poll_until(lambda: killed.epoch > epoch, timeout=60.0)
        recovered = rejoined and fleet.wait_routable(replicas, timeout=60.0)
        recovery_seconds = time.monotonic() - killed_at
        thread.join(120.0)
        report = result.get("report")
        return {
            "killed_replica": "r0",
            "recovered": recovered,
            "kill_to_routable_seconds": round(recovery_seconds, 3),
            "report": report.to_dict() if report else None,
            "counters": fleet.snapshot()["counters"],
        }


def _priority_phase(replicas: int, smoke: bool, seed: int,
                    bulk_rate: float, duration: float,
                    requests: int, scale: str) -> Dict[str, Any]:
    """Bulk saturation with a concurrent interactive stream.

    The bulk lane runs open-loop at ``bulk_rate`` (2x measured fleet
    saturation) for ``duration`` seconds; while it hammers the fleet, a
    small closed-loop interactive stream must keep completing with a
    bounded tail.  The weighted dequeue plus the bulk-lane shed bound is
    what makes that possible.
    """
    with Fleet(_fleet_config(replicas, smoke)) as fleet:
        bulk_engine = ReqGenEngine(seed=seed, key_diversity=64,
                                   scale=scale, priority=PRIORITY_BULK)
        bulk_load = Workload(fleet.router_url, bulk_engine,
                             job_deadline=60.0)
        bulk_result: Dict[str, LoadReport] = {}
        bulk_thread = threading.Thread(
            target=lambda: bulk_result.update(report=bulk_load.run_open(
                rate=bulk_rate, duration=duration)),
            daemon=True)
        bulk_thread.start()
        threading.Event().wait(0.3)  # let bulk pressure build first
        inter_engine = ReqGenEngine(seed=seed + 1,
                                    key_diversity=2 * requests,
                                    scale=scale,
                                    priority=PRIORITY_INTERACTIVE)
        inter_load = Workload(fleet.router_url, inter_engine,
                              job_deadline=60.0)
        interactive = inter_load.run_closed(clients=2,
                                            max_requests=requests)
        bulk_thread.join(duration + 120.0)
        bulk = bulk_result.get("report")
        inter_doc = interactive.to_dict()
        lane = inter_doc["by_lane"].get(PRIORITY_INTERACTIVE, {})
        p99 = lane.get("latency_ms", {}).get(
            "p99", inter_doc["latency_ms"]["p99"])
        return {
            "offered_bulk_rate_rps": round(bulk_rate, 3),
            "bulk": bulk.to_dict() if bulk else None,
            "interactive": inter_doc,
            "bulk_saturation_interactive_p99": p99,
        }


def validate_report(doc: Dict[str, Any]) -> Optional[str]:
    """None when ``doc`` matches the BENCH_serve schema, else the reason.

    Kept importable (CI and tests call it) so the gate and the producer
    cannot drift apart.
    """
    if doc.get("schema") != BENCH_SCHEMA:
        return f"schema must be {BENCH_SCHEMA}, got {doc.get('schema')}"
    for phase in ("single", "fleet"):
        block = doc.get(phase)
        if not isinstance(block, dict):
            return f"missing phase block {phase!r}"
        for key in _REPORT_KEYS:
            if key not in block:
                return f"{phase} block missing {key!r}"
    overload = doc.get("overload")
    if not isinstance(overload, dict) or "report" not in overload \
            or "offered_rate_rps" not in overload:
        return "overload block missing report/offered_rate_rps"
    recovery = doc.get("recovery")
    if not isinstance(recovery, dict) \
            or "kill_to_routable_seconds" not in recovery:
        return "recovery block missing kill_to_routable_seconds"
    priority = doc.get("priority")
    if not isinstance(priority, dict) \
            or "bulk_saturation_interactive_p99" not in priority \
            or "interactive" not in priority:
        return ("priority block missing "
                "bulk_saturation_interactive_p99/interactive")
    if not isinstance(doc.get("gates"), dict):
        return "missing gates block"
    return None


def run_bench(
    out: str = "BENCH_serve.json",
    smoke: bool = False,
    seed: int = 1234,
    replicas: int = 3,
    require_scaling: Optional[float] = None,
) -> int:
    """Run all five phases and write the gated report; 0 iff every gate
    holds.  ``require_scaling`` arms the fleet-over-single throughput
    gate (CI multi-core runners only — one core cannot scale)."""
    scale = "tiny" if smoke else "small"
    requests = 12 if smoke else 60
    clients_single = 2
    clients_fleet = max(2, 2 * replicas)
    overload_duration = 3.0 if smoke else 10.0

    print(f"bench-serve: phase 1/5 single-replica baseline "
          f"({requests} reqs)", flush=True)
    single = _closed_phase(1, smoke, seed, requests, clients_single, scale)
    print(f"bench-serve: phase 2/5 {replicas}-replica fleet", flush=True)
    fleet = _closed_phase(replicas, smoke, seed + 1, requests,
                          clients_fleet, scale)
    single_rps = single.to_dict()["throughput_rps"]
    fleet_rps = fleet.to_dict()["throughput_rps"]
    scaling_x = fleet_rps / single_rps if single_rps > 0 else 0.0

    offered = max(2.0, 2.0 * fleet_rps)
    print(f"bench-serve: phase 3/5 overload at {offered:.1f} rps "
          f"(2x saturation)", flush=True)
    overload = _overload_phase(replicas, smoke, seed + 2, offered,
                               overload_duration, scale)
    print("bench-serve: phase 4/5 replica-kill recovery", flush=True)
    recovery = _recovery_phase(replicas, smoke, seed + 3, requests, scale)
    print(f"bench-serve: phase 5/5 priority lanes (bulk at "
          f"{offered:.1f} rps + interactive)", flush=True)
    priority = _priority_phase(replicas, smoke, seed + 4, offered,
                               overload_duration,
                               max(6, requests // 2), scale)

    phases = [single.to_dict(), fleet.to_dict(), overload.to_dict()]
    recovery_report = recovery.get("report") or {}
    failed = sum(p["failed"] + p["lost"] for p in phases)
    failed += (recovery_report.get("failed", 0)
               + recovery_report.get("lost", 0))
    inter = priority["interactive"]
    gates: Dict[str, Any] = {
        "zero_failed": failed == 0,
        "recovery_bounded": bool(
            recovery["recovered"]
            and recovery["kill_to_routable_seconds"]
            <= RECOVERY_BOUND_SECONDS),
        "scaling": (None if require_scaling is None
                    else scaling_x >= require_scaling),
        "interactive_under_bulk": bool(
            inter["completed"] > 0
            and inter["failed"] == 0
            and inter["lost"] == 0
            and priority["bulk_saturation_interactive_p99"]
            <= INTERACTIVE_P99_BOUND_MS),
    }
    doc = {
        "schema": BENCH_SCHEMA,
        "smoke": smoke,
        "seed": seed,
        "replicas": replicas,
        "single": single.to_dict(),
        "fleet": fleet.to_dict(),
        "scaling_x": round(scaling_x, 3),
        "overload": {
            "offered_rate_rps": round(offered, 3),
            "report": overload.to_dict(),
        },
        "recovery": recovery,
        "priority": priority,
        "gates": gates,
    }
    problem = validate_report(doc)
    gates["schema_valid"] = problem is None
    doc["ok"] = all(v for v in gates.values() if v is not None) \
        and problem is None
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"bench-serve: single {single_rps:.1f} rps, fleet "
          f"{fleet_rps:.1f} rps ({scaling_x:.2f}x), overload shed rate "
          f"{overload.to_dict()['shed_rate']:.2f}, recovery "
          f"{recovery['kill_to_routable_seconds']:.2f}s, interactive "
          f"p99 under bulk "
          f"{priority['bulk_saturation_interactive_p99']:.0f}ms -> {out}",
          flush=True)
    if problem is not None:
        print(f"bench-serve: SCHEMA INVALID: {problem}", flush=True)
    return 0 if doc["ok"] else 1


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point for ``gmap bench-serve`` / ``scripts/bench_serve.py``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.service.bench",
        description="fleet benchmark -> BENCH_serve.json")
    parser.add_argument("--out", default="BENCH_serve.json")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--replicas", type=int, default=3)
    parser.add_argument("--require-scaling", type=float, default=None)
    args = parser.parse_args(argv)
    return run_bench(out=args.out, smoke=args.smoke, seed=args.seed,
                     replicas=args.replicas,
                     require_scaling=args.require_scaling)


if __name__ == "__main__":
    raise SystemExit(main())
