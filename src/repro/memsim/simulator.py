"""SIMT-aware trace-driven simulation loop.

Drives per-core warp queues against the memory hierarchy with latency
feedback (paper sections 4.5/4.6): each core issues one coalesced memory
transaction per cycle from a warp chosen by the scheduling policy; the
issuing warp is then *delayed in proportion to the request's latency* before
it is eligible again, which is what lets thread-level parallelism hide (or
fail to hide) memory latency in the model.

The same loop simulates original applications and G-MAP proxies — both are
just lists of :class:`~repro.gpu.executor.CoreAssignment`.
"""

from __future__ import annotations

import heapq
from bisect import insort
from heapq import heappop, heappush
from math import inf, nextafter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.gpu.executor import CoreAssignment, WarpTrace
from repro.gpu.instructions import AccessTuple
from repro.gpu.scheduler import WarpScheduler, make_scheduler
from repro.memsim.config import SimConfig
from repro.memsim.hierarchy import MemoryHierarchy
from repro.memsim.stats import SimResult


class _CoreState:
    """Scheduling state of one simulated core.

    The warp queue (paper section 4.5) is split in two.  ``ready`` lists,
    ascending, the warps found ready by ``now`` that have not issued since.
    ``pending`` is a min-heap of ``(ready time, warp)`` for the warps
    waiting out a request's latency.  ``cursors`` holds every queued warp,
    so a warp parked at a barrier is the one kind in neither structure.
    A warp enters ``pending`` only when it is in neither (it has just
    issued, been released from a barrier, or arrived with a new wave), so
    every heap entry is current.  :meth:`issue` keeps all of it in locals.

    The core also tracks TB-level barriers: a warp reaching a ``SYNC_PC``
    record parks until every still-active warp of its threadblock has
    arrived, then the whole block crosses together.  A block's barrier also
    releases when its remaining non-parked warps retire, so clones whose
    warps drew π profiles with differing barrier counts cannot deadlock.
    """

    __slots__ = (
        "core_id", "now", "scheduler", "pending", "ready", "transactions",
        "cursors", "blocks", "waves", "wave_index", "last_warp", "issued",
        "same_issues", "block_active", "barrier_wait", "syncs_crossed",
    )

    def __init__(
        self, core_id: int, waves: List[List[WarpTrace]], scheduler: WarpScheduler
    ) -> None:
        self.core_id = core_id
        self.now = 0.0
        self.scheduler = scheduler
        self.pending: List[Tuple[float, int]] = []
        self.ready: List[int] = []
        self.transactions: Dict[int, List[AccessTuple]] = {}
        self.cursors: Dict[int, int] = {}
        self.blocks: Dict[int, int] = {}
        self.waves = waves
        self.wave_index = 0
        self.last_warp: Optional[int] = None
        self.issued = 0
        self.same_issues = 0
        self.block_active: Dict[int, int] = {}
        self.barrier_wait: Dict[int, List[int]] = {}
        self.syncs_crossed = 0
        self._load_next_wave(0.0)

    def _load_next_wave(self, now: float) -> None:
        """Queue the next resident wave of threadblocks, ready at ``now``."""
        cursors = self.cursors
        block_active = self.block_active
        while self.wave_index < len(self.waves):
            wave = self.waves[self.wave_index]
            self.wave_index += 1
            block_active.clear()
            self.barrier_wait.clear()
            for trace in wave:
                if trace.transactions:
                    warp = trace.warp_id
                    if warp in cursors:
                        raise ValueError(f"warp {warp} already queued")
                    heappush(self.pending, (now, warp))
                    self.transactions[warp] = trace.transactions
                    cursors[warp] = 0
                    self.blocks[warp] = trace.block
                    block_active[trace.block] = (
                        block_active.get(trace.block, 0) + 1
                    )
            if cursors:
                return

    def _retire(self, warp: int, now: float) -> None:
        del self.transactions[warp]
        del self.cursors[warp]
        block = self.blocks.pop(warp)
        self.block_active[block] -= 1
        self._maybe_release_barrier(block, now)
        if not self.cursors:
            self._load_next_wave(now)

    def _park(self, warp: int, now: float) -> None:
        """Park ``warp`` at its block's barrier (a ``SYNC_PC`` record)."""
        block = self.blocks[warp]
        self.barrier_wait.setdefault(block, []).append(warp)
        self._maybe_release_barrier(block, now)

    def _maybe_release_barrier(self, block: int, now: float) -> None:
        waiting = self.barrier_wait.get(block)
        if not waiting or len(waiting) < self.block_active.get(block, 0):
            return
        self.barrier_wait[block] = []
        self.syncs_crossed += 1
        for warp in waiting:
            cursor = self.cursors[warp] + 1  # step past the SYNC record
            self.cursors[warp] = cursor
            if cursor >= len(self.transactions[warp]):
                self._retire(warp, now)
            else:
                heappush(self.pending, (now + 1.0, warp))

    def issue(
        self,
        hierarchy: MemoryHierarchy,
        events: List[Tuple[float, int]],
        index: int,
        budget: float,
    ) -> int:
        """Issue until the core drains, ``budget`` requests have issued, or
        the earliest entry of ``events`` (the other cores' event heap)
        comes before ``(now, index)``; returns the requests issued.

        Only in the last case does the core push itself back onto
        ``events``.  When no warp is ready, the first ``pending`` warp
        becomes ready and the clock jumps to its time if that is later.
        Then every warp due by ``now`` joins ``ready``.  The chosen warp
        issues one transaction and waits out its latency in ``pending``,
        or parks at its block's barrier on a ``SYNC_PC`` record.  Either
        way the clock advances one cycle.
        """
        pending = self.pending
        ready = self.ready
        transactions_of = self.transactions
        cursors = self.cursors
        select = self.scheduler.select
        access = hierarchy.access
        core_id = self.core_id
        last = self.last_warp
        now = self.now
        # No other core runs during the call, so the entry to yield to is
        # fixed: ``(time, other) < (now, index)`` is ``now >= time`` when
        # ``other < index`` and ``now > time`` otherwise.
        if events:
            time, other = events[0]
            yield_at = time if other < index else nextafter(time, inf)
        else:
            yield_at = inf
        issued = same = 0
        while True:
            if not ready:
                if not pending:
                    raise RuntimeError(
                        f"core {core_id}: all warps parked at barriers — "
                        "barrier bookkeeping is inconsistent"
                    )
                due, warp = heappop(pending)
                ready.append(warp)
                if due > now:
                    now = due
            while pending and pending[0][0] <= now:
                insort(ready, heappop(pending)[1])
            warp = select(ready, last)
            ready.remove(warp)
            transactions = transactions_of[warp]
            cursor = cursors[warp]
            pc, address, size, is_store = transactions[cursor]
            if pc < 0:  # SYNC_PC: no memory request
                self._park(warp, now)
            else:
                latency = access(core_id, now, pc, address, size,
                                 bool(is_store))
                if last == warp:
                    same += 1
                issued += 1
                cursor += 1
                if cursor < len(transactions):
                    cursors[warp] = cursor
                    heappush(pending, (now + latency, warp))
                else:
                    self._retire(warp, now)
            last = warp
            now += 1.0
            if not cursors or issued >= budget:
                break  # drained, or out of budget
            if now >= yield_at:
                heappush(events, (now, index))
                break
        self.now = now
        self.last_warp = last
        self.issued += issued
        self.same_issues += same
        return issued


class SimtSimulator:
    """Runs core assignments through this simulator's memory hierarchy.

    The hierarchy is built once and persists across :meth:`run` calls —
    caches, DRAM state and counters carry over, which is how
    :func:`repro.core.app_pipeline.simulate_application` models
    inter-kernel reuse.  Each returned :class:`SimResult` holds snapshots
    of the cumulative counters, so a later run does not change it.

    ``backend`` selects the memsim implementation for the *fixed-order*
    replay path (:meth:`replay_flat`): ``"numpy"`` uses the array-resident
    engine in :mod:`repro.memsim.vectorized` where the configuration
    permits, ``"python"`` (the default) the scalar oracle.  The
    latency-feedback loop (:meth:`run`) is inherently order-dependent and
    always runs the scalar oracle regardless of backend.
    """

    def __init__(self, config: SimConfig, backend: Optional[str] = None) -> None:
        from repro.core.backend import resolve_backend

        self.config = config
        self.backend = resolve_backend(backend)
        self.hierarchy = MemoryHierarchy(config)

    def replay_flat(
        self, per_core_traces: Sequence[Sequence[AccessTuple]]
    ) -> SimResult:
        """Replay pre-interleaved per-core traces on this config.

        Unlike :meth:`run` this uses a fresh hierarchy per call (flat
        replay has no warp-queue state to carry over) and honours the
        simulator's backend selection.
        """
        return simulate_flat_trace(
            per_core_traces, self.config, backend=self.backend
        )

    def run(
        self,
        assignments: Sequence[CoreAssignment],
        max_requests: Optional[int] = None,
    ) -> SimResult:
        """Simulate until every warp drains (or ``max_requests`` issue).

        Cores interleave in global time order so the shared L2/DRAM sees a
        realistic merged request stream.  The interleave is driven by an
        event heap keyed on ``(now, core index)``: the earliest core issues
        a burst of transactions (one :meth:`_CoreState.issue` call) until
        the next core's timestamp overtakes it, then re-enters the heap.
        Ties on ``now`` resolve to the lowest core index — the same order
        a ``min()`` scan over the cores produces — so results are
        bit-identical to the linear-scan implementation.
        """
        scheduler_proto = make_scheduler(
            self.config.scheduler,
            self.config.sched_p_self,
            self.config.scheduler_seed,
        )
        cores = [
            _CoreState(a.core_id, a.waves, scheduler_proto.clone())
            for a in assignments
        ]
        issued_total = 0
        budget = max_requests if max_requests is not None else inf
        hierarchy = self.hierarchy
        events = [(core.now, index) for index, core in enumerate(cores)
                  if core.cursors]
        heapq.heapify(events)
        while events and issued_total < budget:
            _, index = heappop(events)
            issued_total += cores[index].issue(hierarchy, events, index,
                                               budget - issued_total)

        # Snapshots: the hierarchy keeps counting on a later run().
        result = SimResult(
            l1=hierarchy.l1_stats(),
            l2=hierarchy.l2_stats().copy(),
            dram=hierarchy.dram_stats().copy(),
            texture=hierarchy.texture_stats(),
            constant=hierarchy.constant_stats(),
            shared_accesses=hierarchy.shared_accesses,
            requests_issued=issued_total,
            cycles=max((c.now for c in cores), default=0.0),
            barriers_crossed=sum(c.syncs_crossed for c in cores),
            per_core_l1=[l1.stats.copy() for l1 in hierarchy.l1s],
        )
        total_issues = sum(c.issued for c in cores)
        same = sum(c.same_issues for c in cores)
        result.measured_p_self = same / total_issues if total_issues else 0.0
        return result


def simulate(
    assignments: Sequence[CoreAssignment],
    config: SimConfig,
    max_requests: Optional[int] = None,
) -> SimResult:
    """One-shot convenience wrapper: fresh simulator, one run."""
    return SimtSimulator(config).run(assignments, max_requests=max_requests)


def simulate_flat_trace(
    per_core_traces: Sequence[Sequence[AccessTuple]],
    config: SimConfig,
    backend: Optional[str] = None,
) -> SimResult:
    """Simulate pre-interleaved per-core traces (no scheduling feedback).

    Used for trace-file replay and for the fixed-order interleavings that
    Algorithm 2's simplest round-robin drain produces.

    Cores merge in global time order via the same ``(clock, core index)``
    event heap as :meth:`SimtSimulator.run`.  SYNC records (``pc < 0``)
    carry no memory semantics here, but they still consume one issue slot:
    the core's clock advances past them, so a barrier-heavy core does not
    unfairly win every interleaving tie against cores doing real work.

    With ``backend="numpy"`` the replay runs on the array-resident engine
    (:mod:`repro.memsim.vectorized`), bit-identical for supported
    configurations; configurations outside its matrix (prefetchers,
    non-LRU replacement, ...) transparently replay on this scalar oracle.
    """
    from repro.core.backend import resolve_backend

    if resolve_backend(backend) == "numpy":
        from repro.memsim.vectorized import simulate_flat_runs

        # Configs the array engine declines come back through the python
        # path below.
        return simulate_flat_runs(per_core_traces, [config], "numpy")[0][1]
    hierarchy = MemoryHierarchy(config)
    clocks = [0.0] * len(per_core_traces)
    cursors = [0] * len(per_core_traces)
    issued = 0
    heap = [(0.0, core) for core, trace in enumerate(per_core_traces) if trace]
    heapq.heapify(heap)
    while heap:
        _, core = heapq.heappop(heap)
        trace = per_core_traces[core]
        length = len(trace)
        cursor = cursors[core]
        clock = clocks[core]
        while True:
            pc, address, size, is_store = trace[cursor]
            cursor += 1
            if pc >= 0:
                hierarchy.access(core, clock, pc, address, size, bool(is_store))
                issued += 1
            clock += 1.0
            if cursor >= length:
                break
            if heap and heap[0] < (clock, core):
                heapq.heappush(heap, (clock, core))
                break
        cursors[core] = cursor
        clocks[core] = clock
    return SimResult(
        l1=hierarchy.l1_stats(),
        l2=hierarchy.l2_stats().copy(),
        dram=hierarchy.dram_stats().copy(),
        requests_issued=issued,
        cycles=max(clocks, default=0.0),
    )


#: Artifact format tag and schema version of sweep reports.
SWEEP_FORMAT = "gmap-sweep"
SWEEP_SCHEMA_VERSION = 1


def sweep_report(
    per_core_traces: Sequence[Sequence[AccessTuple]],
    configs: Sequence[SimConfig],
    backend: Optional[str] = None,
    target: str = "<trace>",
    analytic: bool = False,
) -> dict:
    """One flat trace under N configurations, as the ``gmap-sweep`` artifact.

    The report's ``engine`` is the engine requested: ``analytic`` with
    ``analytic=True`` (O(histogram) predictions from the trace's reuse
    profiles), otherwise ``array`` on the numpy backend and ``oracle`` on
    the python one.  Every config the requested engine refuses runs one
    step down the chain, and all of them replay together in one
    :func:`~repro.memsim.vectorized.simulate_flat_runs` pass.  Each result
    names the engine that produced it; ``fallbacks`` lists, per config
    index, the reasons the engines acted on when they declined it.
    ``tolerance`` (the stated miss-rate envelope of predictions) appears
    only on analytic sweeps.  ``gmap check`` validates the artifact with
    :func:`repro.analysis.verify.verify_sweep_report`.
    """
    from repro.core.backend import resolve_backend
    from repro.core.cache import config_fingerprint
    from repro.memsim.capabilities import merge_reasons
    from repro.memsim.vectorized import simulate_flat_runs

    resolved = resolve_backend(backend)
    ran: Dict[int, Tuple[str, SimResult]] = {}
    reasons: Dict[int, List[str]] = {}
    replay = list(range(len(configs)))
    report: dict = {
        "format": SWEEP_FORMAT,
        "schema_version": SWEEP_SCHEMA_VERSION,
        "target": target,
        "backend": resolved,
        "engine": "array" if resolved == "numpy" else "oracle",
        "num_configs": len(configs),
    }
    if analytic:
        from repro.analytical.analytic import (
            ANALYTIC_MISS_RATE_TOLERANCE,
            AnalyticCacheModel,
        )

        model = AnalyticCacheModel.from_flat(per_core_traces, resolved)
        replay = []
        for index, config in enumerate(configs):
            refused = model.applicability(config)
            if refused:
                replay.append(index)
                reasons[index] = refused
            else:
                ran[index] = ("analytic", model.predict(config))
        report["engine"] = "analytic"
        report["tolerance"] = ANALYTIC_MISS_RATE_TOLERANCE
    runs = simulate_flat_runs(
        per_core_traces, [configs[i] for i in replay], resolved)
    for index, (engine, result, refused) in zip(replay, runs):
        ran[index] = (engine, result)
        if refused:
            reasons[index] = merge_reasons(reasons.get(index, []), refused)
    report["results"] = [
        {"config": config_fingerprint(config), "engine": ran[index][0],
         "result": ran[index][1].to_dict()}
        for index, config in enumerate(configs)
    ]
    report["fallbacks"] = [
        {"index": index, "reasons": reasons[index]}
        for index in sorted(reasons)
    ]
    return report
