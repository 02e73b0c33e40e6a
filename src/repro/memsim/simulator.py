"""SIMT-aware trace-driven simulation loop.

Drives per-core warp queues against the memory hierarchy with latency
feedback (paper sections 4.5/4.6): each core issues one coalesced memory
transaction per cycle from a warp chosen by the scheduling policy; the
issuing warp is then *delayed in proportion to the request's latency* before
it is eligible again, which is what lets thread-level parallelism hide (or
fail to hide) memory latency in the model.

The same loop simulates original applications and G-MAP proxies — both are
just lists of :class:`~repro.gpu.executor.CoreAssignment`.

Fixed-order streams (trace files, Algorithm 2's round-robin drain) have no
latency feedback; they go through the engine chain
:func:`~repro.memsim.vectorized.simulate_flat_runs`, whose last engine is
this module's scalar oracle :func:`simulate_flat_trace`.
:func:`sweep_report` formats the chain's runs as a ``gmap-sweep`` artifact.
"""

from __future__ import annotations

import heapq
from bisect import insort
from heapq import heappop, heappush
from math import inf, nextafter
from typing import Dict, Generator, List, Optional, Sequence, Tuple

from repro.gpu.executor import CoreAssignment, WarpTrace
from repro.gpu.instructions import AccessTuple
from repro.gpu.scheduler import WarpScheduler, make_scheduler
from repro.memsim.config import SimConfig
from repro.memsim.hierarchy import MemoryHierarchy
from repro.memsim.stats import SimResult


class _CoreState:
    """Scheduling state of one simulated core.

    The warp queue (paper section 4.5) is split in two.  A ready list,
    local to the generator :meth:`issue`, holds, ascending, the warps found
    ready by ``now`` that have not issued since.  ``pending`` is a min-heap
    of ``(ready time, warp)`` for the warps waiting out a request's
    latency.  ``stacks`` maps every queued warp to a reversed copy of its
    remaining transactions, next one last, so a warp parked at a barrier
    is the one kind in neither structure.  A warp enters ``pending`` only
    when it is in neither (it has just issued, been released from a
    barrier, or arrived with a new wave), so every heap entry is current.

    The core also tracks TB-level barriers: a warp reaching a ``SYNC_PC``
    record parks until every still-active warp of its threadblock has
    arrived, then the whole block crosses together.  A block's barrier also
    releases when its remaining non-parked warps retire, so clones whose
    warps drew π profiles with differing barrier counts cannot deadlock.
    """

    __slots__ = (
        "core_id", "now", "scheduler", "pending", "stacks", "blocks",
        "waves", "wave_index", "last_warp", "same_issues", "block_active",
        "barrier_wait", "syncs_crossed",
    )

    def __init__(
        self, core_id: int, waves: List[List[WarpTrace]], scheduler: WarpScheduler
    ) -> None:
        self.core_id = core_id
        self.now = 0.0
        self.scheduler = scheduler
        self.pending: List[Tuple[float, int]] = []
        self.stacks: Dict[int, List[AccessTuple]] = {}
        self.blocks: Dict[int, int] = {}
        self.waves = waves
        self.wave_index = 0
        self.last_warp: Optional[int] = None
        self.same_issues = 0
        self.block_active: Dict[int, int] = {}
        self.barrier_wait: Dict[int, List[int]] = {}
        self.syncs_crossed = 0
        self._load_next_wave(0.0)

    def _load_next_wave(self, now: float) -> None:
        """Queue the next resident wave of threadblocks, ready at ``now``."""
        stacks = self.stacks
        block_active = self.block_active
        while self.wave_index < len(self.waves):
            wave = self.waves[self.wave_index]
            self.wave_index += 1
            block_active.clear()
            self.barrier_wait.clear()
            for trace in wave:
                if trace.transactions:
                    warp = trace.warp_id
                    if warp in stacks:
                        raise ValueError(f"warp {warp} already queued")
                    heappush(self.pending, (now, warp))
                    # A copy: every config of a sweep replays the same trace.
                    stacks[warp] = trace.transactions[::-1]
                    self.blocks[warp] = trace.block
                    block_active[trace.block] = (
                        block_active.get(trace.block, 0) + 1
                    )
            if stacks:
                return

    def _retire(self, warp: int, now: float) -> None:
        del self.stacks[warp]
        block = self.blocks.pop(warp)
        self.block_active[block] -= 1
        self._maybe_release_barrier(block, now)
        if not self.stacks:
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
            # The SYNC record was popped when the warp parked.
            if self.stacks[warp]:
                heappush(self.pending, (now + 1.0, warp))
            else:
                self._retire(warp, now)

    def issue(
        self,
        hierarchy: MemoryHierarchy,
        events: List[Tuple[float, int]],
        index: int,
    ) -> Generator[int, float, None]:
        """The core's issue loop, one turn per ``send(budget)``.

        :meth:`SimtSimulator.run` creates the generator once per run,
        primes it with ``next()``, then resumes it with the request budget
        left.  A turn issues until the core drains, ``budget`` requests
        have issued, or the earliest entry of ``events`` (the other cores'
        event heap) comes before ``(now, index)``, and yields the requests
        it issued.  Only in the last case does the core push itself back
        onto ``events``.  The clock, the last warp and the same-warp count
        live in locals; closing the generator writes them back to ``now``,
        ``last_warp`` and ``same_issues``.

        When no warp is ready, the first ``pending`` warp becomes ready and
        the clock jumps to its time if that is later.  Then every warp due
        by ``now`` joins ``ready``.  The chosen warp issues one transaction
        and waits out its latency in ``pending``, or parks at its block's
        barrier on a ``SYNC_PC`` record.  Either way the clock advances
        one cycle.
        """
        pending = self.pending
        stacks = self.stacks
        select = self.scheduler.select
        access = hierarchy.access
        core_id = self.core_id
        ready: List[int] = []
        last = self.last_warp
        now = self.now
        same = self.same_issues
        try:
            budget = yield 0
            while True:
                # No other core runs during a turn, so the entry to yield to
                # is fixed: ``(time, other) < (now, index)`` is
                # ``now >= time`` when ``other < index``, else ``now > time``.
                if events:
                    time, other = events[0]
                    yield_at = time if other < index else nextafter(time, inf)
                else:
                    yield_at = inf
                issued = 0
                while True:
                    if not ready:
                        if not pending:
                            raise RuntimeError(
                                f"core {core_id}: all warps parked at "
                                "barriers — barrier bookkeeping is "
                                "inconsistent"
                            )
                        due, warp = heappop(pending)
                        ready = [warp]
                        if due > now:
                            now = due
                    while pending and pending[0][0] <= now:
                        insort(ready, heappop(pending)[1])
                    warp = select(ready, last)
                    ready.remove(warp)
                    stack = stacks[warp]
                    pc, address, size, is_store = stack.pop()
                    if pc < 0:  # SYNC_PC: no memory request
                        self._park(warp, now)
                        last = warp
                        now += 1.0
                        if not stacks:
                            break  # drained
                    else:
                        latency = access(core_id, now, pc, address, size,
                                         is_store)
                        if last == warp:
                            same += 1
                        last = warp
                        issued += 1
                        if stack:
                            heappush(pending, (now + latency, warp))
                            now += 1.0
                        else:
                            self._retire(warp, now)
                            now += 1.0
                            if not stacks:
                                break  # drained
                        if issued >= budget:
                            break
                    if now >= yield_at:
                        heappush(events, (now, index))
                        break
                budget = yield issued
        finally:
            self.now = now
            self.last_warp = last
            self.same_issues = same


class SimtSimulator:
    """Runs core assignments through this simulator's memory hierarchy.

    The hierarchy is built once and persists across :meth:`run` calls —
    caches, DRAM state and counters carry over, which is how
    :func:`repro.core.app_pipeline.simulate_application` models
    inter-kernel reuse.  Each returned :class:`SimResult` holds snapshots
    of the cumulative counters, so a later run does not change it.

    The latency-feedback loop is order-dependent, so it always runs this
    scalar oracle.  Fixed-order streams go through the engine chain,
    :func:`~repro.memsim.vectorized.simulate_flat_runs`.
    """

    def __init__(self, config: SimConfig) -> None:
        self.config = config
        self.hierarchy = MemoryHierarchy(config)

    def run(
        self,
        assignments: Sequence[CoreAssignment],
        max_requests: Optional[int] = None,
    ) -> SimResult:
        """Simulate until every warp drains (or ``max_requests`` issue).

        Cores interleave in global time order so the shared L2/DRAM sees a
        realistic merged request stream.  The interleave is driven by an
        event heap keyed on ``(now, core index)``: the earliest core issues
        a burst of transactions (one turn of its :meth:`_CoreState.issue`
        generator) until the next core's timestamp overtakes it, then
        re-enters the heap.
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
                  if core.stacks]
        heapq.heapify(events)
        turns = [core.issue(hierarchy, events, index)
                 for index, core in enumerate(cores)]
        for turn in turns:
            next(turn)
        while events and issued_total < budget:
            _, index = heappop(events)
            issued_total += turns[index].send(budget - issued_total)
        for turn in turns:
            turn.close()  # every core writes back its clock and counts

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
        same = sum(c.same_issues for c in cores)
        result.measured_p_self = same / issued_total if issued_total else 0.0
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
) -> SimResult:
    """Simulate pre-interleaved per-core traces (no scheduling feedback).

    Used for trace-file replay and for the fixed-order interleavings that
    Algorithm 2's simplest round-robin drain produces.

    Cores merge in global time order via the same ``(clock, core index)``
    event heap as :meth:`SimtSimulator.run`.  SYNC records (``pc < 0``)
    carry no memory semantics here, but they still consume one issue slot:
    the core's clock advances past them, so a barrier-heavy core does not
    unfairly win every interleaving tie against cores doing real work.

    This is the scalar oracle, the last engine of the fixed-order engine
    chain (:func:`~repro.memsim.vectorized.simulate_flat_runs`), which
    every flat and analytic run goes through.
    """
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
                hierarchy.access(core, clock, pc, address, size, is_store)
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

    The configs run through the engine chain
    (:func:`~repro.memsim.vectorized.simulate_flat_runs`); this function
    only formats its runs.  The report's ``engine`` is the engine
    requested: ``analytic`` with ``analytic=True``, otherwise ``array`` on
    the numpy backend and ``oracle`` on the python one.  Each result names
    the engine that produced it; ``fallbacks`` lists, per config index,
    the reasons the engines gave when they declined it.  ``tolerance``
    (the stated miss-rate envelope of predictions) appears only on
    analytic sweeps.  ``gmap check`` validates the artifact with
    :func:`repro.analysis.verify.verify_sweep_report`.
    """
    from repro.core.backend import resolve_backend
    from repro.core.cache import config_fingerprint
    from repro.memsim.vectorized import simulate_flat_runs

    resolved = resolve_backend(backend)
    runs = simulate_flat_runs(per_core_traces, configs, resolved, analytic)
    report: dict = {
        "format": SWEEP_FORMAT,
        "schema_version": SWEEP_SCHEMA_VERSION,
        "target": target,
        "backend": resolved,
        "engine": ("analytic" if analytic
                   else "array" if resolved == "numpy" else "oracle"),
        "num_configs": len(configs),
    }
    if analytic:
        from repro.analytical.analytic import ANALYTIC_MISS_RATE_TOLERANCE

        report["tolerance"] = ANALYTIC_MISS_RATE_TOLERANCE
    report["results"] = [
        {"config": config_fingerprint(config), "engine": engine,
         "result": result.to_dict()}
        for config, (engine, result, _) in zip(configs, runs)
    ]
    report["fallbacks"] = [
        {"index": index, "reasons": reasons}
        for index, (_, _, reasons) in enumerate(runs) if reasons
    ]
    return report
