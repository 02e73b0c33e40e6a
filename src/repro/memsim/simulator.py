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
from typing import Dict, List, Optional, Sequence

from repro.gpu.executor import CoreAssignment, WarpTrace
from repro.gpu.instructions import AccessTuple
from repro.gpu.scheduler import WarpQueue, WarpScheduler, make_scheduler
from repro.memsim.config import SimConfig
from repro.memsim.hierarchy import MemoryHierarchy
from repro.memsim.stats import SimResult


#: Warps parked at a barrier are delayed to this time; they re-enter the
#: ready set only through an explicit barrier release.
_BARRIER_PARK = float("inf")


class _CoreState:
    """Scheduling state of one simulated core.

    Besides the warp queue, the core tracks TB-level barriers (paper
    section 4.5): a warp reaching a ``SYNC_PC`` record parks until every
    still-active warp of its threadblock has arrived, then the whole block
    crosses together.  A block's barrier also releases when its remaining
    non-parked warps retire, so clones whose warps drew π profiles with
    differing barrier counts cannot deadlock.
    """

    __slots__ = (
        "core_id", "now", "queue", "scheduler", "traces", "cursors",
        "waves", "wave_index", "last_warp", "issued", "same_issues",
        "block_active", "barrier_wait", "syncs_crossed",
    )

    def __init__(
        self, core_id: int, waves: List[List[WarpTrace]], scheduler: WarpScheduler
    ) -> None:
        self.core_id = core_id
        self.now = 0.0
        self.queue = WarpQueue()
        self.scheduler = scheduler
        self.traces: Dict[int, WarpTrace] = {}
        self.cursors: Dict[int, int] = {}
        self.waves = waves
        self.wave_index = 0
        self.last_warp: Optional[int] = None
        self.issued = 0
        self.same_issues = 0
        self.block_active: Dict[int, int] = {}
        self.barrier_wait: Dict[int, List[int]] = {}
        self.syncs_crossed = 0
        self._load_next_wave()

    def _load_next_wave(self) -> bool:
        """Fill the warp queue with the next resident wave of threadblocks."""
        while self.wave_index < len(self.waves):
            wave = self.waves[self.wave_index]
            self.wave_index += 1
            loaded = False
            self.block_active = {}
            self.barrier_wait = {}
            for trace in wave:
                if trace.transactions:
                    self.queue.add(trace.warp_id, self.now)
                    self.traces[trace.warp_id] = trace
                    self.cursors[trace.warp_id] = 0
                    self.block_active[trace.block] = (
                        self.block_active.get(trace.block, 0) + 1
                    )
                    loaded = True
            if loaded:
                return True
        return False

    @property
    def active(self) -> bool:
        return len(self.queue) > 0

    def _retire(self, warp: int) -> None:
        block = self.traces[warp].block
        self.queue.retire(warp)
        del self.traces[warp]
        del self.cursors[warp]
        self.block_active[block] -= 1
        self._maybe_release_barrier(block)
        if not self.queue:
            self._load_next_wave()

    def _maybe_release_barrier(self, block: int) -> None:
        waiting = self.barrier_wait.get(block)
        if not waiting or len(waiting) < self.block_active.get(block, 0):
            return
        self.barrier_wait[block] = []
        self.syncs_crossed += 1
        for warp in waiting:
            cursor = self.cursors[warp] + 1  # step past the SYNC record
            if cursor >= len(self.traces[warp].transactions):
                self.cursors[warp] = cursor
                self._retire(warp)
            else:
                self.cursors[warp] = cursor
                self.queue.delay(warp, self.now + 1.0)

    def step(self, hierarchy: MemoryHierarchy) -> bool:
        """Issue at most one transaction; returns False when the core idles."""
        queue = self.queue
        now = self.now
        ready = queue.ready_at(now)
        if not ready:
            next_ready = queue.next_event()
            if next_ready is None:
                return self._load_next_wave()
            if next_ready == _BARRIER_PARK:
                raise RuntimeError(
                    f"core {self.core_id}: all warps parked at barriers — "
                    "barrier bookkeeping is inconsistent"
                )
            now = self.now = max(now, next_ready)
            ready = queue.ready_at(now)
        warp = self.scheduler.select(ready, self.last_warp)
        trace = self.traces[warp]
        transactions = trace.transactions
        cursor = self.cursors[warp]
        pc, address, size, is_store = transactions[cursor]
        if pc < 0:  # SYNC_PC: park at the TB barrier (no memory request)
            block = trace.block
            self.barrier_wait.setdefault(block, []).append(warp)
            queue.delay(warp, _BARRIER_PARK)
            self.last_warp = warp
            self._maybe_release_barrier(block)
            self.now += 1.0
            return True
        latency = hierarchy.access(
            self.core_id, now, pc, address, size, bool(is_store)
        )
        if self.last_warp == warp:
            self.same_issues += 1
        self.last_warp = warp
        self.issued += 1
        cursor += 1
        self.cursors[warp] = cursor
        if cursor >= len(transactions):
            self._retire(warp)
        else:
            queue.delay(warp, now + latency)
        self.now = now + 1.0
        return True


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
        a burst of transactions until the next core's timestamp overtakes
        it, then re-enters the heap.  Ties on ``now`` resolve to the lowest
        core index — the same order the previous ``min()`` scan produced —
        so results are bit-identical to the linear-scan implementation.
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
        budget = max_requests if max_requests is not None else float("inf")
        hierarchy = self.hierarchy
        heap = [(core.now, index) for index, core in enumerate(cores)
                if core.active]
        heapq.heapify(heap)
        heappop, heappush = heapq.heappop, heapq.heappush
        while heap and issued_total < budget:
            _, index = heappop(heap)
            core = cores[index]
            step = core.step
            # ``traces`` holds exactly the queued warps: empty once drained.
            traces = core.traces
            while True:
                before = core.issued
                alive = step(hierarchy)
                issued_total += core.issued - before
                if not alive or not traces:
                    break  # drained: the core leaves the event heap
                if issued_total >= budget:
                    break
                if heap and heap[0] < (core.now, index):
                    heappush(heap, (core.now, index))
                    break

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
        from repro.memsim import vectorized

        if vectorized.np is not None:
            try:
                return vectorized.simulate_flat_numpy(per_core_traces, config)
            except vectorized.UnsupportedConfigError:
                pass  # out-of-matrix config: replay the oracle below
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


#: Artifact format tag and schema version of one-pass multi-config reports.
MULTI_CONFIG_FORMAT = "gmap-multi-config"
MULTI_CONFIG_SCHEMA_VERSION = 1


def multi_config_report(
    per_core_traces: Sequence[Sequence[AccessTuple]],
    configs: Sequence[SimConfig],
    backend: Optional[str] = None,
    target: str = "<trace>",
) -> dict:
    """One-pass multi-config flat replay, as a JSON-serialisable report.

    The report is the artifact form of :func:`simulate_flat_multi`'s
    per-config stat blocks; ``gmap check`` validates it with
    :func:`repro.analysis.verify.verify_multi_config_report` (config count
    matches, trace-level totals identical across configs).
    ``oracle_fallbacks`` lists, per config index, the configuration-level
    reasons the array backend declined (empty when every config ran on the
    requested backend's fast path).
    """
    from repro.core.backend import resolve_backend
    from repro.core.cache import config_fingerprint
    from repro.memsim.vectorized import (
        memsim_fallback_reasons,
        simulate_flat_multi,
    )

    resolved = resolve_backend(backend)
    results = simulate_flat_multi(per_core_traces, configs, backend=resolved)
    fallbacks = []
    if resolved == "numpy":
        for index, config in enumerate(configs):
            reasons = memsim_fallback_reasons(config)
            if reasons:
                fallbacks.append({"index": index, "reasons": reasons})
    return {
        "format": MULTI_CONFIG_FORMAT,
        "schema_version": MULTI_CONFIG_SCHEMA_VERSION,
        "target": target,
        "backend": resolved,
        "num_configs": len(configs),
        "results": [
            {"config": config_fingerprint(config), "result": result.to_dict()}
            for config, result in zip(configs, results)
        ],
        "oracle_fallbacks": fallbacks,
    }
