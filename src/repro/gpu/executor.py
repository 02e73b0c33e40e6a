"""Kernel execution: per-thread streams → coalesced warp traces → cores.

This is the reproduction's stand-in for the paper's instrumented CUDA-sim
front end.  It runs a :class:`~repro.workloads.base.KernelModel` under the
Fermi execution model:

1. every thread's program is materialised (:func:`collect_thread_traces`);
2. threads are grouped into warps (CUDA guide G.1 via
   :class:`~repro.gpu.hierarchy.LaunchConfig`) and each warp's lane accesses
   are executed in lockstep with structured-divergence masking and coalesced
   per the G.4.2 model (:func:`kernel_warp_traces` — the scalar
   :func:`build_warp_traces` walk, or its bit-exact array twin on the
   ``numpy`` backend);
3. threadblocks are dealt to cores round-robin, bounded by the number of
   concurrently resident blocks per core (paper section 4.5), yielding each
   core's ordered list of active warp traces (:func:`assign_warps_to_cores`).

The same machinery executes both original kernel models and G-MAP proxies,
so original-vs-clone comparisons share every downstream stage.  A pipeline
executes each kernel once: the profiler reads the executed warp traces back
out of the core assignments (:func:`assigned_warp_traces`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.backend import resolve_backend
from repro.core.coalescing import CoalescingModel
from repro.gpu.hierarchy import LaunchConfig, assign_blocks_to_cores, resident_waves
from repro.gpu.instructions import SYNC_PC, AccessTuple
from repro.gpu.memspace import MemorySpace, bank_conflict_degree, space_of
from repro.workloads.base import KernelModel


@dataclass
class WarpTrace:
    """The ordered, coalesced memory transaction stream of one warp.

    ``instructions`` records, per dynamic warp instruction, its PC and how
    many transactions it coalesced into — the coalescing-degree statistic
    the profiler captures per static instruction.
    """

    warp_id: int
    block: int
    transactions: List[AccessTuple] = field(default_factory=list)
    instructions: List[tuple] = field(default_factory=list)  # (pc, n_txns)
    #: Sum of active lanes over all (non-barrier) instructions; with the
    #: instruction count this gives the warp's average SIMD occupancy —
    #: the divergence penalty the CUDA guide warns about (section 4.1).
    active_lanes: int = 0

    def __len__(self) -> int:
        return len(self.transactions)

    @property
    def avg_occupancy(self) -> float:
        """Mean active lanes per instruction, as a fraction of the warp."""
        memory_instructions = sum(
            1 for pc, _ in self.instructions if pc >= 0
        )
        if not memory_instructions:
            return 0.0
        return self.active_lanes / (memory_instructions * 32)


@dataclass
class CoreAssignment:
    """Execution plan of one core: waves of concurrently-resident warps."""

    core_id: int
    waves: List[List[WarpTrace]] = field(default_factory=list)

    @property
    def warp_count(self) -> int:
        return sum(len(wave) for wave in self.waves)

    @property
    def transaction_count(self) -> int:
        return sum(len(w) for wave in self.waves for w in wave)


def collect_thread_traces(kernel: KernelModel) -> List[List[AccessTuple]]:
    """Materialise every thread's dynamic memory access stream."""
    return [kernel.trace_thread(tid) for tid in kernel.launch.iter_threads()]


def lockstep_warp_trace(
    lane_streams: Sequence[Sequence[AccessTuple]],
    coalescer: CoalescingModel,
    warp_id: int = 0,
    block: int = 0,
) -> WarpTrace:
    """Execute one warp's lanes in lockstep and coalesce each instruction.

    At each step the active lanes whose next access has the *minimum*
    pending PC issue together — the classic min-PC reconvergence heuristic:
    lanes on a divergent path serialise (the earlier path runs first while
    the others are masked) and automatically reconverge at the
    post-dominator, as SIMT hardware does for structured if/else divergence.
    """
    pointers = [0] * len(lane_streams)
    lengths = [len(s) for s in lane_streams]
    trace = WarpTrace(warp_id=warp_id, block=block)
    transactions = trace.transactions
    while True:
        leader_pc = None
        pending = False
        all_at_sync = True
        for lane, stream in enumerate(lane_streams):
            if pointers[lane] < lengths[lane]:
                pending = True
                head = stream[pointers[lane]][0]
                if head == SYNC_PC:
                    continue  # a lane at a barrier waits for the others
                all_at_sync = False
                if leader_pc is None or head < leader_pc:
                    leader_pc = head
        if not pending:
            break
        if all_at_sync:
            # Every active lane reached the barrier: cross it together.
            for lane in range(len(lane_streams)):
                if pointers[lane] < lengths[lane]:
                    pointers[lane] += 1
            transactions.append((SYNC_PC, 0, 0, 0))
            trace.instructions.append((SYNC_PC, 1))
            continue
        group: List = []
        is_store = 0
        for lane, stream in enumerate(lane_streams):
            p = pointers[lane]
            if p < lengths[lane] and stream[p][0] == leader_pc:
                _, address, size, store = stream[p]
                group.append((address, size))
                is_store |= store
                pointers[lane] = p + 1
        trace.active_lanes += len(group)
        if space_of(group[0][0]) is MemorySpace.SHARED:
            # Shared memory does not coalesce; a warp instruction replays
            # once per bank-conflict wave (Fermi serialisation).  Each wave
            # is one trace record, so the conflict degree shows up as issue
            # slots — exactly how the hardware spends time on it.
            degree = max(1, bank_conflict_degree(a for a, _ in group))
            base_address = min(a for a, _ in group)
            for wave in range(degree):
                transactions.append(
                    (leader_pc, base_address + wave * 4, 4, int(bool(is_store)))
                )
            trace.instructions.append((leader_pc, degree))
        else:
            txns = coalescer.coalesce(leader_pc, group, bool(is_store))
            for txn in txns:
                transactions.append(
                    (txn.pc, txn.address, txn.size, int(txn.is_store))
                )
            trace.instructions.append((leader_pc, len(txns)))
    return trace


def build_warp_traces(
    kernel: KernelModel,
    thread_traces: Optional[List[List[AccessTuple]]] = None,
    coalescer: Optional[CoalescingModel] = None,
) -> List[WarpTrace]:
    """Coalesced transaction stream of every warp of a kernel, by warp id."""
    launch = kernel.launch
    if thread_traces is None:
        thread_traces = collect_thread_traces(kernel)
    if coalescer is None:
        coalescer = CoalescingModel()
    warp_traces = []
    for warp in launch.iter_warps():
        lanes = [thread_traces[tid] for tid in launch.threads_in_warp(warp)]
        warp_traces.append(
            lockstep_warp_trace(
                lanes, coalescer, warp_id=warp, block=launch.block_of_warp(warp)
            )
        )
    return warp_traces


def kernel_warp_traces(
    kernel: KernelModel,
    coalescer: Optional[CoalescingModel] = None,
    backend: Optional[str] = None,
) -> List[WarpTrace]:
    """Execute a kernel's threads and coalesce every warp, by warp id.

    ``backend="numpy"`` takes the array builder
    (:func:`~repro.core.vectorized.build_warp_traces_fast`), which is
    bit-exact with the scalar walk the ``python`` backend runs.
    """
    thread_traces = collect_thread_traces(kernel)
    if coalescer is None:
        coalescer = CoalescingModel()
    if resolve_backend(backend) == "numpy":
        from repro.core.vectorized import build_warp_traces_fast

        return build_warp_traces_fast(kernel.launch, thread_traces, coalescer)
    return build_warp_traces(kernel, thread_traces, coalescer)


def assign_warps_to_cores(
    launch: LaunchConfig,
    warp_traces: Sequence[WarpTrace],
    num_cores: int,
    max_blocks_per_core: int = 8,
    max_threads_per_core: int = 1024,
) -> List[CoreAssignment]:
    """Round-robin TB placement with bounded residency (section 4.5).

    A core's warp queue holds at most ``max_blocks_per_core`` blocks at a
    time, further capped by the SM's thread budget (Table 2: "Max. 1024
    Threads" — four 256-thread blocks); the next wave of blocks becomes
    active when the current wave's warps have all retired.
    """
    if len(warp_traces) != launch.total_warps:
        raise ValueError(
            f"expected {launch.total_warps} warp traces, got {len(warp_traces)}"
        )
    if max_threads_per_core >= launch.threads_per_block:
        blocks_by_threads = max_threads_per_core // launch.threads_per_block
        max_blocks_per_core = max(1, min(max_blocks_per_core, blocks_by_threads))
    by_block: Dict[int, List[WarpTrace]] = {}
    for trace in warp_traces:
        by_block.setdefault(trace.block, []).append(trace)
    for traces in by_block.values():
        traces.sort(key=lambda t: t.warp_id)

    assignments = []
    core_blocks = assign_blocks_to_cores(
        launch.num_blocks, num_cores, max_blocks_per_core
    )
    for core_id, blocks in enumerate(core_blocks):
        waves = [
            [trace for block in wave for trace in by_block.get(block, [])]
            for wave in resident_waves(blocks, max_blocks_per_core)
        ]
        assignments.append(CoreAssignment(core_id=core_id, waves=waves))
    return assignments


def execute_kernel(
    kernel: KernelModel,
    num_cores: int,
    max_blocks_per_core: int = 8,
    coalescer: Optional[CoalescingModel] = None,
    backend: Optional[str] = None,
) -> List[CoreAssignment]:
    """Full front end: kernel model → per-core coalesced warp traces.

    ``backend`` picks the warp builder (:func:`kernel_warp_traces`); the
    assignments are identical on both backends.
    """
    return assign_warps_to_cores(
        kernel.launch,
        kernel_warp_traces(kernel, coalescer, backend),
        num_cores,
        max_blocks_per_core,
    )


def assigned_warp_traces(
    assignments: Sequence[CoreAssignment],
) -> List[WarpTrace]:
    """The warp traces placed in ``assignments``, back in warp-id order.

    The same objects, not copies: this is how a pipeline hands the
    original's executed warps to the profiler instead of executing the
    kernel a second time.
    """
    return sorted(
        (warp for a in assignments for wave in a.waves for warp in wave),
        key=lambda warp: warp.warp_id,
    )


def assignments_from_traces(
    warp_traces: Sequence[WarpTrace],
    num_cores: int,
    max_blocks_per_core: int = 8,
) -> List[CoreAssignment]:
    """Place pre-built warp traces (e.g. loaded from a ``.trace`` file)
    onto cores, grouping by the block id recorded in each trace.

    Blocks are distributed with the same round-robin placement and
    residency bound as :func:`execute_kernel`, so simulating a saved trace
    matches simulating the kernel that produced it.  Shared by the CLI's
    ``gmap simulate <file>`` path and the service's ``simulate`` job.
    """
    by_block: Dict[int, List[WarpTrace]] = {}
    for trace in warp_traces:
        by_block.setdefault(trace.block, []).append(trace)
    assignments = []
    placement = assign_blocks_to_cores(len(by_block), num_cores)
    for core_id, blocks in enumerate(placement):
        waves = [
            [t for b in wave for t in by_block.get(b, [])]
            for wave in resident_waves(blocks, max_blocks_per_core)
        ]
        assignments.append(CoreAssignment(core_id=core_id, waves=waves))
    return assignments


def flat_drain(
    assignments: Sequence[CoreAssignment],
    limit: Optional[int] = None,
) -> List[List[AccessTuple]]:
    """Drain core assignments into plain per-core traces (unit-latency LRR).

    Algorithm 2's simplest warp-queue drain: within each resident wave the
    warps take round-robin turns emitting one transaction per pass until
    the wave empties, waves in order.  The result is the fixed-order
    interleaving that :func:`repro.memsim.simulator.simulate_flat_trace`
    replays — and the array-resident memsim backend batch-simulates.
    ``limit`` caps the total emitted requests (Algorithm 2's ``J`` bound).

    Identical drain model to
    :meth:`repro.core.generator.ProxyGenerator.interleave_round_robin`,
    exposed for pre-built assignments (trace files, originals) so both
    sides of a validation pair can use the same flat replay path.
    """
    num_cores = 1 + max(
        (a.core_id for a in assignments), default=-1
    )
    per_core: List[List[AccessTuple]] = [[] for _ in range(num_cores)]
    emitted = 0
    budget = limit if limit is not None else float("inf")
    for assignment in assignments:
        core_trace = per_core[assignment.core_id]
        for wave in assignment.waves:
            cursors = [0] * len(wave)
            remaining = sum(len(w.transactions) for w in wave)
            while remaining and emitted < budget:
                for idx, warp in enumerate(wave):
                    cursor = cursors[idx]
                    if cursor < len(warp.transactions):
                        core_trace.append(warp.transactions[cursor])
                        cursors[idx] = cursor + 1
                        remaining -= 1
                        emitted += 1
                        if emitted >= budget:
                            break
            if emitted >= budget:
                break
        if emitted >= budget:
            break
    return per_core
