"""The G-MAP profiling phase: kernel execution stream → statistical profile.

Implements phase ① of the paper's Figure 2.  The profiler executes a kernel
model through the Fermi front end (grouping, lockstep divergence masking,
coalescing — coalescing is applied *before* the locality analysis, paper
section 4), then extracts:

* per-unit PC sequences, clustered into dominant π profiles with their
  probability measure Q (sections 4.1/4.4);
* per-static-instruction base addresses B and inter-unit first-touch stride
  histograms :math:`P_E` (section 4.2);
* per-static-instruction intra-unit stride histograms :math:`P_A` and
  per-π-profile LRU stack-distance histograms :math:`P_R` (section 4.3);
* per-static-instruction coalescing-degree histograms (transactions per
  dynamic warp instruction);
* the scheduling summary ``SchedP_self`` (section 4.5).

The *sequencing unit* is the warp when coalescing is enabled (the paper's
default — Table 1 reports inter-*warp* strides) and the scalar thread
otherwise; both paths share this code.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.backend import resolve_backend
from repro.core.coalescing import DEFAULT_SEGMENT_SIZE, CoalescingModel
from repro.core.pi_profile import DEFAULT_SIMILARITY_THRESHOLD, PiClusterer
from repro.core.profile import GmapProfile, InstructionStats, PiProfileStats
from repro.core.distributions import Histogram
from repro.core.reuse import COLD_MISS, StackDistanceTracker
from repro.gpu.executor import WarpTrace, collect_thread_traces, kernel_warp_traces
from repro.gpu.instructions import SYNC_PC
from repro.workloads.base import KernelModel

#: Stack distances beyond this are lumped into one "far" bucket: lookbacks
#: this long never hit in any cache the paper sweeps, so their exact value
#: is irrelevant and the histogram stays compact.
MAX_TRACKED_REUSE = 4096

#: At most this many member units feed each π cluster's reuse histogram —
#: reuse statistics converge long before that (law of large numbers,
#: section 5 "Impact of trace miniaturization").
MAX_REUSE_UNITS_PER_CLUSTER = 64


class UnitStream:
    """One sequencing unit's instruction-instance stream.

    ``pcs[i]`` is the PC of the i-th dynamic memory instruction, ``addrs[i]``
    the address of its first transaction, ``txns[i]`` how many transactions
    it coalesced into, ``steps[i]`` the segment step between consecutive
    sibling transactions (0 for single-transaction instances), ``stores[i]``
    whether it was a store.
    """

    __slots__ = ("unit_id", "pcs", "addrs", "txns", "steps", "stores")

    def __init__(self, unit_id: int) -> None:
        self.unit_id = unit_id
        self.pcs: List[int] = []
        self.addrs: List[int] = []
        self.txns: List[int] = []
        self.steps: List[int] = []
        self.stores: List[int] = []

    def append(
        self, pc: int, address: int, txns: int = 1, step: int = 0,
        store: int = 0,
    ) -> None:
        """Add one instruction instance (the safe way to build streams)."""
        self.pcs.append(pc)
        self.addrs.append(address)
        self.txns.append(txns)
        self.steps.append(step)
        self.stores.append(store)

    def __len__(self) -> int:
        return len(self.pcs)


def _warp_unit_streams(warp_traces: Sequence[WarpTrace]) -> List[UnitStream]:
    """Instruction-instance streams of coalesced warps."""
    streams = []
    for trace in warp_traces:
        stream = UnitStream(trace.warp_id)
        pos = 0
        transactions = trace.transactions
        for pc, n_txns in trace.instructions:
            _, address, _, is_store = transactions[pos]
            if n_txns > 1:
                # Coalesced siblings are address-sorted; their leading gap
                # summarises the lane spread (128 for dense unit-stride
                # windows, larger for scattered lanes).
                step = transactions[pos + 1][1] - address
            else:
                step = 0
            stream.pcs.append(pc)
            stream.addrs.append(address)
            stream.txns.append(n_txns)
            stream.steps.append(step)
            stream.stores.append(is_store)
            pos += n_txns
        streams.append(stream)
    return streams


def _thread_unit_streams(thread_traces: Sequence[Sequence[tuple]]) -> List[UnitStream]:
    """Instruction-instance streams of scalar threads (no coalescing)."""
    streams = []
    for tid, trace in enumerate(thread_traces):
        stream = UnitStream(tid)
        for pc, address, _, is_store in trace:
            stream.pcs.append(pc)
            stream.addrs.append(address)
            stream.txns.append(1)
            stream.steps.append(0)
            stream.stores.append(is_store)
        streams.append(stream)
    return streams


def unit_streams_from_warp_traces(
    warp_traces: Sequence[WarpTrace],
) -> List[UnitStream]:
    """Public adapter: externally collected warp traces → profiler input."""
    return _warp_unit_streams(warp_traces)


class GmapProfiler:
    """Builds a :class:`GmapProfile` from a kernel model.

    Parameters mirror the paper's knobs: ``coalescing`` selects whether the
    locality analysis runs on warp-coalesced streams (default, section 4),
    ``similarity_threshold`` is the π-clustering Th (0.9, section 4.4),
    ``segment_size`` the transaction/cache-line granularity.

    ``backend`` selects the compute implementation of the hot loops
    (:mod:`repro.core.backend`): ``"python"`` is the scalar reference,
    ``"numpy"`` the array kernels in :mod:`repro.core.vectorized`.  Both
    produce **bit-identical** profiles — profiling is deterministic, so the
    array path is an optimization, never a semantic fork.
    """

    def __init__(
        self,
        coalescing: bool = True,
        similarity_threshold: float = DEFAULT_SIMILARITY_THRESHOLD,
        segment_size: int = 128,
        sched_p_self: float = 0.0,
        reuse_semantics: str = "lookback",
        backend: Optional[str] = None,
    ) -> None:
        if reuse_semantics not in ("lookback", "stack"):
            raise ValueError(
                f"reuse_semantics must be lookback|stack, got {reuse_semantics!r}"
            )
        self.coalescing = coalescing
        self.similarity_threshold = similarity_threshold
        self.segment_size = segment_size
        self.sched_p_self = sched_p_self
        self.reuse_semantics = reuse_semantics
        self.backend = resolve_backend(backend)

    # -- public API ----------------------------------------------------------

    @property
    def reads_executed_warps(self) -> bool:
        """Whether :meth:`profile` can take the executor's warp traces.

        True when this profiler coalesces at the executor's segment size,
        so the warps :func:`~repro.gpu.executor.execute_kernel` built are
        the ones it would build itself.
        """
        return self.coalescing and self.segment_size == DEFAULT_SEGMENT_SIZE

    def profile(
        self,
        kernel: KernelModel,
        warp_traces: Optional[Sequence[WarpTrace]] = None,
    ) -> GmapProfile:
        """Profile a kernel model end to end.

        ``warp_traces`` are the kernel's already executed warps, in warp-id
        order and coalesced at this profiler's ``segment_size`` — what
        :func:`~repro.gpu.executor.execute_kernel` builds at the default
        segment size.  Given them, the profiler skips its own front end and
        only reads them; the profile is the same either way.  A
        non-coalescing profiler works on the uncoalesced thread streams and
        refuses them.
        """
        occupancy = 1.0
        if self.coalescing:
            if warp_traces is None:
                warp_traces = kernel_warp_traces(
                    kernel, CoalescingModel(self.segment_size), self.backend
                )
            units = _warp_unit_streams(warp_traces)
            unit_kind = "warp"
            active = sum(t.active_lanes for t in warp_traces)
            instructions = sum(
                1 for t in warp_traces for pc, _ in t.instructions if pc >= 0
            )
            if instructions:
                occupancy = active / (instructions * 32)
        else:
            if warp_traces is not None:
                raise ValueError(
                    "a non-coalescing profiler needs the thread streams, "
                    "not coalesced warp traces"
                )
            units = _thread_unit_streams(collect_thread_traces(kernel))
            unit_kind = "thread"
        return self.profile_unit_streams(
            units,
            unit_kind,
            avg_warp_occupancy=occupancy,
            name=kernel.name,
            grid_dim=(
                kernel.launch.grid_dim.x,
                kernel.launch.grid_dim.y,
                kernel.launch.grid_dim.z,
            ),
            block_dim=(
                kernel.launch.block_dim.x,
                kernel.launch.block_dim.y,
                kernel.launch.block_dim.z,
            ),
        )

    def profile_unit_streams(
        self,
        units: Sequence[UnitStream],
        unit_kind: str,
        name: str = "workload",
        grid_dim: Tuple[int, int, int] = (1, 1, 1),
        block_dim: Tuple[int, int, int] = (32, 1, 1),
        avg_warp_occupancy: float = 1.0,
    ) -> GmapProfile:
        """Profile pre-extracted unit streams (also used by trace-file input)."""
        if not units:
            raise ValueError("cannot profile an empty set of unit streams")
        for stream in units:  # tolerate hand-built streams without steps
            if len(stream.steps) < len(stream.pcs):
                stream.steps.extend([0] * (len(stream.pcs) - len(stream.steps)))
        clusterer = self._cluster_pi_profiles(units)
        if self.backend == "numpy":
            from repro.core import vectorized

            instructions = vectorized.vectorized_instruction_stats(
                units, self.segment_size
            )
            pi_stats = vectorized.vectorized_reuse_stats(
                units,
                clusterer,
                self.segment_size,
                MAX_TRACKED_REUSE,
                MAX_REUSE_UNITS_PER_CLUSTER,
                reuse_semantics=self.reuse_semantics,
            )
        else:
            instructions = self._instruction_stats(units)
            pi_stats = self._reuse_stats(units, clusterer)
        total_txns = sum(sum(u.txns) for u in units)
        return GmapProfile(
            name=name,
            grid_dim=grid_dim,
            block_dim=block_dim,
            unit=unit_kind,
            segment_size=self.segment_size,
            pi_profiles=pi_stats,
            instructions=instructions,
            sched_p_self=self.sched_p_self,
            total_transactions=total_txns,
            avg_warp_occupancy=avg_warp_occupancy,
        )

    # -- phases ---------------------------------------------------------------

    def _cluster_pi_profiles(self, units: Sequence[UnitStream]) -> PiClusterer:
        clusterer = PiClusterer(self.similarity_threshold)
        for stream in units:
            clusterer.add(stream.pcs, stream.unit_id)
        return clusterer

    def _instruction_stats(
        self, units: Sequence[UnitStream]
    ) -> Dict[int, InstructionStats]:
        stats: Dict[int, InstructionStats] = {}
        last_first_touch: Dict[int, int] = {}
        for stream in units:  # unit id order matters for inter-unit strides
            seen_this_unit: Dict[int, list] = {}  # pc -> [last_addr, last_stride]
            for pc, address, n_txns, step, is_store in zip(
                stream.pcs, stream.addrs, stream.txns, stream.steps,
                stream.stores,
            ):
                if pc == SYNC_PC:
                    # Barriers live in the π sequence (they control the
                    # scheduling policy, section 4.5) but carry no memory
                    # statistics.
                    continue
                entry = stats.get(pc)
                if entry is None:
                    entry = InstructionStats(
                        pc=pc,
                        base_address=address,
                        size=self.segment_size,
                        is_store=bool(is_store),
                    )
                    stats[pc] = entry
                entry.dynamic_count += 1
                entry.txns_per_access.add(n_txns)
                if n_txns > 1:
                    entry.txn_stride.add(step)
                if is_store:
                    entry.is_store = True
                state = seen_this_unit.get(pc)
                if state is None:
                    # First touch in this unit: inter-unit stride vs the
                    # previous unit's first touch of the same instruction.
                    prev_unit_touch = last_first_touch.get(pc)
                    if prev_unit_touch is not None:
                        entry.inter_stride.add(address - prev_unit_touch)
                    last_first_touch[pc] = address
                    seen_this_unit[pc] = [address, None]
                else:
                    stride = address - state[0]
                    entry.intra_stride.add(stride)
                    if state[1] is not None:
                        transitions = entry.intra_markov.get(state[1])
                        if transitions is None:
                            transitions = Histogram()
                            entry.intra_markov[state[1]] = transitions
                        transitions.add(stride)
                    state[0] = address
                    state[1] = stride
        return stats

    def _reuse_stats(
        self, units: Sequence[UnitStream], clusterer: PiClusterer
    ) -> List[PiProfileStats]:
        """Per-π reuse distributions.

        Algorithm 1 *consumes* a sampled reuse value as an instruction-index
        lookback (``T_t[j-1-reuse]``), so with ``reuse_semantics="lookback"``
        (the default) P_R records exactly that: the number of intervening
        dynamic instructions since the previous touch of the same cache
        line.  ``"stack"`` records the paper-literal LRU stack distance
        (Figure 5); the two coincide when the intervening accesses touch
        distinct lines.  ``reuse_fraction`` (Table 1's low/med/high class)
        is identical under both.
        """
        probabilities = clusterer.probabilities()
        shift = self.segment_size.bit_length() - 1
        use_stack = self.reuse_semantics == "stack"
        pi_stats = []
        for cluster, probability in zip(clusterer.clusters, probabilities):
            reuse = Histogram()
            reuses = 0
            total = 0
            members = cluster.member_units[:MAX_REUSE_UNITS_PER_CLUSTER]
            member_set = set(members)
            for stream in units:
                if stream.unit_id not in member_set:
                    continue
                if use_stack:
                    tracker = StackDistanceTracker()
                    for pc, address in zip(stream.pcs, stream.addrs):
                        if pc == SYNC_PC:
                            continue
                        distance = tracker.access(address >> shift)
                        total += 1
                        if distance != COLD_MISS:
                            reuses += 1
                            reuse.add(min(distance, MAX_TRACKED_REUSE))
                else:
                    # The synthesis histogram records instance-level
                    # lookbacks (what Algorithm 1 consumes); the reuse
                    # *fraction* counts every transaction, sibling segments
                    # included — Figure 5 computes reuse over the whole
                    # cacheline access stream, and window overlap between
                    # successive wide instances is genuine reuse.
                    last_instance: Dict[int, int] = {}
                    seen_lines: set = set()
                    for index, (pc, address, n_txns, step) in enumerate(
                        zip(stream.pcs, stream.addrs, stream.txns, stream.steps)
                    ):
                        if pc == SYNC_PC:
                            # Barriers occupy an instance slot (so lookback
                            # indices stay aligned with generation) but touch
                            # no lines.
                            continue
                        line = address >> shift
                        prev = last_instance.get(line)
                        if prev is not None:
                            reuse.add(min(index - prev - 1, MAX_TRACKED_REUSE))
                        last_instance[line] = index
                        step_lines = max(1, step >> shift)
                        for k in range(n_txns):
                            total += 1
                            sibling = line + k * step_lines
                            if sibling in seen_lines:
                                reuses += 1
                            else:
                                seen_lines.add(sibling)
            pi_stats.append(
                PiProfileStats(
                    sequence=cluster.representative,
                    probability=probability,
                    reuse=reuse,
                    reuse_fraction=reuses / total if total else 0.0,
                )
            )
        return pi_stats
