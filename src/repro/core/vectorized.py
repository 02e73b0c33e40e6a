"""NumPy array kernels for the G-MAP hot paths — the ``numpy`` backend.

The paper's pipeline is fundamentally columnar: per-instruction stride
histograms (P_S), per-π reuse histograms (P_R) and per-unit PC/address
vectors.  This module re-implements the three hot stages on that columnar
form:

* **profiling** (:func:`vectorized_instruction_stats`,
  :func:`vectorized_reuse_stats`) — stride and coalescing-degree histograms
  from ``np.diff``-style grouped differences and ``np.unique`` counting,
  reuse lookbacks from per-line previous-occurrence gaps.  Histograms are
  order-insensitive, so these are **bit-exact** against
  :class:`~repro.core.profiler.GmapProfiler`'s scalar loops (pinned by
  ``tests/test_vectorized_backend.py``);
* **coalescing** (:func:`lockstep_warp_trace_fast`,
  :func:`build_warp_traces_fast`) — per-warp ``np.unique`` over cache-line
  ids for divergence-free warps, bit-exact against
  :func:`~repro.gpu.executor.lockstep_warp_trace`, with a scalar fallback
  for divergent / shared-memory / multi-segment warps.  Affine kernels
  reach it as one threads × records array (:func:`regular_thread_array`),
  never as per-thread tuples;
* **generation** (:func:`generate_units`) — Algorithm 1 with batched
  ``searchsorted`` sampling over precomputed histogram CDFs from one seeded
  ``np.random.default_rng``.  The RNG stream necessarily differs from the
  scalar backend's ``random.Random``, so equivalence here is *statistical*:
  the clone is validated through the harness's existing accuracy
  tolerances, not bitwise.

Import this module only behind :func:`repro.core.backend.resolve_backend`
— it requires NumPy.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.coalescing import CoalescingModel, coalesce_segment_rows
from repro.core.distributions import Histogram
from repro.core.profile import GmapProfile, InstructionStats, PiProfileStats
from repro.core.reuse import COLD_MISS, lookback_gaps, stack_distances_array
from repro.gpu.executor import WarpTrace, lockstep_warp_trace
from repro.gpu.hierarchy import LaunchConfig
from repro.gpu.instructions import SYNC_PC, AccessTuple
from repro.gpu.memspace import SHARED_BASE, SHARED_SIZE, region_bounds, space_of

if TYPE_CHECKING:
    from repro.workloads.base import RegularKernel

#: What the array front end takes: one access sequence per thread (or
#: lane), or one uniform ``(threads, records, 4)`` int64 array.
ThreadStreams = Union[Sequence[Sequence[AccessTuple]], np.ndarray]

# --------------------------------------------------------------------------
# Histogram CDFs and batched sampling


def histogram_cdf(hist: Histogram) -> Tuple[np.ndarray, np.ndarray, int]:
    """``(sorted values, cumulative weights, total)`` of a histogram.

    Mirrors ``Histogram._rebuild_cdf`` so ``searchsorted`` sampling lands in
    the same bucket a ``bisect_right`` draw would for the same uniform.
    """
    items = hist.items()  # sorted (value, count) pairs
    values = np.array([v for v, _ in items], dtype=np.int64)
    weights = np.cumsum(np.array([c for _, c in items], dtype=np.int64))
    return values, weights, hist.total


def sample_histogram(
    hist: Histogram, rng: np.random.Generator, n: int,
    cdf: Optional[Tuple[np.ndarray, np.ndarray, int]] = None,
) -> np.ndarray:
    """Draw ``n`` values from a histogram with one batched uniform draw."""
    if hist.empty:
        raise ValueError("cannot sample from an empty histogram")
    values, weights, total = cdf if cdf is not None else histogram_cdf(hist)
    picks = rng.random(n) * total
    idx = np.searchsorted(weights, picks, side="right")
    np.minimum(idx, len(values) - 1, out=idx)
    return values[idx]


class BatchSampler:
    """Per-histogram CDF cache over one shared ``np.random.Generator``.

    Algorithm 1 samples the same few per-PC histograms thousands of times;
    caching each histogram's CDF arrays turns every batch draw into one
    vectorized ``searchsorted``.
    """

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng
        self._cdfs: Dict[int, Tuple[np.ndarray, np.ndarray, int]] = {}

    def draws(self, hist: Histogram, n: int) -> np.ndarray:
        key = id(hist)
        cdf = self._cdfs.get(key)
        if cdf is None:
            cdf = histogram_cdf(hist)
            self._cdfs[key] = cdf
        return sample_histogram(hist, self.rng, n, cdf=cdf)

    def draw(self, hist: Histogram) -> int:
        return int(self.draws(hist, 1)[0])


# --------------------------------------------------------------------------
# Grouped counting primitives


def _pair_counts(
    groups: np.ndarray, values: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Counts of distinct ``(group, value)`` pairs.

    Returns parallel arrays sorted by group then value — the columnar form
    of "one histogram per group", consumed by :func:`_fill_histograms`.
    """
    if len(groups) == 0:
        empty = np.array([], dtype=np.int64)
        return empty, empty, empty
    order = np.lexsort((values, groups))
    g, v = groups[order], values[order]
    new = np.empty(len(g), dtype=bool)
    new[0] = True
    new[1:] = (g[1:] != g[:-1]) | (v[1:] != v[:-1])
    starts = np.flatnonzero(new)
    counts = np.diff(np.append(starts, len(g)))
    return g[starts], v[starts], counts


def _triple_counts(
    k1: np.ndarray, k2: np.ndarray, k3: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Counts of distinct ``(k1, k2, k3)`` triples (Markov transitions)."""
    if len(k1) == 0:
        empty = np.array([], dtype=np.int64)
        return empty, empty, empty, empty
    order = np.lexsort((k3, k2, k1))
    a, b, c = k1[order], k2[order], k3[order]
    new = np.empty(len(a), dtype=bool)
    new[0] = True
    new[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1]) | (c[1:] != c[:-1])
    starts = np.flatnonzero(new)
    counts = np.diff(np.append(starts, len(a)))
    return a[starts], b[starts], c[starts], counts


def _fill_histograms(
    stats: Dict[int, InstructionStats],
    attr: str,
    groups: np.ndarray,
    values: np.ndarray,
    counts: np.ndarray,
) -> None:
    """Scatter grouped pair counts into per-instruction ``Histogram``s."""
    for pc, value, count in zip(
        groups.tolist(), values.tolist(), counts.tolist()
    ):
        getattr(stats[pc], attr).add(value, count)


# --------------------------------------------------------------------------
# Vectorized profiling


def _concat_streams(units: Sequence) -> Dict[str, np.ndarray]:
    """Columnar view of all unit streams, in stream order (SYNC included)."""
    lengths = np.array([len(s.pcs) for s in units], dtype=np.int64)
    return {
        "pc": np.concatenate(
            [np.asarray(s.pcs, dtype=np.int64) for s in units]
        ) if len(units) else np.array([], dtype=np.int64),
        "addr": np.concatenate(
            [np.asarray(s.addrs, dtype=np.int64) for s in units]
        ) if len(units) else np.array([], dtype=np.int64),
        "txn": np.concatenate(
            [np.asarray(s.txns, dtype=np.int64) for s in units]
        ) if len(units) else np.array([], dtype=np.int64),
        "step": np.concatenate(
            [np.asarray(s.steps, dtype=np.int64) for s in units]
        ) if len(units) else np.array([], dtype=np.int64),
        "store": np.concatenate(
            [np.asarray(s.stores, dtype=np.int64) for s in units]
        ) if len(units) else np.array([], dtype=np.int64),
        "unit": np.repeat(np.arange(len(units), dtype=np.int64), lengths),
    }


def vectorized_instruction_stats(
    units: Sequence, segment_size: int
) -> Dict[int, InstructionStats]:
    """Array-kernel equivalent of ``GmapProfiler._instruction_stats``.

    Bit-exact: every histogram is a multiset of the same observations the
    scalar loop accumulates (histograms are order-insensitive), instruction
    entries are created in first-occurrence order, and base addresses are
    the stream-order first touches.
    """
    cols = _concat_streams(units)
    keep = cols["pc"] != SYNC_PC
    pc = cols["pc"][keep]
    addr = cols["addr"][keep]
    txn = cols["txn"][keep]
    step = cols["step"][keep]
    store = cols["store"][keep]
    unit = cols["unit"][keep]
    if len(pc) == 0:
        return {}

    # Per-PC scaffolding, in first-occurrence order (matches the scalar
    # dict's insertion order, so profile.to_dict() round-trips identically).
    uniq_pcs, first_idx = np.unique(pc, return_index=True)
    order = np.argsort(first_idx)
    stats: Dict[int, InstructionStats] = {}
    for upc, fidx in zip(uniq_pcs[order].tolist(), first_idx[order].tolist()):
        stats[upc] = InstructionStats(
            pc=upc,
            base_address=int(addr[fidx]),
            size=segment_size,
            is_store=False,
        )
    sort_by_pc = np.argsort(pc, kind="stable")
    pc_sorted = pc[sort_by_pc]
    boundaries = np.flatnonzero(
        np.diff(pc_sorted, prepend=pc_sorted[0] - 1)
    )
    group_counts = np.diff(np.append(boundaries, len(pc_sorted)))
    any_store = np.logical_or.reduceat(store[sort_by_pc] > 0, boundaries)
    for upc, count, stored in zip(
        pc_sorted[boundaries].tolist(), group_counts.tolist(),
        any_store.tolist(),
    ):
        entry = stats[upc]
        entry.dynamic_count = count
        entry.is_store = bool(stored)

    # Coalescing-degree and sibling-spacing histograms.
    _fill_histograms(stats, "txns_per_access", *_pair_counts(pc, txn))
    wide = txn > 1
    _fill_histograms(stats, "txn_stride", *_pair_counts(pc[wide], step[wide]))

    # Per-(unit, PC) runs: first touches, intra strides, Markov pairs.
    run_order = np.lexsort((np.arange(len(pc)), pc, unit))
    r_unit, r_pc, r_addr = unit[run_order], pc[run_order], addr[run_order]
    new_run = np.empty(len(r_pc), dtype=bool)
    new_run[0] = True
    new_run[1:] = (r_unit[1:] != r_unit[:-1]) | (r_pc[1:] != r_pc[:-1])
    later = ~new_run
    stride = np.zeros(len(r_pc), dtype=np.int64)
    stride[1:] = r_addr[1:] - r_addr[:-1]
    _fill_histograms(
        stats, "intra_stride", *_pair_counts(r_pc[later], stride[later])
    )

    # Markov transitions: both this element and its predecessor are
    # non-first in the same run, so the previous stride exists.
    has_prev = np.zeros(len(r_pc), dtype=bool)
    has_prev[1:] = later[1:] & later[:-1]
    m_pc, m_prev, m_cur, m_counts = _triple_counts(
        r_pc[has_prev],
        stride[np.flatnonzero(has_prev) - 1],
        stride[has_prev],
    )
    for upc, prev, cur, count in zip(
        m_pc.tolist(), m_prev.tolist(), m_cur.tolist(), m_counts.tolist()
    ):
        transitions = stats[upc].intra_markov.get(prev)
        if transitions is None:
            transitions = Histogram()
            stats[upc].intra_markov[prev] = transitions
        transitions.add(cur, count)

    # Inter-unit strides: per PC, consecutive units' first touches in unit
    # (stream-list) order — `run_order` already yields first touches sorted
    # by unit within each PC once re-sorted by PC.
    ft_pc, ft_unit, ft_addr = r_pc[new_run], r_unit[new_run], r_addr[new_run]
    ft_order = np.lexsort((ft_unit, ft_pc))
    f_pc, f_addr = ft_pc[ft_order], ft_addr[ft_order]
    same_pc = f_pc[1:] == f_pc[:-1]
    _fill_histograms(
        stats, "inter_stride",
        *_pair_counts(f_pc[1:][same_pc], (f_addr[1:] - f_addr[:-1])[same_pc]),
    )
    return stats


def _stream_reuse_arrays(
    stream, shift: int, max_tracked: int
) -> Tuple[np.ndarray, int, int]:
    """Per-stream lookback reuse summaries (cluster-independent).

    Returns ``(clipped gaps, total sibling touches, distinct sibling
    lines)``; the reuse count the scalar loop accumulates is exactly
    ``total - distinct`` (each distinct line's first touch is cold, every
    later touch hits the seen-set).
    """
    pcs = np.asarray(stream.pcs, dtype=np.int64)
    keep = pcs != SYNC_PC
    index = np.flatnonzero(keep)  # instance slots, barriers included
    if len(index) == 0:
        return np.array([], dtype=np.int64), 0, 0
    lines = np.asarray(stream.addrs, dtype=np.int64)[keep] >> shift
    gaps = np.minimum(lookback_gaps(lines, index), max_tracked)
    txns = np.asarray(stream.txns, dtype=np.int64)[keep]
    step_lines = np.maximum(
        np.asarray(stream.steps, dtype=np.int64)[keep] >> shift, 1
    )
    total = int(txns.sum())
    offsets = np.cumsum(txns) - txns
    sibling = (
        np.repeat(lines, txns)
        + (np.arange(total, dtype=np.int64) - np.repeat(offsets, txns))
        * np.repeat(step_lines, txns)
    )
    return gaps, total, len(np.unique(sibling))


def _stream_stack_arrays(
    stream, shift: int, max_tracked: int
) -> Tuple[np.ndarray, int, int]:
    """Per-stream LRU stack-distance summaries (``"stack"`` semantics).

    Returns ``(clipped non-cold distances, total accesses, distinct
    lines)``; the scalar loop's reuse count is ``total - distinct`` (every
    non-cold access is a reuse).
    """
    pcs = np.asarray(stream.pcs, dtype=np.int64)
    keep = pcs != SYNC_PC
    if not keep.any():
        return np.array([], dtype=np.int64), 0, 0
    lines = np.asarray(stream.addrs, dtype=np.int64)[keep] >> shift
    distances = stack_distances_array(lines)
    warm = np.minimum(distances[distances != COLD_MISS], max_tracked)
    return warm, len(distances), len(distances) - len(warm)


def vectorized_reuse_stats(
    units: Sequence,
    clusterer,
    segment_size: int,
    max_tracked_reuse: int,
    max_units_per_cluster: int,
    reuse_semantics: str = "lookback",
) -> List[PiProfileStats]:
    """Array-kernel equivalent of the scalar ``_reuse_stats``.

    Per-stream gap/distance arrays and sibling-line counts are computed
    once and aggregated per π cluster — bit-exact because each stream's
    reuse state is independent and histograms are order-insensitive.
    """
    shift = segment_size.bit_length() - 1
    probabilities = clusterer.probabilities()
    summarize = (
        _stream_stack_arrays
        if reuse_semantics == "stack"
        else _stream_reuse_arrays
    )
    per_stream = {
        stream.unit_id: summarize(stream, shift, max_tracked_reuse)
        for stream in units
    }
    pi_stats = []
    for cluster, probability in zip(clusterer.clusters, probabilities):
        members = cluster.member_units[:max_units_per_cluster]
        member_set = set(members)
        gap_arrays = []
        reuses = 0
        total = 0
        for stream in units:
            if stream.unit_id not in member_set:
                continue
            gaps, touches, distinct = per_stream[stream.unit_id]
            gap_arrays.append(gaps)
            total += touches
            reuses += touches - distinct
        reuse = Histogram()
        if gap_arrays:
            values, counts = np.unique(
                np.concatenate(gap_arrays), return_counts=True
            )
            for value, count in zip(values.tolist(), counts.tolist()):
                reuse.add(value, count)
        pi_stats.append(
            PiProfileStats(
                sequence=cluster.representative,
                probability=probability,
                reuse=reuse,
                reuse_fraction=reuses / total if total else 0.0,
            )
        )
    return pi_stats


# --------------------------------------------------------------------------
# Vectorized coalescing (Fermi front end fast path)


def regular_thread_array(kernel: "RegularKernel") -> Optional[np.ndarray]:
    """Every thread program of an affine kernel as one int64 array.

    Row ``tid`` of the ``(threads, records, 4)`` result is
    ``kernel.trace_thread(tid)`` record for record: each record is
    ``tid * inter_stride + offset`` with the per-record ``offset`` (array
    base, ``(j % reuse_period) * intra_stride`` and ``phase``) computed once
    for all threads, and ``sync_every`` adds SYNC rows.  Kernels with
    ``divergent_instrs`` give ``None``: their threads differ in length.
    """
    if kernel.divergent_instrs:
        return None
    instrs = kernel.instrs

    def column(field: str) -> np.ndarray:
        return np.array([getattr(i, field) for i in instrs], dtype=np.int64)

    j = np.arange(kernel.iters, dtype=np.int64)[:, None]
    # (iterations, slots) tables, one slot per instruction.
    issued = j % column("every") == 0
    offset = (
        np.array([kernel.layout.base(i.array) for i in instrs], dtype=np.int64)
        + column("phase")
        + (j % column("reuse_period")) * column("intra_stride")
    )
    fields = np.stack([column("pc"), column("inter_stride"), column("size"),
                       column("is_store")], axis=1)
    if kernel.sync_every:  # a barrier slot closes every sync_every-th iteration
        issued = np.hstack([issued, (j + 1) % kernel.sync_every == 0])
        offset = np.hstack([offset, np.zeros_like(j)])
        fields = np.vstack([fields, [SYNC_PC, 0, 0, 0]])
    rows, slots = np.nonzero(issued)  # iteration-major, program order
    records = fields[slots]  # column 1 holds inter_stride until replaced
    tids = np.arange(kernel.total_threads, dtype=np.int64)[:, None]
    threads = np.empty((len(tids),) + records.shape, dtype=np.int64)
    threads[:] = records
    threads[:, :, 1] = tids * records[:, 1] + offset[rows, slots]
    return threads


def lockstep_warp_trace_fast(
    lane_streams: ThreadStreams,
    coalescer: CoalescingModel,
    warp_id: int = 0,
    block: int = 0,
) -> Optional[WarpTrace]:
    """Vectorized lockstep+coalesce for divergence-free warps.

    ``lane_streams`` is either one access sequence per lane or a uniform
    ``(lanes, records, 4)`` int64 array, used as is.  Returns ``None`` when
    the warp needs the scalar path: ragged or divergent lane streams (the
    min-PC reconvergence walk), shared-memory accesses (bank-conflict
    serialisation, not coalescing), or lane accesses spanning multiple
    segments.  For eligible warps the output is bit-exact with
    :func:`~repro.gpu.executor.lockstep_warp_trace`: with identical
    per-lane PC sequences every instruction issues with all lanes active,
    and ``np.unique`` yields the same ascending-segment transaction order
    as the scalar ``sorted(segments.items())``.
    """
    if len(lane_streams) == 0:
        return WarpTrace(warp_id=warp_id, block=block)
    if isinstance(lane_streams, np.ndarray):
        arr = lane_streams
    else:
        length = len(lane_streams[0])
        if any(len(s) != length for s in lane_streams):
            return None
        if length == 0:
            return WarpTrace(warp_id=warp_id, block=block)
        try:
            arr = np.asarray(lane_streams, dtype=np.int64)
        except (ValueError, TypeError):
            return None
    if arr.ndim != 3 or arr.shape[2] != 4:
        return None
    pcs = arr[:, :, 0]
    if not (pcs == pcs[0]).all():
        return None  # divergent: min-PC reconvergence needs the scalar walk
    row_pc = pcs[0]
    addrs = arr[:, :, 1].T  # (instructions, lanes)
    sizes = arr[:, :, 2].T
    stores = arr[:, :, 3].T
    mem = row_pc != SYNC_PC
    shift = coalescer.segment_size.bit_length() - 1
    mem_addrs = addrs[mem]
    mem_sizes = sizes[mem]
    if mem_addrs.size:
        if (mem_sizes <= 0).any():
            return None  # scalar path raises the diagnostic
        in_shared = (mem_addrs >= SHARED_BASE) & (
            mem_addrs < SHARED_BASE + SHARED_SIZE
        )
        if in_shared.any():
            return None  # bank-conflict serialisation, not coalescing
        if (
            (mem_addrs >> shift)
            != ((mem_addrs + mem_sizes - 1) >> shift)
        ).any():
            return None  # an access straddles segments

    trace = WarpTrace(warp_id=warp_id, block=block)
    n_lanes = arr.shape[0]
    n_mem_rows = int(mem.sum())
    trace.active_lanes = n_lanes * n_mem_rows
    if n_mem_rows:
        _, txn_segments, _, n_txns = coalesce_segment_rows(mem_addrs >> shift)
        txn_addr = txn_segments << shift
        row_store = (stores[mem] > 0).any(axis=1).astype(np.int64)
    txn_addr_list = txn_addr.tolist() if n_mem_rows else []
    n_txns_list = n_txns.tolist() if n_mem_rows else []
    store_list = row_store.tolist() if n_mem_rows else []
    segment = coalescer.segment_size
    transactions = trace.transactions
    instructions = trace.instructions
    cursor = 0
    mem_row = 0
    for pc in row_pc.tolist():
        if pc == SYNC_PC:
            transactions.append((SYNC_PC, 0, 0, 0))
            instructions.append((SYNC_PC, 1))
            continue
        count = n_txns_list[mem_row]
        store = store_list[mem_row]
        for address in txn_addr_list[cursor:cursor + count]:
            transactions.append((pc, address, segment, store))
        instructions.append((pc, count))
        cursor += count
        mem_row += 1
    return trace


def build_warp_traces_fast(
    launch: LaunchConfig,
    thread_traces: ThreadStreams,
    coalescer: CoalescingModel,
) -> List[WarpTrace]:
    """Fermi front end over all warps, vectorized where eligible.

    ``thread_traces`` is either one access sequence per thread or a
    uniform ``(threads, records, 4)`` int64 array (see
    :func:`regular_thread_array`), of which each warp takes its contiguous
    lane slice as a view.  Uniform (divergence-free, global-memory) warps
    — the overwhelmingly common case — take the array fast path; any other
    warp falls back to the scalar :func:`lockstep_warp_trace` on its own
    lanes, so the result is always bit-exact with the scalar front end.
    """
    is_array = isinstance(thread_traces, np.ndarray)
    warp_traces = []
    for warp in launch.iter_warps():
        tids = launch.threads_in_warp(warp)
        if is_array:
            lanes = thread_traces[tids[0]:tids[-1] + 1]
        else:
            lanes = [thread_traces[tid] for tid in tids]
        block = launch.block_of_warp(warp)
        trace = lockstep_warp_trace_fast(
            lanes, coalescer, warp_id=warp, block=block
        )
        if trace is None:
            if is_array:
                lanes = [list(map(tuple, lane)) for lane in lanes.tolist()]
            trace = lockstep_warp_trace(
                lanes, coalescer, warp_id=warp, block=block
            )
        warp_traces.append(trace)
    return warp_traces


# --------------------------------------------------------------------------
# Vectorized generation (Algorithm 1 with batched sampling)


def _wrap_into(addresses: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Window wrap ``lo + (a - lo) % (hi - lo)``, the scalar bounds rule.

    Modulo commutes with accumulation, so applying it once to a cumulative
    stride sum equals the scalar walk's wrap-on-overflow at every step.
    """
    return lo + (addresses - lo) % (hi - lo)


def _first_touch(
    pc: int,
    stats: InstructionStats,
    global_base: Dict[int, int],
    bounds: Dict[int, Tuple[int, int]],
    sampler: BatchSampler,
) -> int:
    """Algorithm 1 lines 6-9: anchor or advance the global base table."""
    previous = global_base.get(pc)
    if previous is None:
        address = stats.base_address
    else:
        offset = 0 if stats.inter_stride.empty else sampler.draw(
            stats.inter_stride
        )
        address = previous + offset
    lo, hi = bounds[pc]
    if not lo <= address < hi:
        address = lo + (address - lo) % (hi - lo)
    global_base[pc] = address
    return address


def _generate_unit_no_reuse(
    unit_id: int,
    pi_index: int,
    sequence: Sequence[int],
    instructions: Dict[int, InstructionStats],
    global_base: Dict[int, int],
    bounds: Dict[int, Tuple[int, int]],
    sampler: BatchSampler,
):
    """Fully-vectorized Algorithm 1 when the π profile has no reuse.

    Without the reuse lookback, per-PC walks are independent: each one is
    ``first_touch + cumsum(strides)`` wrapped into its memory window.
    """
    from repro.core.generator import GeneratedUnit

    kept: List[Tuple[int, InstructionStats]] = []
    for pc in sequence:
        if pc == SYNC_PC:
            kept.append((SYNC_PC, None))
        else:
            stats = instructions.get(pc)
            if stats is not None:
                kept.append((pc, stats))
    n = len(kept)
    out_pc = np.empty(n, dtype=np.int64)
    out_addr = np.zeros(n, dtype=np.int64)
    out_txn = np.ones(n, dtype=np.int64)
    out_store = np.zeros(n, dtype=np.int64)
    by_pc: Dict[int, List[int]] = {}
    for slot, (pc, _) in enumerate(kept):
        out_pc[slot] = pc
        if pc != SYNC_PC:
            by_pc.setdefault(pc, []).append(slot)
    for pc, slots in by_pc.items():
        stats = instructions[pc]
        occurrences = len(slots)
        first = _first_touch(pc, stats, global_base, bounds, sampler)
        lo, hi = bounds[pc]
        positions = np.asarray(slots, dtype=np.int64)
        if occurrences > 1 and not stats.intra_stride.empty:
            strides = sampler.draws(stats.intra_stride, occurrences - 1)
            walk = _wrap_into(first + np.cumsum(strides), lo, hi)
            out_addr[positions[1:]] = walk
        elif occurrences > 1:
            out_addr[positions[1:]] = first
        out_addr[positions[0]] = first
        if not stats.txns_per_access.empty:
            out_txn[positions] = sampler.draws(
                stats.txns_per_access, occurrences
            )
        if stats.is_store:
            out_store[positions] = 1
    return GeneratedUnit(
        unit_id, pi_index,
        out_pc.tolist(), out_addr.tolist(),
        out_txn.tolist(), out_store.tolist(),
    )


class _Pool:
    """Cursor over a pre-drawn sample array (refills by doubling)."""

    __slots__ = ("hist", "sampler", "values", "cursor")

    def __init__(self, hist: Histogram, sampler: BatchSampler, n: int) -> None:
        self.hist = hist
        self.sampler = sampler
        self.values = sampler.draws(hist, max(1, n)).tolist()
        self.cursor = 0

    def next(self) -> int:
        if self.cursor >= len(self.values):
            self.values = self.sampler.draws(
                self.hist, max(1, len(self.values))
            ).tolist()
            self.cursor = 0
        value = self.values[self.cursor]
        self.cursor += 1
        return value


def _generate_unit_with_reuse(
    unit_id: int,
    pi_index: int,
    pi: PiProfileStats,
    sequence: Sequence[int],
    instructions: Dict[int, InstructionStats],
    global_base: Dict[int, int],
    bounds: Dict[int, Tuple[int, int]],
    sampler: BatchSampler,
    stride_model: str,
):
    """Algorithm 1 with the reuse lookback, sampling from pre-drawn pools.

    The lookback couples every instruction through the shared address list,
    so the walk itself stays sequential; all histogram draws are batched.
    """
    from repro.core.generator import GeneratedUnit

    use_markov = stride_model == "markov"
    occurrences: Dict[int, int] = {}
    for pc in sequence:
        if pc != SYNC_PC and pc in instructions:
            occurrences[pc] = occurrences.get(pc, 0) + 1
    stride_pools: Dict[int, _Pool] = {}
    txn_pools: Dict[int, _Pool] = {}
    for pc, count in occurrences.items():
        stats = instructions[pc]
        if not stats.intra_stride.empty:
            stride_pools[pc] = _Pool(stats.intra_stride, sampler, count)
        if not stats.txns_per_access.empty:
            txn_pools[pc] = _Pool(stats.txns_per_access, sampler, count)
    reuse_pool = (
        None
        if pi.reuse.empty
        else _Pool(pi.reuse, sampler, sum(occurrences.values()))
    )

    unit = GeneratedUnit(unit_id, pi_index, [], [], [], [])
    addresses = unit.addresses
    local_base: Dict[int, int] = {}
    last_stride: Dict[int, int] = {}
    for pc in sequence:
        if pc == SYNC_PC:
            unit.pcs.append(SYNC_PC)
            addresses.append(0)
            unit.txns.append(1)
            unit.stores.append(0)
            continue
        stats = instructions.get(pc)
        if stats is None:
            continue
        if pc not in local_base:
            address = _first_touch(pc, stats, global_base, bounds, sampler)
            local_base[pc] = address
        else:
            address = None
            if reuse_pool is not None:
                reuse = reuse_pool.next()
                lookback = len(addresses) - 1 - reuse
                if lookback >= 0:
                    candidate = addresses[lookback]
                    reuse_stride = candidate - local_base[pc]
                    if reuse_stride in stats.intra_stride:
                        address = candidate
                        local_base[pc] = address
                        last_stride[pc] = reuse_stride
            if address is None:
                pool = stride_pools.get(pc)
                if pool is None:
                    stride = 0
                else:
                    transitions = None
                    if use_markov:
                        prev = last_stride.get(pc)
                        if prev is not None:
                            transitions = stats.intra_markov.get(prev)
                    if transitions is not None and not transitions.empty:
                        stride = sampler.draw(transitions)
                    else:
                        stride = pool.next()
                address = local_base[pc] + stride
                lo, hi = bounds[pc]
                if not lo <= address < hi:
                    address = lo + (address - lo) % (hi - lo)
                local_base[pc] = address
                last_stride[pc] = stride
        pool = txn_pools.get(pc)
        unit.pcs.append(pc)
        addresses.append(address)
        unit.txns.append(1 if pool is None else pool.next())
        unit.stores.append(1 if stats.is_store else 0)
    return unit


def generate_units(
    profile: GmapProfile,
    seed: int,
    unit_count: int,
    max_len: Optional[int] = None,
    stride_model: str = "iid",
) -> List:
    """Algorithm 2 lines 3-7 on the ``numpy`` backend.

    One seeded ``np.random.default_rng(seed)`` drives π assignment (a
    single batched ``searchsorted`` over the cumulative Q) and every
    Algorithm 1 histogram draw.  Deterministic given ``seed``, but a
    *different* stream than the scalar backend's ``random.Random(seed)`` —
    clones from the two backends agree statistically, not bitwise.
    """
    rng = np.random.default_rng(seed)
    sampler = BatchSampler(rng)
    q = np.cumsum([pi.probability for pi in profile.pi_profiles])
    picks = rng.random(unit_count)
    pi_indices = np.minimum(
        np.searchsorted(q, picks, side="right"), len(q) - 1
    )
    bounds = {
        pc: region_bounds(space_of(stats.base_address))
        for pc, stats in profile.instructions.items()
    }
    global_base: Dict[int, int] = {}
    units = []
    for unit_id, pi_index in enumerate(pi_indices.tolist()):
        pi = profile.pi_profiles[pi_index]
        sequence = pi.sequence if max_len is None else pi.sequence[:max_len]
        if pi.reuse.empty and stride_model != "markov":
            unit = _generate_unit_no_reuse(
                unit_id, pi_index, sequence, profile.instructions,
                global_base, bounds, sampler,
            )
        else:
            unit = _generate_unit_with_reuse(
                unit_id, pi_index, pi, sequence, profile.instructions,
                global_base, bounds, sampler, stride_model,
            )
        units.append(unit)
    return units
