"""Array-resident memsim: vectorized flat-trace cache simulation.

The scalar event loops in :mod:`repro.memsim.simulator` are the repo's
bit-exact oracles.  This module holds the *fixed-order* engine chain
(:func:`simulate_flat_runs`: analytic, then array, then the oracle
:func:`~repro.memsim.simulator.simulate_flat_trace`) and its numpy array
engine: when the interleaving of requests does not depend on simulated
latency — trace-file replay and Algorithm 2's round-robin drain — the
global access order is statically computable, and the cache layer becomes
a batch problem instead of a per-access python call chain.

The hybrid scheme splits one simulation into three array phases plus one
bounded scalar window:

1. **decode** (:class:`FlatTraceArrays`) — one-shot columnar extraction of
   every per-core record plus the global replay order (a single lexsort
   reproduces the oracle's ``(clock, core)`` event-heap merge exactly);
2. **route + sector split** — memory-space routing and the L1 sector
   expansion for transactions wider than a line, vectorized over the whole
   trace with one set-index/tag extraction;
3. **per-set grouped LRU** (:func:`_lru_rounds`) — all ``(core, set)``
   units advance in lockstep rounds; each round is a handful of array ops
   over an ``(active_units, assoc)`` state matrix, so hits, misses, victim
   identity and victim dirtiness come out bit-identical to the dict-based
   cache model without any per-access python;
4. **scalar downstream window** — everything whose semantics depend on
   exact event ordering (L1/L2 MSHR merge windows, banked-L2 busy times,
   the FR-FCFS DRAM model) replays scalar, but only over the compact L1
   *miss* stream the array phases produced — the part of the trace where
   ordering actually matters.

Configurations the capability table
(:mod:`repro.memsim.capabilities`) refuses for the ``array`` engine
(prefetchers, non-LRU replacement, write-through/no-allocate policies,
inclusive L2), and traces with traffic into a configured texture/constant
cache, fall back to the python oracle — detected from
:class:`~repro.memsim.config.SimConfig` and the decoded trace, never
guessed, and returned as the run's reasons.  See ``docs/performance.md``
for the full matrix.

On top of the shared phases, :func:`simulate_flat_runs` runs **one-pass
multi-config sweeps**: a single decode + order resolution fans out to N
configurations that reuse the tag/set arrays, so a 6-config sweep costs
one trace pass plus six cheap array phases.

Bit-exactness contract: for supported configurations every
:class:`~repro.memsim.stats.SimResult` field — including MSHR merge/stall
counters and DRAM timing stats — equals the oracle's, because the scalar
window replays the identical arithmetic in the identical order.
"""

from __future__ import annotations

import heapq
import itertools
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro.gpu.instructions import AccessTuple
from repro.gpu.memspace import (
    CONSTANT_BASE,
    CONSTANT_SIZE,
    SHARED_BASE,
    SHARED_SIZE,
    TEXTURE_BASE,
    TEXTURE_SIZE,
)
from repro.core.backend import import_numpy, resolve_backend
from repro.memsim.capabilities import (
    UnsupportedConfigError,
    fallback_reasons,
    merge_reasons,
)
from repro.memsim.config import SimConfig
from repro.memsim.dram import DramModel
from repro.memsim.stats import CacheStats, SimResult

if TYPE_CHECKING:
    import numpy as np

    from repro.analytical.analytic import AnalyticCacheModel


def decode_records(trace: Sequence[AccessTuple], core: int = 0):
    """One core's flat trace as an ``(n, 4)`` int64 record array.

    Columns are ``(pc, address, size, is_store)``; ``core`` only labels
    the error raised for malformed records.
    """
    np = import_numpy()
    try:
        # Flattened fromiter beats np.asarray-of-tuples ~2x on the
        # python-tuple traces this decode normally sees.
        block = np.fromiter(
            itertools.chain.from_iterable(trace),
            dtype=np.int64, count=len(trace) * 4,
        ).reshape(-1, 4)
    except (TypeError, ValueError):
        block = np.asarray(trace, dtype=np.int64)
    if block.ndim != 2 or block.shape[1] != 4:
        raise ValueError(
            f"core {core}: flat trace records must be "
            f"(pc, address, size, is_store) tuples"
        )
    return block


class FlatTraceArrays:
    """Columnar view of per-core flat traces, in global replay order.

    The oracle merges cores through a ``(clock, core)`` event heap where
    every record advances its core's clock by exactly one — so the global
    order is the stable lexicographic sort by (record index, core), and
    one ``np.lexsort`` replaces the whole heap dance.  The decode is
    configuration-independent: one instance fans out to any number of
    ``SimConfig`` evaluations (the one-pass multi-config path).
    """

    __slots__ = (
        "pc", "address", "size", "store", "core", "clock",
        "num_cores", "requests_issued", "cycles", "_l1_mask",
        "_stream_cache",
    )

    def __init__(self, per_core_traces: Sequence[Sequence[AccessTuple]]) -> None:
        np = import_numpy()
        chunks = []
        cores = []
        clocks = []
        for core, trace in enumerate(per_core_traces):
            if not trace:
                continue
            block = decode_records(trace, core)
            chunks.append(block)
            cores.append(np.full(len(block), core, dtype=np.int64))
            clocks.append(np.arange(len(block), dtype=np.int64))
        self.num_cores = len(per_core_traces)
        self._stream_cache = {}
        if not chunks:
            empty = np.empty(0, dtype=np.int64)
            self.pc = self.address = self.size = self.store = empty
            self.core = self.clock = empty
            self.requests_issued = 0
            self.cycles = 0.0
            self._l1_mask = np.empty(0, dtype=bool)
            return
        records = np.concatenate(chunks)
        core_arr = np.concatenate(cores)
        clock_arr = np.concatenate(clocks)
        order = np.lexsort((core_arr, clock_arr))
        records = records[order]
        self.pc = records[:, 0]
        self.address = records[:, 1]
        self.size = records[:, 2]
        self.store = records[:, 3] != 0
        self.core = core_arr[order]
        self.clock = clock_arr[order]
        self.requests_issued = int(np.count_nonzero(self.pc >= 0))
        self.cycles = float(max(len(t) for t in per_core_traces))
        address = self.address
        shared = (address >= SHARED_BASE) & (address < SHARED_BASE + SHARED_SIZE)
        # Memory records outside the shared window take the L1 data path;
        # texture/constant windows only divert when the config instantiates
        # those caches (checked per config in fallback_reasons).
        self._l1_mask = (self.pc >= 0) & ~shared

    def fallback_reasons(self, config: SimConfig) -> List[str]:
        """Config + trace features that force the scalar oracle.

        The capability table's ``array`` rows, plus traffic into a
        configured texture/constant cache (a property of the trace).
        """
        reasons = fallback_reasons(config, "array")
        address = self.address
        if config.texture_cache is not None and len(address):
            tex = (address >= TEXTURE_BASE) & (
                address < TEXTURE_BASE + TEXTURE_SIZE)
            if bool(tex.any()):
                reasons.append(
                    "texture-cache traffic requires the read-only-cache "
                    "scalar path")
        if config.constant_cache is not None and len(address):
            const = (address >= CONSTANT_BASE) & (
                address < CONSTANT_BASE + CONSTANT_SIZE)
            if bool(const.any()):
                reasons.append(
                    "constant-cache traffic requires the read-only-cache "
                    "scalar path")
        return reasons

    # -- phase 2: routing + sector expansion ---------------------------------

    def l1_stream(self, config: SimConfig):
        """The L1-bound access stream for one config, sector-expanded.

        Returns ``(line, store, now, core)`` arrays in global replay
        order: one entry per L1 cache access, with transactions wider than
        the L1 line split into aligned line-sized sectors exactly as
        ``MemoryHierarchy.access`` does.

        The result depends on the config only through the L1 line size, so
        it is memoized per line size — in a one-pass multi-config sweep
        every config sharing a line size reuses one expansion.
        """
        np = import_numpy()
        cached = self._stream_cache.get(config.l1.line_size)
        if cached is not None:
            return cached
        shift = config.l1.line_size.bit_length() - 1
        mask = self._l1_mask
        address = self.address[mask]
        size = self.size[mask]
        store = self.store[mask]
        now = self.clock[mask].astype(np.float64)
        core = self.core[mask]
        first = address >> shift
        last = (address + size - 1) >> shift
        sectors = np.where(size <= config.l1.line_size, 1, last - first + 1)
        if bool((sectors == 1).all()):
            result = (first, store, now, core)
        else:
            rep = np.repeat(np.arange(len(address)), sectors)
            offsets = np.concatenate(([0], np.cumsum(sectors)[:-1]))
            within = (
                np.arange(int(sectors.sum()), dtype=np.int64) - offsets[rep]
            )
            result = (first[rep] + within, store[rep], now[rep], core[rep])
        self._stream_cache[config.l1.line_size] = result
        return result


def _lru_rounds(
    unit: "np.ndarray", line: "np.ndarray", store: "np.ndarray", assoc: int
) -> Tuple["np.ndarray", "np.ndarray", "np.ndarray"]:
    """Per-set grouped LRU over independent units, in lockstep rounds.

    ``unit`` maps each access to its (cache instance, set) pair; units are
    mutually independent, so round ``r`` advances every unit's ``r``-th
    access with a few array ops over an ``(active_units, assoc)`` state
    matrix.  Stamps are the access's global stream index — monotone within
    every unit, so LRU/victim selection orders identically to the oracle's
    per-cache clock.

    Returns ``(hit, victim_line, victim_dirty)`` per access (original
    order); ``victim_line`` is -1 where no line was evicted.
    """
    np = import_numpy()
    n = len(unit)
    hit = np.zeros(n, dtype=bool)
    victim_line = np.full(n, -1, dtype=np.int64)
    victim_dirty = np.zeros(n, dtype=bool)
    if n == 0:
        return hit, victim_line, victim_dirty
    order = np.argsort(unit, kind="stable")
    sorted_unit = unit[order]
    if assoc == 1:
        # Direct-mapped: one resident line per unit, so the whole LRU
        # collapses to run-length logic over the unit-sorted stream — a
        # hit is a repeat of the unit's previous line, the victim is that
        # previous line, and victim dirtiness is "any store in the
        # previous residency run".  No rounds loop at all.
        sorted_line = line[order]
        sorted_store = store[order]
        same_unit = np.empty(n, dtype=bool)
        same_unit[0] = False
        same_unit[1:] = sorted_unit[1:] == sorted_unit[:-1]
        hit_s = np.empty(n, dtype=bool)
        hit_s[0] = False
        hit_s[1:] = same_unit[1:] & (sorted_line[1:] == sorted_line[:-1])
        hit[order] = hit_s
        miss_s = ~hit_s
        # Residency runs: every miss starts one.  The evicting miss's
        # victim run is the immediately preceding run of the same unit.
        run_starts = np.nonzero(miss_s)[0]
        run_dirty = np.logical_or.reduceat(sorted_store, run_starts)
        run_id = np.cumsum(miss_s) - 1
        evict = np.nonzero(miss_s & same_unit)[0]
        evict_index = order[evict]
        victim_line[evict_index] = sorted_line[evict - 1]
        victim_dirty[evict_index] = run_dirty[run_id[evict] - 1]
        return hit, victim_line, victim_dirty
    if assoc == 2:
        # Two-way LRU also collapses to run-compressed logic: after the
        # first access of a unit's run k the resident pair is exactly
        # {v_k, v_(k-1)}, so that access hits iff k >= 2 and
        # v_k == v_(k-2), a full miss evicts v_(k-2), and a victim's
        # dirtiness is the OR of stores over its residency chain — the
        # maximal stretch of equal-valued *same-parity* runs (k-2, k-4,
        # ...) back to the fill.  No rounds loop at all.
        sorted_line = line[order]
        sorted_store = store[order]
        new_unit = np.empty(n, dtype=bool)
        new_unit[0] = True
        new_unit[1:] = sorted_unit[1:] != sorted_unit[:-1]
        new_run = new_unit.copy()
        new_run[1:] |= sorted_line[1:] != sorted_line[:-1]
        run_starts = np.nonzero(new_run)[0]
        num_runs = len(run_starts)
        run_val = sorted_line[run_starts]
        run_store = np.logical_or.reduceat(sorted_store, run_starts)
        run_new_unit = new_unit[run_starts]
        unit_first = np.nonzero(run_new_unit)[0]
        runs_per_unit = np.diff(np.append(unit_first, num_runs))
        k = (np.arange(num_runs, dtype=np.int64)
             - np.repeat(unit_first, runs_per_unit))
        hit2 = np.zeros(num_runs, dtype=bool)
        deep = np.nonzero(k >= 2)[0]
        hit2[deep] = run_val[deep] == run_val[deep - 2]
        hit_s = np.ones(n, dtype=bool)
        hit_s[run_starts] = hit2
        hit[order] = hit_s
        # Residency segments, per (unit, parity) subsequence: every
        # non-hit first access is a fill that starts a new segment;
        # cumulative OR of per-run stores within the segment gives the
        # way's dirty bit after each run.
        run_unit_id = np.cumsum(run_new_unit) - 1
        pkey = run_unit_id * 2 + (k & 1)
        porder = np.argsort(pkey, kind="stable")
        pk = pkey[porder]
        p_store = run_store[porder].astype(np.int64)
        seg_start = np.empty(num_runs, dtype=bool)
        seg_start[0] = True
        seg_start[1:] = pk[1:] != pk[:-1]
        seg_start |= ~hit2[porder]
        seg_first = np.nonzero(seg_start)[0]
        seg_len = np.diff(np.append(seg_first, num_runs))
        cs = np.cumsum(p_store)
        base = np.repeat(cs[seg_first] - p_store[seg_first], seg_len)
        dirty_cum = (cs - base) > 0
        pos_of = np.empty(num_runs, dtype=np.int64)
        pos_of[porder] = np.arange(num_runs, dtype=np.int64)
        evict_runs = deep[~hit2[deep]]
        evict_index = order[run_starts[evict_runs]]
        victim_line[evict_index] = run_val[evict_runs - 2]
        victim_dirty[evict_index] = dirty_cum[pos_of[evict_runs - 2]]
        return hit, victim_line, victim_dirty
    starts = np.nonzero(
        np.concatenate(([True], sorted_unit[1:] != sorted_unit[:-1]))
    )[0]
    counts = np.diff(np.append(starts, n))
    # Sort groups by descending depth so each round's active units are a
    # prefix — state updates become contiguous views, not fancy indexing.
    by_depth = np.argsort(-counts, kind="stable")
    counts = counts[by_depth]
    num_units = len(counts)
    # Row of each access = its unit's depth rank; round = its position
    # within the unit.  Sorting by (round, row) lays the whole stream out
    # round-major with rows as prefixes, so the rounds loop below indexes
    # by cheap contiguous slices instead of per-round gathers.
    rank = np.empty(num_units, dtype=np.int64)
    rank[by_depth] = np.arange(num_units, dtype=np.int64)
    lengths = np.diff(np.append(starts, n))
    depth = np.arange(n, dtype=np.int64) - np.repeat(starts, lengths)
    row = np.repeat(rank, lengths)
    perm = np.argsort(depth * num_units + row, kind="stable")
    rm = order[perm]
    lines_rm = line[rm]
    store_rm = store[rm]
    tags = np.full((num_units, assoc), -1, dtype=np.int64)
    stamps = np.zeros((num_units, assoc), dtype=np.int64)
    dirty = np.zeros((num_units, assoc), dtype=bool)
    occupancy = np.zeros(num_units, dtype=np.int64)
    rounds = int(counts[0])
    # Active-unit count of every round in one shot: unit `u` participates
    # in round r iff counts[u] > r, and counts are descending.
    active_per_round = np.searchsorted(
        -counts, -np.arange(rounds, dtype=np.int64), side="left"
    )
    pos = 0
    for r in range(rounds):
        active = int(active_per_round[r])
        stop = pos + active
        index = rm[pos:stop]
        lines_r = lines_rm[pos:stop]
        store_r = store_rm[pos:stop]
        pos = stop
        equal = tags[:active] == lines_r[:, None]
        hit_r = equal.any(axis=1)
        hit_rows = np.nonzero(hit_r)[0]
        if hit_rows.size:
            ways = equal[hit_rows].argmax(axis=1)
            stamps[hit_rows, ways] = index[hit_rows]
            dirty[hit_rows, ways] |= store_r[hit_rows]
            hit[index[hit_rows]] = True
        miss_rows = np.nonzero(~hit_r)[0]
        if miss_rows.size:
            # One unified fill: cold rows take way=occupancy, full rows
            # the LRU way.  A cold way still holds tag -1 / dirty False,
            # so reading the victim columns before the fill yields the
            # "no eviction" sentinel for cold rows automatically.
            occ = occupancy[miss_rows]
            cold = occ < assoc
            ways = stamps[miss_rows].argmin(axis=1)
            ways[cold] = occ[cold]
            miss_index = index[miss_rows]
            victim_line[miss_index] = tags[miss_rows, ways]
            victim_dirty[miss_index] = dirty[miss_rows, ways]
            tags[miss_rows, ways] = lines_r[miss_rows]
            stamps[miss_rows, ways] = miss_index
            dirty[miss_rows, ways] = store_r[miss_rows]
            occupancy[miss_rows] += cold
    return hit, victim_line, victim_dirty


def _downstream_nomerge(
    config: SimConfig,
    miss_now: "np.ndarray",
    miss_core: "np.ndarray",
    miss_line_addr: "np.ndarray",
    writeback_addr: "np.ndarray",
) -> Optional[Tuple[int, int, CacheStats, "DramModel"]]:
    """Optimistic downstream pass for merge-free L1 MSHR behaviour.

    The L2's hit/miss/victim outcomes depend only on its access *order*,
    never on timing — and with zero L1 MSHR merges that order is fully
    known up front: every L1 miss issues one demand access followed by
    one writeback access when it evicted a dirty victim.  So the whole
    banked-L2 cache behaviour collapses into one more :func:`_lru_rounds`
    pass over that interleaved stream, and the remaining scalar loop only
    tracks timing (bank busy, L1/L2 MSHR occupancy, DRAM) — no per-event
    set dicts.

    An L1 MSHR merge would *remove* a demand access from the stream and
    invalidate the precomputed columns, so the loop still runs the exact
    merge test and returns ``None`` at the first hit; the caller then
    replays the exact dict-based loop from scratch.  Merges are the only
    escape hatch: misses, victims and writebacks all come from the L1
    array phase, which is order-exact.  Only valid when an L1 line spans
    a single L2 access (``l2_line >= l1_line``).
    """
    np = import_numpy()
    n = len(miss_now)
    if n == 0:
        return None
    l1_cfg = config.l1
    l2_cfg = config.l2
    l1_hit = float(l1_cfg.hit_latency)
    l2_hit = float(l2_cfg.hit_latency)
    noc = config.noc_latency
    # Merge prescreen: a fill is in flight for at least
    # ``l1_hit + noc + l2_hit`` cycles, so a same-(core, line) re-miss
    # inside that window merges unless a stall prune killed the entry.
    # Treat any such repeat as a certain merge and skip the optimistic
    # pass before paying for the L2 precompute; a kill that would have
    # saved it only costs the fast path, never correctness.
    if n > 1:
        key = miss_line_addr * np.int64(config.num_cores) + miss_core
        order = np.lexsort((miss_now, key))
        k_sorted = key[order]
        t_sorted = miss_now[order]
        repeat = (k_sorted[1:] == k_sorted[:-1]) & (
            t_sorted[1:] - t_sorted[:-1] < l1_hit + noc + l2_hit
        )
        if bool(repeat.any()):
            return None
    l2_line = l2_cfg.line_size
    l2_shift = l2_line.bit_length() - 1
    l2_set_mask = l2_cfg.num_sets - 1
    bank_shift = l2_shift
    bank_mask = l2_cfg.banks - 1
    bank_busy = [0.0] * l2_cfg.banks

    dram = DramModel(
        config.dram, txn_size=l2_line, core_clock_mhz=config.core_clock_mhz
    )
    dram_access = dram.access

    # The L2 access stream, in oracle order: demand access per miss, then
    # the dirty-victim writeback access when there is one.
    demand_line = miss_line_addr >> np.int64(l2_shift)
    has_wb = writeback_addr >= 0
    wb_events = np.nonzero(has_wb)[0]
    total = n + len(wb_events)
    demand_pos = np.arange(n, dtype=np.int64)
    demand_pos[1:] += np.cumsum(has_wb[:-1])
    wb_pos = demand_pos[wb_events] + 1
    stream_line = np.empty(total, dtype=np.int64)
    stream_line[demand_pos] = demand_line
    stream_line[wb_pos] = writeback_addr[wb_events] >> np.int64(l2_shift)
    stream_store = np.zeros(total, dtype=bool)
    stream_store[wb_pos] = True
    l2_hit_col, l2_victim_line, l2_victim_dirty = _lru_rounds(
        stream_line & np.int64(l2_set_mask), stream_line, stream_store,
        l2_cfg.assoc,
    )
    demand_hit = l2_hit_col[demand_pos]
    demand_victim_line = l2_victim_line[demand_pos]
    demand_victim_dirty = l2_victim_dirty[demand_pos]
    # Per-event DRAM-writeback address of the L2 store-miss path (-1 when
    # the writeback hit L2 or evicted a clean line).
    wb_dram_addr = np.full(n, -1, dtype=np.int64)
    wb_victim_dirty = l2_victim_dirty[wb_pos]
    dirty_wb = wb_events[wb_victim_dirty]
    wb_dram_addr[dirty_wb] = (
        l2_victim_line[wb_pos][wb_victim_dirty] << np.int64(l2_shift)
    )

    l1_entries = l1_cfg.mshrs
    l1_inflight: List[dict] = [dict() for _ in range(config.num_cores)]
    l1_heaps: List[list] = [[] for _ in range(config.num_cores)]
    l1_kills: List[dict] = [dict() for _ in range(config.num_cores)]
    l2_entries = max(l2_cfg.mshrs, config.num_cores * 8)
    l2_inflight: dict = {}
    l2_heap: list = []
    heappush = heapq.heappush
    heappop = heapq.heappop
    l1_stalls = 0
    l2_merges = 0

    def miss_latency(i: int, now2: float, start: float) -> float:
        """L2 demand-miss continuation against precomputed victim columns
        (same arithmetic and DRAM call order as ``access_l2_miss``)."""
        nonlocal l2_merges
        line_addr2 = int(demand_line[i]) << l2_shift
        while l2_heap and l2_heap[0][0] <= start:
            del l2_inflight[heappop(l2_heap)[1]]
        inflight = l2_inflight.get(line_addr2)
        if inflight is not None:
            l2_merges += 1
            waited = inflight - start
            service = l2_hit if l2_hit > waited else waited
        else:
            service = l2_hit + dram_access(start + l2_hit, line_addr2, False)
            stall = 0.0
            if len(l2_inflight) >= l2_entries:
                stall = l2_heap[0][0] - start
                if stall < 0.0:
                    stall = 0.0
                prune_to = start + stall
                while l2_heap and l2_heap[0][0] <= prune_to:
                    del l2_inflight[heappop(l2_heap)[1]]
            completion = start + stall + service
            l2_inflight[line_addr2] = completion
            heappush(l2_heap, (completion, line_addr2))
        if demand_victim_dirty[i]:
            dram_access(start, int(demand_victim_line[i]) << l2_shift, True)
        return noc + (start - now2) + service

    bank_list = ((miss_line_addr >> np.int64(bank_shift))
                 & np.int64(bank_mask)).tolist()
    noc_l2_hit = noc + l2_hit
    l1_noc = l1_hit + noc
    heapreplace = heapq.heapreplace
    seq = 0
    for now, core, line_addr, bank, d_hit, wb_addr in zip(
        miss_now.tolist(), miss_core.tolist(),
        miss_line_addr.tolist(), bank_list, demand_hit.tolist(),
        wb_dram_addr.tolist(),
    ):
        heap = l1_heaps[core]
        while heap and heap[0] <= now:
            heappop(heap)
        inflight_map = l1_inflight[core]
        entry = inflight_map.get(line_addr)
        if (entry is not None and entry[0] > now
                and l1_kills[core].get(entry[0], -1) <= entry[1]):
            return None  # an L1 merge invalidates the precomputed stream
        now2 = now + l1_noc
        busy = bank_busy[bank]
        start = busy if busy > now2 else now2
        bank_busy[bank] = start + l2_hit
        if d_hit:
            l2_latency = noc_l2_hit + (start - now2)
        else:
            l2_latency = miss_latency(seq, now2, start)
        seq += 1
        if len(heap) >= l1_entries:
            # The natural prune left heap[0] > now, so the stall prune's
            # threshold now + stall *is* heap[0]: replace the minimum in
            # one sift, then clear the rare float ties.
            m = heap[0]
            kills = l1_kills[core]
            completion = m + l1_hit + l2_latency
            if completion > m:
                kills[m] = seq
                heapreplace(heap, completion)
                while heap[0] <= m:
                    kills[heappop(heap)] = seq
            else:  # degenerate all-zero-latency config
                while heap and heap[0] <= m:
                    kills[heappop(heap)] = seq
                heappush(heap, completion)
            l1_stalls += 1
        else:
            completion = now + l1_hit + l2_latency
            heappush(heap, completion)
        inflight_map[line_addr] = (completion, seq)
        if wb_addr >= 0:
            dram_access(now, wb_addr, True)

    hits = int(np.count_nonzero(l2_hit_col))
    l2_stats = CacheStats(
        hits=hits, misses=total - hits,
        evictions=int(np.count_nonzero(l2_victim_line >= 0)),
        writebacks=int(np.count_nonzero(l2_victim_dirty)),
        mshr_merges=l2_merges, mshr_stalls=0,
    )
    return 0, l1_stalls, l2_stats, dram


def _downstream_window(
    config: SimConfig,
    miss_now: "np.ndarray",
    miss_core: "np.ndarray",
    miss_line_addr: "np.ndarray",
    writeback_addr: "np.ndarray",
) -> Tuple[int, int, CacheStats, "DramModel"]:
    """Scalar replay of the ordering-sensitive machinery, misses only.

    This is the hybrid scheme's scalar window: the L1 MSHR files (merge
    windows depend on fill completion times), the banked L2 with its own
    MSHR, and the FR-FCFS DRAM model replay the oracle's arithmetic in the
    oracle's order — but only over the L1 miss stream, which the array
    phases already reduced the trace to.  Inputs are aligned numpy
    columns of that miss stream (``float64`` timestamps, ``int64`` the
    rest); ``writeback_addr[i]`` is the dirty L1 victim of miss ``i``
    (-1 when none).

    The loop bodies deliberately inline the oracle's
    ``SetAssociativeCache.access`` / ``MshrFile`` hot paths (local
    counters, no method calls); the cold paths — L2 miss continuation and
    L2 store-miss fill — live in the closures below.  Equivalence is
    enforced by the batched-vs-scalar property suite.

    Returns ``(l1_mshr_merges, l1_mshr_stalls, l2_stats, dram_model)``.
    """
    np = import_numpy()
    if config.l2.line_size >= config.l1.line_size:
        # Optimistic merge-free pass first: it precomputes the whole L2
        # behaviour vectorized and aborts (None) at the first L1 merge.
        fast = _downstream_nomerge(
            config, miss_now, miss_core, miss_line_addr, writeback_addr
        )
        if fast is not None:
            return fast
    l1_cfg = config.l1
    l2_cfg = config.l2
    l1_hit = float(l1_cfg.hit_latency)
    l2_hit = float(l2_cfg.hit_latency)
    noc = config.noc_latency
    l1_line = l1_cfg.line_size
    l2_line = l2_cfg.line_size
    l2_shift = l2_line.bit_length() - 1
    l2_set_mask = l2_cfg.num_sets - 1
    l2_assoc = l2_cfg.assoc
    bank_shift = l2_shift
    bank_mask = l2_cfg.banks - 1
    bank_busy = [0.0] * l2_cfg.banks

    dram = DramModel(
        config.dram, txn_size=l2_line, core_clock_mhz=config.core_clock_mhz
    )
    dram_access = dram.access

    # Inlined SetAssociativeCache (lru, write-back, write-allocate): the
    # per-set dicts map line-number -> [use_stamp, dirty]; stamps come
    # from the same per-cache monotone clock as the oracle's.
    l2_sets: List[dict] = [dict() for _ in range(l2_cfg.num_sets)]
    l2_clock = 0
    l2_hits = 0
    l2_misses = l2_evictions = l2_writebacks = 0
    l2_merges = 0

    # Inlined MshrFile state: per-core L1 files plus the shared L2 file.
    # Each L1 file is a floats-only heap of outstanding completions plus a
    # dict (line address -> (completion, insert time)) that is *never*
    # pruned.  The per-core clock is strictly monotone, so an entry is
    # naturally expired iff `completion <= now`, and after the prune loop
    # the heap length *is* the live occupancy — the oracle's full test and
    # `min(in_flight.values())` both read straight off the heap.  The one
    # wrinkle is the stall prune, which prunes *ahead* of the clock (to
    # ``now + stall``) and so kills entries that are still live by
    # timestamp: those are recorded in a per-core kills dict (completion
    # value -> kill sequence number), and the merge test checks that no
    # kill of the entry's completion happened after its insertion.  The
    # ordering key is the loop's event counter, not ``now``: sector-split
    # accesses issue several events at the *same* per-core ``now``, so the
    # clock cannot order a kill against an insert, but the global event
    # order (and hence its per-core subsequence) is strict.  Tuples-in-heap
    # and eager dict deletes stay off this per-event path entirely.
    l1_entries = l1_cfg.mshrs
    l1_inflight: List[dict] = [dict() for _ in range(config.num_cores)]
    l1_heaps: List[list] = [[] for _ in range(config.num_cores)]
    l1_kills: List[dict] = [dict() for _ in range(config.num_cores)]
    l2_entries = max(l2_cfg.mshrs, config.num_cores * 8)
    l2_inflight: dict = {}
    l2_heap: list = []
    heappush = heapq.heappush
    heappop = heapq.heappop
    l1_merges = l1_stalls = 0

    def choose_victim(lines: dict) -> int:
        """Oracle LRU scan: first strictly-smaller use stamp wins."""
        victim_tag = -1
        best = None
        for tag, cand in lines.items():
            stamp = cand[0]
            if best is None or stamp < best:
                best = stamp
                victim_tag = tag
        return victim_tag

    def access_l2_miss(
        now2: float, start: float, line: int, lines: dict, clock: int
    ) -> float:
        """L2 demand-miss continuation of ``MemoryHierarchy._access_l2``.

        The caller already did the bank/clock/hit bookkeeping (the hot
        path, inlined at each call site); this handles victim eviction,
        the L2-MSHR merge-or-allocate, and the DRAM fetch.  The oracle
        discards the L2 MSHR's stall (allocate's return is unused there),
        so the stall only shifts the recorded completion — replicated.
        """
        nonlocal l2_misses, l2_evictions, l2_writebacks, l2_merges
        l2_misses += 1
        victim_dirty = False
        victim_addr = -1
        if len(lines) >= l2_assoc:
            victim_tag = choose_victim(lines)
            victim_dirty = lines.pop(victim_tag)[1]
            l2_evictions += 1
            if victim_dirty:
                l2_writebacks += 1
                victim_addr = victim_tag << l2_shift
        lines[line] = [clock, False]
        line_addr = line << l2_shift
        # L2 MSHR: prune, merge-or-allocate.  Entries enter the dict and
        # the heap together and leave only here, so the heap never holds
        # a stale key — each popped completion deletes its entry.  (The
        # L2's `start` clock is not monotone across banks, so the cheap
        # completion-vs-clock liveness test the L1 file uses is not exact
        # here; this path only runs on L2 demand misses, so the dict
        # bookkeeping is off the hot loop anyway.)
        while l2_heap and l2_heap[0][0] <= start:
            del l2_inflight[heappop(l2_heap)[1]]
        inflight = l2_inflight.get(line_addr)
        if inflight is not None:
            l2_merges += 1
            waited = inflight - start
            service = l2_hit if l2_hit > waited else waited
        else:
            service = l2_hit + dram_access(start + l2_hit, line_addr, False)
            stall = 0.0
            if len(l2_inflight) >= l2_entries:
                # min(in_flight.values()) == the heap top (never stale).
                stall = l2_heap[0][0] - start
                if stall < 0.0:
                    stall = 0.0
                prune_to = start + stall
                while l2_heap and l2_heap[0][0] <= prune_to:
                    del l2_inflight[heappop(l2_heap)[1]]
            completion = start + stall + service
            l2_inflight[line_addr] = completion
            heappush(l2_heap, (completion, line_addr))
        if victim_dirty:
            dram_access(start, victim_addr, True)
        return noc + (start - now2) + service

    def writeback_miss(now: float, line: int, lines: dict, clock: int) -> None:
        """L2 store-miss continuation of ``_writeback_to_l2``: fill the
        victim line dirty (write-allocate, no fetch), evicting if full —
        no NoC/bank/MSHR involvement, as in the oracle's direct
        ``l2.access(chunk, is_store=True)`` call."""
        nonlocal l2_misses, l2_evictions, l2_writebacks
        l2_misses += 1
        if len(lines) >= l2_assoc:
            victim_tag = choose_victim(lines)
            victim_dirty = lines.pop(victim_tag)[1]
            l2_evictions += 1
            if victim_dirty:
                l2_writebacks += 1
                dram_access(now, victim_tag << l2_shift, True)
        lines[line] = [clock, True]

    wb_span = l1_line if l1_line > l2_line else l2_line
    if l2_line >= l1_line:
        # Single-chunk fast loop: an L1 line fits in one L2 access (and a
        # victim writeback is exactly one L2 store), so the per-event L2
        # timestamp (now + L1 hit + NoC), L2 line number and bank are
        # loop-invariant columns — precompute them vectorized and inline
        # the L2 hit paths.
        now2_list = (miss_now + (l1_hit + noc)).tolist()
        l2_line_num = (miss_line_addr >> np.int64(l2_shift)).tolist()
        bank_list = ((miss_line_addr >> np.int64(bank_shift))
                     & np.int64(bank_mask)).tolist()
        noc_l2_hit = noc + l2_hit
        seq = 0
        for now, now2, core, line_addr, line, bank, victim_addr in zip(
            miss_now.tolist(), now2_list, miss_core.tolist(),
            miss_line_addr.tolist(), l2_line_num, bank_list,
            writeback_addr.tolist(),
        ):
            seq += 1
            inflight_map = l1_inflight[core]
            heap = l1_heaps[core]
            while heap and heap[0] <= now:
                heappop(heap)
            entry = inflight_map.get(line_addr)
            if (entry is not None and entry[0] > now
                    and l1_kills[core].get(entry[0], -1) <= entry[1]):
                l1_merges += 1
            else:
                busy = bank_busy[bank]
                start = busy if busy > now2 else now2
                bank_busy[bank] = start + l2_hit
                lines = l2_sets[line & l2_set_mask]
                l2_clock += 1
                entry = lines.get(line)
                if entry is not None:
                    l2_hits += 1
                    entry[0] = l2_clock
                    l2_latency = noc_l2_hit + (start - now2)
                else:
                    l2_latency = access_l2_miss(
                        now2, start, line, lines, l2_clock)
                stall = 0.0
                if len(heap) >= l1_entries:
                    # live-entry count == len(heap); min == the heap top.
                    stall = heap[0] - now
                    if stall < 0.0:
                        stall = 0.0
                    prune_to = now + stall
                    kills = l1_kills[core]
                    while heap and heap[0] <= prune_to:
                        kills[heappop(heap)] = seq
                    l1_stalls += 1
                completion = now + stall + l1_hit + l2_latency
                inflight_map[line_addr] = (completion, seq)
                heappush(heap, completion)
            if victim_addr >= 0:
                wb_line = victim_addr >> l2_shift
                lines = l2_sets[wb_line & l2_set_mask]
                l2_clock += 1
                entry = lines.get(wb_line)
                if entry is not None:
                    l2_hits += 1
                    entry[0] = l2_clock
                    entry[1] = True
                else:
                    writeback_miss(now, wb_line, lines, l2_clock)
    else:
        # Generic loop: L1 lines wider than L2 lines fetch (and write
        # back) as several L2-line-sized chunks (the paper's 64B-L2 /
        # 128B-L1 points).
        seq = 0
        for now, core, line_addr, victim_addr in zip(
            miss_now.tolist(), miss_core.tolist(),
            miss_line_addr.tolist(), writeback_addr.tolist(),
        ):
            seq += 1
            inflight_map = l1_inflight[core]
            heap = l1_heaps[core]
            while heap and heap[0] <= now:
                heappop(heap)
            entry = inflight_map.get(line_addr)
            if (entry is not None and entry[0] > now
                    and l1_kills[core].get(entry[0], -1) <= entry[1]):
                l1_merges += 1
            else:
                now2 = now + l1_hit + noc
                l2_latency = 0.0
                chunk = line_addr
                chunk_end = line_addr + l1_line
                while chunk < chunk_end:
                    bank = (chunk >> bank_shift) & bank_mask
                    busy = bank_busy[bank]
                    start = busy if busy > now2 else now2
                    bank_busy[bank] = start + l2_hit
                    line = chunk >> l2_shift
                    lines = l2_sets[line & l2_set_mask]
                    l2_clock += 1
                    entry = lines.get(line)
                    if entry is not None:
                        l2_hits += 1
                        entry[0] = l2_clock
                        latency = noc + (start - now2) + l2_hit
                    else:
                        latency = access_l2_miss(
                            now2, start, line, lines, l2_clock)
                    if latency > l2_latency:
                        l2_latency = latency
                    chunk += l2_line
                stall = 0.0
                if len(heap) >= l1_entries:
                    # live-entry count == len(heap); min == the heap top.
                    stall = heap[0] - now
                    if stall < 0.0:
                        stall = 0.0
                    prune_to = now + stall
                    kills = l1_kills[core]
                    while heap and heap[0] <= prune_to:
                        kills[heappop(heap)] = seq
                    l1_stalls += 1
                completion = now + stall + l1_hit + l2_latency
                inflight_map[line_addr] = (completion, seq)
                heappush(heap, completion)
            if victim_addr >= 0:
                chunk = victim_addr
                chunk_end = victim_addr + wb_span
                while chunk < chunk_end:
                    wb_line = chunk >> l2_shift
                    lines = l2_sets[wb_line & l2_set_mask]
                    l2_clock += 1
                    entry = lines.get(wb_line)
                    if entry is not None:
                        l2_hits += 1
                        entry[0] = l2_clock
                        entry[1] = True
                    else:
                        writeback_miss(now, wb_line, lines, l2_clock)
                    chunk += l2_line

    l2_stats = CacheStats(
        hits=l2_hits, misses=l2_misses,
        evictions=l2_evictions, writebacks=l2_writebacks,
        mshr_merges=l2_merges, mshr_stalls=0,
    )
    return l1_merges, l1_stalls, l2_stats, dram


def simulate_flat_arrays(
    arrays: FlatTraceArrays, config: SimConfig
) -> SimResult:
    """Array-phase simulation of one decoded trace under one config.

    Raises :class:`UnsupportedConfigError` when the config or trace needs
    the scalar oracle (see :meth:`FlatTraceArrays.fallback_reasons`).
    """
    np = import_numpy()
    reasons = arrays.fallback_reasons(config)
    if reasons:
        raise UnsupportedConfigError(reasons)
    line, store, now, core = arrays.l1_stream(config)
    num_sets = config.l1.num_sets
    unit = core * num_sets + (line & (num_sets - 1))
    hit, victim_line, victim_dirty = _lru_rounds(
        unit, line, store, config.l1.assoc
    )
    accesses = len(line)
    hits = int(np.count_nonzero(hit))
    evictions = int(np.count_nonzero(victim_line >= 0))
    writebacks = int(np.count_nonzero(victim_dirty))

    miss = ~hit
    shift = config.l1.line_size.bit_length() - 1
    miss_line_addr = line[miss] << shift
    wb_addr = np.where(victim_dirty[miss], victim_line[miss] << shift, -1)
    l1_merges, l1_stalls, l2_stats, dram = _downstream_window(
        config, now[miss], core[miss], miss_line_addr, wb_addr
    )
    l1_stats = CacheStats(
        hits=hits, misses=accesses - hits,
        evictions=evictions, writebacks=writebacks,
        mshr_merges=l1_merges, mshr_stalls=l1_stalls,
    )
    return SimResult(
        l1=l1_stats,
        l2=l2_stats,
        dram=dram.stats,
        requests_issued=arrays.requests_issued,
        cycles=arrays.cycles,
    )


def simulate_flat_runs(
    per_core_traces: Sequence[Sequence[AccessTuple]],
    configs: Sequence[SimConfig],
    backend: Optional[str] = None,
    analytic: bool = False,
    models: Sequence["AnalyticCacheModel"] = (),
) -> List[Tuple[str, SimResult, List[str]]]:
    """The engine chain of a fixed-order stream: one run per config.

    Engines answer in order.  With ``analytic`` the ``analytic`` engine
    predicts every config its reuse model accepts; the ``array`` engine
    (numpy backend) replays the rest it supports, and the scalar
    ``oracle`` (:func:`~repro.memsim.simulator.simulate_flat_trace`)
    replays whatever is left.  Returns one ``(engine, result, reasons)``
    triple per config: the engine that ran, its result, and the reasons
    the engines above it gave when they declined the config, in chain
    order (empty when the first engine ran).

    ``models`` are the analytic engine's reuse models, by default one
    built from ``per_core_traces``.  The first one predicts, and a config
    is predicted only when no model refuses it: the two streams of an
    original/proxy pair each pass both models, so they take one engine.

    On the numpy backend the trace is decoded and order-resolved once
    (:class:`FlatTraceArrays`) and every replayed config reuses the
    shared tag/set arrays, so N configs cost one trace pass plus N array
    phases.
    """
    from repro.memsim.simulator import simulate_flat_trace

    resolved = resolve_backend(backend)
    runs: List[Tuple[str, SimResult, List[str]]] = []
    arrays: Optional[FlatTraceArrays] = None
    if analytic and not models:
        from repro.analytical.analytic import AnalyticCacheModel

        models = (AnalyticCacheModel.from_flat(per_core_traces, resolved),)
    for config in configs:
        reasons: List[str] = []
        if analytic:
            reasons = merge_reasons(
                *(model.applicability(config) for model in models))
            if not reasons:
                runs.append(("analytic", models[0].predict(config), []))
                continue
        if resolved == "numpy":
            if arrays is None:
                arrays = FlatTraceArrays(per_core_traces)
            try:
                runs.append(
                    ("array", simulate_flat_arrays(arrays, config), reasons))
                continue
            except UnsupportedConfigError as exc:
                reasons = merge_reasons(reasons, exc.reasons)
        runs.append(
            ("oracle", simulate_flat_trace(per_core_traces, config), reasons))
    return runs


def simulate_flat_multi(
    per_core_traces: Sequence[Sequence[AccessTuple]],
    configs: Sequence[SimConfig],
    backend: Optional[str] = None,
) -> List[SimResult]:
    """One-pass multi-config sweep of one flat trace (results only).

    See :func:`simulate_flat_runs`: configurations outside the array
    engine's capabilities transparently fall back to the scalar oracle
    for that config only.
    """
    return [result for _, result, _ in
            simulate_flat_runs(per_core_traces, configs, backend)]
