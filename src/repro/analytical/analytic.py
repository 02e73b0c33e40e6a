"""Analytic miss-rate sweep backend: O(histogram) cache sweeps.

``sim_mode="analytic"`` predicts Fig. 6a/6b-style size/associativity sweep
points from LRU stack-distance histograms instead of replaying the trace
per configuration.  Two model sources share the predictor:

* **Flat traces** (:meth:`AnalyticCacheModel.from_flat`) keep the filtered
  per-core record streams and scan them lazily, once per cache *geometry*
  ``(line_size, num_sets)``, into exact per-set stack-distance histograms —
  a per-set stack position is precisely the number of distinct intervening
  same-set lines, so the simulator's true-LRU hit criterion becomes
  ``position < assoc`` and every associativity at that geometry is a pure
  histogram walk.  L1 is exact (modulo a deep-stack truncation bound); the
  shared L2 sees the union of the cores' L1 *miss* streams, modelled by
  conditioning the merged full-stream histogram on the predicted L1 filter:
  cold lines pass through unconditionally (a first touch misses every
  level), reuse accesses reach the L2 with the L1 reuse-miss rate, and
  surviving set-distances deflate by the stream's survival fraction.
* **The 5-tuple alone** (:meth:`AnalyticCacheModel.from_profile`) dilates
  each π cluster's per-unit ``P_R`` histogram to the interleaved stream —
  the zero-trace estimator, fully associative plus the binomial
  set-conflict correction, rough by construction.

What the model *cannot* capture falls back to simulation per config: the
capability table's ``analytic`` rows (:mod:`repro.memsim.capabilities`:
prefetchers, non-LRU replacement, write-through/no-allocate policies,
inclusive L2, associativity beyond the tracked stack depth), and
:meth:`AnalyticCacheModel.applicability` adds model-state reasons
(granularities not profiled, texture/constant-space traffic).  Timing-side
outputs (DRAM service, MSHR occupancy, stall latencies) are out of model
scope and reported as zero — the mode predicts miss *rates*, the quantity
the paper's Figures 6a/6b sweep.  ``cycles`` is the unit-latency clock
span, which for flat replay is exactly the longest core trace.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analytical.profile_model import (
    DEFAULT_LINE_SIZES,
    StackDistanceProfile,
    _conflict_probability,
)
from repro.core.backend import resolve_backend
from repro.core.profile import GmapProfile
from repro.core.reuse import set_index, set_stack_distances
from repro.gpu.instructions import AccessTuple
from repro.gpu.memspace import MemorySpace, region_bounds, space_of
from repro.memsim.capabilities import (
    TRACKED_SET_DEPTH,
    UnsupportedConfigError,
    fallback_reasons,
)
from repro.memsim.config import CacheConfig, SimConfig
from repro.memsim.stats import CacheStats, DramStats, SimResult
from repro.memsim.vectorized import decode_records

try:  # numpy is optional; the scalar scan never needs it.
    import numpy as np
except ImportError:  # pragma: no cover - depends on the environment
    np = None  # type: ignore[assignment]

#: Stated per-point |Δ miss-rate| envelope vs the event simulator for
#: analytically-predicted points (the bench_perf.py schema-v5 gate bound).
ANALYTIC_MISS_RATE_TOLERANCE = 0.12

#: Histogram bucket for set distances beyond :data:`TRACKED_SET_DEPTH`.
_BEYOND_DEPTH = 1 << 30


def _expand_lines(
    records: Sequence[AccessTuple], line_size: int
) -> Tuple[List[int], set]:
    """``(line stream, ever-stored lines)`` at ``line_size`` granularity.

    Applies the memory hierarchy's sector split: an access wider than a
    line contributes one access per line-sized sector, in address order,
    exactly as ``MemoryHierarchy.access`` issues them.
    """
    shift = line_size.bit_length() - 1
    out: List[int] = []
    stored: set = set()
    append = out.append
    for _pc, address, size, is_store in records:
        first = address >> shift
        last = (address + (size - 1 if size > 0 else 0)) >> shift
        for line in range(first, last + 1):
            append(line)
            if is_store:
                stored.add(line)
    return out, stored


def _expand_lines_array(columns, line_size: int):
    """:func:`_expand_lines` over ``(address, size, store)`` columns.

    ``columns`` is an ``(n, 3)`` int64 array; the sector split becomes one
    ``np.repeat``, and the ever-stored lines one ``np.unique``.
    """
    shift = line_size.bit_length() - 1
    address, size, store = columns[:, 0], columns[:, 1], columns[:, 2] != 0
    first = address >> shift
    sectors = ((address + np.maximum(size - 1, 0)) >> shift) - first + 1
    starts = np.repeat(np.cumsum(sectors) - sectors, sectors)
    lines = np.repeat(first, sectors) + (
        np.arange(len(starts), dtype=np.int64) - starts)
    return lines, np.unique(lines[np.repeat(store, sectors)])


class _ScanSummary:
    """Exact per-set LRU stack distances of one line stream, summarised.

    A reuse at per-set stack position ``p`` had exactly ``p`` distinct
    same-set lines touched since its last access, so it hits any cache of
    this geometry iff ``p < assoc``.  Stacks are truncated at
    :data:`TRACKED_SET_DEPTH`; deeper reuses land in the
    :data:`_BEYOND_DEPTH` bucket (a miss at any tracked associativity).

    Besides the distance histogram a scan keeps the sufficient statistics
    for associativity-parameterised *state* questions: the histogram
    restricted to ever-stored lines (a reuse miss of a stored line implies
    one earlier dirty eviction — a writeback), and the final per-set
    stacks (how many lines, and how many stored lines, survive in the top
    ``assoc`` of each set at end of stream — :meth:`resident`).  Two
    scans produce these fields bit-identically: :class:`_SetDistanceScan`
    (the scalar oracle) and :class:`_ArraySetDistanceScan` (``numpy``).
    """

    __slots__ = (
        "histogram", "stored_histogram", "colds", "accesses", "stored_lines",
    )

    histogram: Dict[int, int]
    stored_histogram: Dict[int, int]
    colds: int
    accesses: int
    stored_lines: int

    def resident(self, assoc: int) -> Tuple[int, int]:
        """``(lines, stored lines)`` resident at end of stream."""
        raise NotImplementedError

    def misses(self, assoc: int) -> int:
        """Total misses (cold + conflict/capacity) at ``assoc`` ways."""
        return self.colds + _misses_at(self.histogram, assoc)

    def writebacks(self, assoc: int) -> int:
        """Dirty L1 victims at ``assoc`` ways (ever-stored approximation).

        Every reuse miss of a stored line re-fetches a line whose
        previous residence ended in a dirty eviction; stored lines no
        longer resident at end of stream were dirty-evicted once more and
        never came back.
        """
        _, resident_stored = self.resident(assoc)
        refetched = _misses_at(self.stored_histogram, assoc)
        return max(0, refetched + self.stored_lines - resident_stored)

    def evictions(self, assoc: int) -> int:
        """Total evictions at ``assoc`` ways: fills minus final residents."""
        resident, _ = self.resident(assoc)
        return max(0, self.misses(assoc) - resident)


class _SetDistanceScan(_ScanSummary):
    """The scalar scan: one pass of per-set true-LRU stacks.

    The simulator's own structure, minus the fill side effects — the
    stdlib oracle the array scan is checked against.
    """

    __slots__ = ("set_prefixes",)

    def __init__(self, lines: Sequence[int], num_sets: int, stored: set) -> None:
        mask = num_sets - 1
        use_mask = num_sets & (num_sets - 1) == 0
        histogram: Dict[int, int] = {}
        stored_histogram: Dict[int, int] = {}
        stacks: Dict[int, List[int]] = {}
        members: Dict[int, set] = {}
        seen: set = set()
        colds = 0
        for line in lines:
            index = (line & mask) if use_mask else (line % num_sets)
            stack = stacks.get(index)
            if stack is None:
                stack = stacks[index] = []
                member = members[index] = set()
            else:
                member = members[index]
            if line in member:
                position = stack.index(line)
                del stack[position]
                stack.insert(0, line)
            else:
                if line not in seen:
                    seen.add(line)
                    colds += 1
                    member.add(line)
                    stack.insert(0, line)
                    if len(stack) > TRACKED_SET_DEPTH:
                        member.discard(stack.pop())
                    continue
                # Fell off the truncated stack: distance >= depth.
                position = _BEYOND_DEPTH
                member.add(line)
                stack.insert(0, line)
                if len(stack) > TRACKED_SET_DEPTH:
                    member.discard(stack.pop())
            histogram[position] = histogram.get(position, 0) + 1
            if line in stored:
                stored_histogram[position] = (
                    stored_histogram.get(position, 0) + 1
                )
        self.histogram = histogram
        self.stored_histogram = stored_histogram
        self.colds = colds
        self.accesses = len(lines)
        self.stored_lines = len(stored & seen)
        # Per non-empty set: (total, stored) cumulative counts down the
        # final stack, MRU first — prefix[a] answers "resident under
        # associativity a" in O(1) per set.
        self.set_prefixes: List[Tuple[List[int], List[int]]] = []
        for stack in stacks.values():
            totals = [0]
            stored_counts = [0]
            for line in stack:
                totals.append(totals[-1] + 1)
                stored_counts.append(
                    stored_counts[-1] + (1 if line in stored else 0)
                )
            self.set_prefixes.append((totals, stored_counts))

    def resident(self, assoc: int) -> Tuple[int, int]:
        """``(lines, stored lines)`` resident at end of stream."""
        total = 0
        stored = 0
        for totals, stored_counts in self.set_prefixes:
            index = min(assoc, len(totals) - 1)
            total += totals[index]
            stored += stored_counts[index]
        return total, stored


class _ArraySetDistanceScan(_ScanSummary):
    """The array scan (``numpy`` backend): the same fields from sorts.

    Distances come from :func:`~repro.core.reuse.set_stack_distances`
    clipped at :data:`TRACKED_SET_DEPTH` (the truncated stack's top
    entries *are* the true stack's), histograms from ``np.bincount``, the
    stored histogram from ``np.isin``.  The final per-set stacks become
    one sorted array of MRU ranks per flavour (all lines, stored lines):
    a line's rank is the number of same-set lines finally touched after
    it, and ``resident(assoc)`` counts ranks below ``assoc``.
    """

    __slots__ = ("_ranks", "_stored_ranks")

    def __init__(self, lines, num_sets: int, stored) -> None:
        order, distances, last = set_stack_distances(
            lines, num_sets, TRACKED_SET_DEPTH)
        stream = lines[order]
        warm = distances >= 0
        is_stored = (  # the L2 stream stores nothing: skip the isin
            np.isin(stream, stored) if len(stored)
            else np.zeros(len(stream), dtype=bool)
        )
        self.histogram = _depth_histogram(distances[warm])
        self.stored_histogram = _depth_histogram(distances[warm & is_stored])
        self.accesses = len(lines)
        self.colds = self.accesses - int(np.count_nonzero(warm))
        # Set-major order keeps each set's final accesses contiguous and
        # in access order: rank = same-set final accesses after this one.
        final_sets = set_index(stream[last], num_sets)
        ranks = (
            np.searchsorted(final_sets, final_sets, side="right")
            - np.arange(1, len(final_sets) + 1)
        )
        final_stored = is_stored[last]
        self.stored_lines = int(np.count_nonzero(final_stored))
        tracked = ranks < TRACKED_SET_DEPTH
        self._ranks = np.sort(ranks[tracked])
        self._stored_ranks = np.sort(ranks[tracked & final_stored])

    def resident(self, assoc: int) -> Tuple[int, int]:
        """``(lines, stored lines)`` resident at end of stream."""
        return (
            int(np.searchsorted(self._ranks, assoc)),
            int(np.searchsorted(self._stored_ranks, assoc)),
        )


def _depth_histogram(distances) -> Dict[int, int]:
    """``{distance: count}`` of clipped distances, depth as the beyond bucket."""
    counts = np.bincount(distances)
    present = np.flatnonzero(counts)
    histogram = dict(zip(present.tolist(), counts[present].tolist()))
    beyond = histogram.pop(TRACKED_SET_DEPTH, 0)
    if beyond:
        histogram[_BEYOND_DEPTH] = beyond
    return histogram


def _misses_at(histogram: Dict[int, int], assoc: int) -> int:
    """Reuse misses of one scanned stream at associativity ``assoc``."""
    return sum(count for dist, count in histogram.items() if dist >= assoc)


class AnalyticCacheModel:
    """One trace's reuse structure, reusable across every sweep config.

    Build once (``from_flat`` for measured per-core traces, or
    ``from_profile`` for the zero-trace 5-tuple estimator), then
    :meth:`predict` each config in O(histogram).  Flat models scan records
    lazily per cache geometry and memoize the resulting histograms, so a
    whole size/associativity sweep shares a handful of scans.
    """

    def __init__(
        self,
        *,
        core_records: Optional[Sequence[Sequence[AccessTuple]]] = None,
        merged_records: Optional[Sequence[AccessTuple]] = None,
        l1_profiles: Optional[Sequence[StackDistanceProfile]] = None,
        l2_profile: Optional[StackDistanceProfile] = None,
        shared_accesses: int = 0,
        special_accesses: int = 0,
        requests: int = 0,
        core_cycles: Optional[Sequence[int]] = None,
        source: str = "flat",
        backend: str = "python",
    ) -> None:
        # ``python`` keeps record tuples for the scalar scan; ``numpy``
        # keeps (address, size, store) int64 column arrays.
        self.backend = backend
        self._cores: Optional[List[Any]] = None
        self._merged: Any = None
        if core_records is not None:
            self._cores = [
                t if backend == "numpy" else list(t) for t in core_records
            ]
        if merged_records is not None:
            self._merged = (
                merged_records if backend == "numpy" else list(merged_records)
            )
        self.l1_profiles = list(l1_profiles) if l1_profiles is not None else None
        self.l2_profile = l2_profile
        self.shared_accesses = shared_accesses
        self.special_accesses = special_accesses
        self.requests = requests
        self.core_cycles = list(core_cycles) if core_cycles is not None else []
        self.source = source
        if self._cores is not None:
            self.active_cores = max(1, sum(1 for t in self._cores if len(t)))
        else:
            self.active_cores = max(1, len(self.l1_profiles or [()]))
        # Lazy memos: expansions per line size, scans per geometry.
        self._core_lines: Dict[int, list] = {}
        self._merged_lines: Dict[int, Any] = {}
        self._l1_memo: Dict[Tuple[int, int], List[_ScanSummary]] = {}
        self._l2_memo: Dict[Tuple[int, int, int], _ScanSummary] = {}

    # -- construction --------------------------------------------------------

    @classmethod
    def from_flat(
        cls,
        per_core_traces: Sequence[Sequence[AccessTuple]],
        backend: Optional[str] = None,
    ) -> "AnalyticCacheModel":
        """Filter per-core flat traces into the model's record streams.

        Shared-memory records bypass the cache hierarchy (counted for
        ``SimResult.shared_accesses``); texture/constant-space records are
        counted separately — their dedicated caches are outside the model,
        so their presence becomes a per-config fallback reason.  The
        merged stream mirrors the flat replay's unit-latency event-heap
        order, which degenerates to round-robin across cores.

        ``backend`` (resolved by :func:`~repro.core.backend.resolve_backend`)
        picks the scans: ``python`` walks per-set stacks record by record
        (the stdlib oracle), ``numpy`` holds column arrays and scans them
        with sorts.  Every prediction is bit-identical across the two.
        """
        if resolve_backend(backend) == "numpy":
            return cls._from_flat_columns(per_core_traces)
        cacheable: List[List[AccessTuple]] = []
        shared = 0
        special = 0
        requests = 0
        for trace in per_core_traces:
            records: List[AccessTuple] = []
            for record in trace:
                pc, address = record[0], record[1]
                if pc < 0:
                    continue  # barrier marker: no memory semantics
                requests += 1
                space = space_of(address)
                if space is MemorySpace.SHARED:
                    shared += 1
                    continue
                if space in (MemorySpace.TEXTURE, MemorySpace.CONSTANT):
                    special += 1
                    continue
                records.append(record)
            cacheable.append(records)
        return cls(
            core_records=cacheable,
            merged_records=_round_robin_records(cacheable),
            shared_accesses=shared,
            special_accesses=special,
            requests=requests,
            # Flat replay costs one cycle per record (barriers included),
            # so a core's trace length is its clock span — the timescale
            # the L2 bank-throughput cap is computed against.
            core_cycles=[len(trace) for trace in per_core_traces],
            source="flat",
        )

    @classmethod
    def _from_flat_columns(
        cls, per_core_traces: Sequence[Sequence[AccessTuple]]
    ) -> "AnalyticCacheModel":
        """:meth:`from_flat` on the ``numpy`` backend.

        The same filter as array masks over each decoded trace, keeping
        ``(address, size, store)`` int64 columns.
        """
        cacheable = []
        shared = 0
        special = 0
        requests = 0
        for trace in per_core_traces:
            records = decode_records(trace)
            address = records[:, 1]
            live = records[:, 0] >= 0  # barrier markers carry pc < 0
            in_shared = live & _in_space(address, MemorySpace.SHARED)
            in_special = live & (
                _in_space(address, MemorySpace.TEXTURE)
                | _in_space(address, MemorySpace.CONSTANT)
            )
            requests += int(np.count_nonzero(live))
            shared += int(np.count_nonzero(in_shared))
            special += int(np.count_nonzero(in_special))
            cacheable.append(records[live & ~in_shared & ~in_special, 1:])
        return cls(
            core_records=cacheable,
            merged_records=_round_robin_columns(cacheable),
            shared_accesses=shared,
            special_accesses=special,
            requests=requests,
            core_cycles=[len(trace) for trace in per_core_traces],
            source="flat",
            backend="numpy",
        )

    @classmethod
    def from_profile(
        cls,
        profile: GmapProfile,
        *,
        num_cores: int,
        max_blocks_per_core: int = 8,
    ) -> "AnalyticCacheModel":
        """Zero-trace estimator straight from the 5-tuple's ``P_R``.

        Each π cluster's per-unit reuse histogram is dilated to the
        per-core interleaved stream: with ``U`` co-resident sequencing
        units taking round-robin turns, a per-unit stack distance ``d``
        stretches to roughly ``(d + 1) * U - 1`` distinct lines (every
        intervening slot carries the other units' disjoint lines).  Cold
        fractions come from ``reuse_fraction``; cluster weights from
        ``Q``.  Only the profile's segment granularity is available, so
        other line sizes report as inapplicable rather than guessed.
        """
        if num_cores <= 0:
            raise ValueError(f"num_cores must be positive, got {num_cores}")
        threads = 1
        for dim in profile.block_dim:
            threads *= max(1, dim)
        units_per_block = (
            max(1, math.ceil(threads / 32))
            if profile.unit == "warp" else threads
        )
        blocks = 1
        for dim in profile.grid_dim:
            blocks *= max(1, dim)
        resident_blocks = max(
            1, min(max_blocks_per_core, math.ceil(blocks / num_cores))
        )
        concurrency = units_per_block * resident_blocks
        size = profile.segment_size
        weight_scale = max(1, profile.total_transactions)
        l1_stream = StackDistanceProfile((size,))
        for pi in profile.pi_profiles:
            mass = pi.probability * weight_scale
            if mass <= 0:
                continue
            reuse_total = pi.reuse.total
            reuses = mass * pi.reuse_fraction
            colds = mass - reuses
            l1_stream._colds[size] += int(round(colds))
            l1_stream._counts[size] += int(round(mass))
            l1_stream._records += int(round(mass))
            if reuse_total == 0 or reuses <= 0:
                continue
            for distance, count in pi.reuse.items():
                dilated = (distance + 1) * concurrency - 1
                weighted = int(round(count / reuse_total * reuses))
                if weighted:
                    l1_stream._histograms[size].add(dilated, weighted)
        # The shared L2 merges all cores' streams: dilate once more by the
        # active core count (symmetric disjoint-core assumption).
        cores = max(1, min(num_cores, blocks))
        l2_stream = StackDistanceProfile((size,))
        l2_stream._records = l1_stream._records * cores
        l2_stream._counts[size] = l1_stream._counts[size] * cores
        l2_stream._colds[size] = l1_stream._colds[size] * cores
        for distance, count in l1_stream._histograms[size].items():
            l2_stream._histograms[size].add(
                (distance + 1) * cores - 1, count * cores
            )
        return cls(
            l1_profiles=[l1_stream] * cores,
            l2_profile=l2_stream,
            requests=l1_stream._counts[size] * cores,
            source="profile",
        )

    # -- lazy scans (flat source) --------------------------------------------

    def _lines(self, line_size: int) -> Tuple[list, Any]:
        assert self._cores is not None and self._merged is not None
        per_core = self._core_lines.get(line_size)
        if per_core is None:
            per_core = [self._expand(t, line_size) for t in self._cores]
            self._core_lines[line_size] = per_core
            self._merged_lines[line_size] = self._expand(
                self._merged, line_size)[0]
        return per_core, self._merged_lines[line_size]

    def _expand(self, records, line_size: int):
        if self.backend == "numpy":
            return _expand_lines_array(records, line_size)
        return _expand_lines(records, line_size)

    def _scan(self, lines, num_sets: int, stored) -> _ScanSummary:
        if self.backend == "numpy":
            return _ArraySetDistanceScan(lines, num_sets, stored)
        return _SetDistanceScan(lines, num_sets, stored)

    def _l1_scans(
        self, line_size: int, num_sets: int
    ) -> List[_ScanSummary]:
        """Per-core exact set-distance scans, memoized per geometry."""
        key = (line_size, num_sets)
        scans = self._l1_memo.get(key)
        if scans is None:
            per_core, _ = self._lines(line_size)
            scans = [
                self._scan(lines, num_sets, stored)
                for lines, stored in per_core
            ]
            self._l1_memo[key] = scans
        return scans

    def _l2_scan(
        self, l1_line: int, l2_line: int, num_sets: int
    ) -> _ScanSummary:
        """Merged L2-demand-stream scan, memoized per geometry.

        The L2 sees one access per *L1 sector* that misses, addressed at
        the L2 line granularity: the stream is expanded at the finer of
        the two line sizes (so a 128B record crossing two 64B L1 sectors
        contributes two L2 touches), then each sector is mapped to its
        containing L2 line before the per-set stacks are walked.
        """
        stream_line = min(l1_line, l2_line)
        key = (stream_line, l2_line, num_sets)
        scan = self._l2_memo.get(key)
        if scan is None:
            _, merged = self._lines(stream_line)
            shift = l2_line.bit_length() - stream_line.bit_length()
            if self.backend == "numpy":
                merged, stored = merged >> shift, merged[:0]
            else:
                if shift:
                    merged = [line >> shift for line in merged]
                stored = set()
            scan = self._l2_memo[key] = self._scan(merged, num_sets, stored)
        return scan

    def prepare(self, configs: Iterable[SimConfig]) -> "AnalyticCacheModel":
        """Run every scan a sweep will need (the build/warm-up step)."""
        if self._cores is None:
            return self
        for config in configs:
            if self.applicability(config):
                continue
            self._l1_scans(config.l1.line_size, config.l1.num_sets)
            self._l2_scan(
                config.l1.line_size, config.l2.line_size, config.l2.num_sets
            )
        return self

    # -- applicability -------------------------------------------------------

    def applicability(self, config: SimConfig) -> List[str]:
        """Every reason ``config`` cannot be predicted by *this* model.

        The capability table's ``analytic`` rows plus model-state
        reasons: a granularity the profiles were not collected at, or
        trace traffic that routes around the modelled L1/L2 pair.
        """
        reasons = fallback_reasons(config, "analytic")
        if self._cores is None:
            collected = tuple((self.l2_profile or StackDistanceProfile()).line_sizes)
            for level, cache in (("l1", config.l1), ("l2", config.l2)):
                if cache.line_size not in collected:
                    reasons.append(
                        f"{level} line size {cache.line_size} not profiled "
                        f"(collected: {list(collected)})"
                    )
        if self.special_accesses:
            reasons.append(
                f"{self.special_accesses} texture/constant-space accesses "
                f"route through dedicated caches outside the model"
            )
        return reasons

    # -- prediction ----------------------------------------------------------

    def predict(self, config: SimConfig) -> SimResult:
        """O(histogram) miss-rate prediction as a ``SimResult``.

        Raises :class:`~repro.memsim.capabilities.UnsupportedConfigError`
        (reasons attached) for configs outside the model; callers record
        the reasons and fall back to replay.
        """
        reasons = self.applicability(config)
        if reasons:
            raise UnsupportedConfigError(reasons)
        if self._cores is not None:
            return self._predict_flat(config)
        return self._predict_profile(config)

    def _predict_flat(self, config: SimConfig) -> SimResult:
        """Exact L1 walk plus the conditioned L2 walk (flat source)."""
        l1_cfg = config.l1
        scans = self._l1_scans(l1_cfg.line_size, l1_cfg.num_sets)
        per_core: List[CacheStats] = []
        for scan in scans:
            misses = scan.misses(l1_cfg.assoc)
            per_core.append(
                CacheStats(
                    accesses=scan.accesses,
                    hits=scan.accesses - misses,
                    misses=misses,
                    evictions=scan.evictions(l1_cfg.assoc),
                    writebacks=scan.writebacks(l1_cfg.assoc),
                )
            )
        l1 = CacheStats()
        for stats in per_core:
            l1.merge(stats)
        l1_colds = sum(scan.colds for scan in scans)
        l2 = self._conditioned_l2(config, l1, l1_colds)
        return SimResult(
            l1=l1,
            l2=l2,
            dram=DramStats(reads=l2.misses),
            shared_accesses=self.shared_accesses,
            requests_issued=self.requests,
            # The flat replay's clock is unit-latency (one cycle per
            # record), so its final value is just the longest core trace.
            cycles=float(max(self.core_cycles, default=0)),
            per_core_l1=per_core,
        )

    def _conditioned_l2(
        self, config: SimConfig, l1: CacheStats, l1_colds: int
    ) -> CacheStats:
        """The shared L2 under the predicted L1 miss stream.

        The merged demand-stream set-distance histogram at the L2
        geometry, conditioned on the L1 filter:

        * L1-*cold* accesses always reach — a first touch misses every
          level.  Their count is the exact per-core cold total, rescaled
          to L2-stream units; the ones that are L2-stream *reuses*
          (sector siblings of a line another sector already pulled in)
          sit at the smallest distances, so the cold mass is drained from
          the histogram's ascending end.
        * L1-*reuse* accesses reach with the predicted L1 reuse-miss
          rate, and a surviving set distance ``d`` deflates to ``d × f``
          (``f`` = the stream's surviving fraction), because only
          intervening lines that also missed L1 reappear between its L2
          touches.

        Dirty L1 victims add their predicted writeback traffic to the L2
        stream as store hits (the victim's line was itself fetched
        through the L2, so it is resident for all but the smallest L2s).

        Known, deliberate model gap: MSHR *merges*.  When L2 bank
        backlog keeps fills in flight for hundreds of cycles, repeat
        misses within a line's in-flight window coalesce into the
        pending entry and never reach the L2 — but whether an entry is
        still live when its line returns depends on the queue backlog
        *and* on how many later misses force-retired it from the finite
        MSHR file, both functions of the merge rate itself.  That
        fixed-point timing problem is exactly what reuse-distance theory
        cannot see, so it is left to the replay fallback; the effect
        inflates the predicted L2 *denominator* (miss counts stay
        near-exact) on mid-range L1 configs, and is the dominant term of
        :data:`ANALYTIC_MISS_RATE_TOLERANCE`.
        """
        l1_cfg, l2_cfg = config.l1, config.l2
        scan2 = self._l2_scan(
            l1_cfg.line_size, l2_cfg.line_size, l2_cfg.num_sets
        )
        histogram, colds2, accesses2 = (
            scan2.histogram, scan2.colds, scan2.accesses
        )
        reuse1 = l1.accesses - l1_colds
        reuse_miss_rate = (
            (l1.misses - l1_colds) / reuse1 if reuse1 > 0 else 0.0
        )
        # L1 colds in L2-stream units (the streams differ when the L2
        # demand stream is expanded at a finer granularity than L1).
        cold_reach = (
            l1_colds * accesses2 / l1.accesses if l1.accesses else 0.0
        )
        reuse2 = accesses2 - colds2
        siblings = max(0.0, min(cold_reach - colds2, float(reuse2)))
        reached = colds2 + siblings + reuse_miss_rate * (reuse2 - siblings)
        # Dirty L1 victims: one store access per victim line chunk, all
        # hitting (their lines came in through this L2 moments ago).
        writebacks = sum(
            scan.writebacks(l1_cfg.assoc)
            for scan in self._l1_scans(l1_cfg.line_size, l1_cfg.num_sets)
        ) * max(1, l1_cfg.line_size // l2_cfg.line_size)
        surviving = reached / accesses2 if accesses2 else 0.0
        misses = float(colds2)
        assoc2 = l2_cfg.assoc
        remaining_siblings = siblings
        for distance, count in sorted(histogram.items()):
            take = min(float(count), remaining_siblings)
            remaining_siblings -= take
            weight = take + reuse_miss_rate * (count - take)
            if distance * surviving >= assoc2:
                misses += weight
        misses = min(misses, reached)
        accesses = int(round(reached)) + writebacks
        return CacheStats(
            accesses=accesses,
            misses=int(round(misses)),
            hits=accesses - int(round(misses)),
        )

    def _predict_profile(self, config: SimConfig) -> SimResult:
        """Histogram-dilation prediction from the 5-tuple (profile source)."""
        assert self.l1_profiles is not None and self.l2_profile is not None
        per_core: List[CacheStats] = []
        l1_accesses = 0
        l1_misses = 0.0
        for profile in self.l1_profiles[: max(1, config.num_cores)]:
            accesses, misses = profile.expected_misses(config.l1)
            stats = CacheStats(
                accesses=accesses,
                misses=int(round(misses)),
                hits=accesses - int(round(misses)),
            )
            per_core.append(stats)
            l1_accesses += accesses
            l1_misses += misses
        l1 = CacheStats()
        for stats in per_core:
            l1.merge(stats)
        l2 = self._dilated_l2(config, l1_accesses, l1_misses)
        return SimResult(
            l1=l1,
            l2=l2,
            dram=DramStats(reads=l2.misses),
            shared_accesses=self.shared_accesses,
            requests_issued=self.requests,
            cycles=0.0,
            per_core_l1=per_core,
        )

    def _dilated_l2(
        self, config: SimConfig, l1_accesses: int, l1_misses: float
    ) -> CacheStats:
        """Fully-associative + binomial L2 walk for profile-source models.

        An access at merged distance ``d`` reaches the L2 with the miss
        probability of its rescaled per-core L1 distance, and its
        conditional L2-stream distance is ``d`` deflated by the aggregate
        L1 miss rate.  Cold lines pass through unconditionally.
        """
        assert self.l2_profile is not None
        l1_line = config.l1.line_size
        l2_line = config.l2.line_size
        chunks = max(1, l1_line // l2_line)
        m1 = l1_misses / l1_accesses if l1_accesses else 0.0
        capacity1 = config.l1.size // l1_line
        sets1, assoc1 = config.l1.num_sets, config.l1.assoc
        capacity2 = config.l2.size // l2_line
        sets2, assoc2 = config.l2.num_sets, config.l2.assoc
        colds = self.l2_profile.cold_misses(l2_line)
        # Rescale a merged L2-granularity distance to one core's
        # L1-granularity distance: finer lines multiply distinct-line
        # counts, and the merged window splits across the active cores.
        scale1 = l2_line / l1_line / self.active_cores
        accesses = float(colds)
        misses = float(colds)
        for distance, count in self.l2_profile.histogram(l2_line).items():
            reach = _histogram_miss_probability(
                max(0, int(round(distance * scale1))),
                capacity1, sets1, assoc1,
            )
            if reach <= 0.0:
                continue
            conditional = int(round(distance * m1))
            weight = count * reach
            accesses += weight
            misses += weight * _histogram_miss_probability(
                conditional, capacity2, sets2, assoc2
            )
        total = int(round(accesses * chunks))
        misses = min(float(total), misses * chunks)
        return CacheStats(
            accesses=total,
            misses=int(round(misses)),
            hits=total - int(round(misses)),
        )


def _histogram_miss_probability(
    distance: int, capacity: int, num_sets: int, assoc: int
) -> float:
    """Miss probability of one access at fully-associative distance ``d``."""
    if distance >= capacity:
        return 1.0
    if num_sets > 1 and distance >= assoc:
        return _conflict_probability(distance, num_sets, assoc)
    return 0.0


def _round_robin_records(
    per_core: Sequence[Sequence[AccessTuple]],
) -> List[AccessTuple]:
    """Merge per-core record streams one access per core per turn.

    The analytic twin of the flat replay's unit-latency ``(clock, core)``
    event-heap merge: with every record costing one cycle, the heap
    degenerates to exactly this round-robin order.
    """
    out: List[AccessTuple] = []
    cursors = [0] * len(per_core)
    remaining = sum(len(t) for t in per_core)
    while remaining:
        for idx, trace in enumerate(per_core):
            cursor = cursors[idx]
            if cursor < len(trace):
                out.append(trace[cursor])
                cursors[idx] = cursor + 1
                remaining -= 1
    return out


def _round_robin_columns(per_core):
    """:func:`_round_robin_records` over per-core column arrays.

    A stable sort of the concatenated streams by per-core turn index
    keeps equal turns in core order — the same round-robin merge.
    """
    if not per_core:
        return np.empty((0, 3), dtype=np.int64)
    turns = np.concatenate(
        [np.arange(len(t), dtype=np.int64) for t in per_core])
    return np.concatenate(per_core)[np.argsort(turns, kind="stable")]


def _in_space(address, space: MemorySpace):
    """Mask of ``address`` entries inside ``space``'s window."""
    lo, hi = region_bounds(space)
    return (address >= lo) & (address < hi)


def required_line_sizes(configs: Iterable[SimConfig]) -> Tuple[int, ...]:
    """Every L1/L2 granularity a sweep's configs will ask the model for."""
    sizes = set()
    for config in configs:
        sizes.add(config.l1.line_size)
        sizes.add(config.l2.line_size)
    return tuple(sorted(sizes)) or DEFAULT_LINE_SIZES
