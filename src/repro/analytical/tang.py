"""Tang et al. (ICDCS 2011): GPU L1 miss analysis from one threadblock.

The model "applied reuse distance theory on a single TB on a single core by
arguing that there is limited reuse across different TBs" (paper section 3).
Concretely: collect the coalesced access stream of one representative
threadblock (its warps interleaved round-robin, as they share the core),
build a stack-distance profile, and predict the L1 miss rate of any
configuration from the histogram.

Scope limitations (by design — this is the baseline the paper improves on):

* **L1 only** — there is no model of the shared L2, prefetchers or DRAM;
  :meth:`TangL1Model.predict_l2_miss_rate` raises ``NotImplementedError``.
* **Single-TB parallelism** — contention between threadblocks co-resident
  on one core is not modelled, so multi-TB thrashing is underestimated.
"""

from __future__ import annotations

from typing import List

from repro.analytical.profile_model import (
    DEFAULT_LINE_SIZES,
    StackDistanceProfile,
    round_robin_interleave,
)
from repro.gpu.executor import kernel_warp_traces
from repro.gpu.instructions import SYNC_PC
from repro.memsim.config import CacheConfig
from repro.workloads.base import KernelModel


class TangL1Model:
    """Single-threadblock stack-distance L1 model.

    ``cache`` (None/False, True, or an ``ArtifactCache``) memoizes the
    stack-distance profile by (kernel, block, line sizes): a hit skips the
    warp-trace replay entirely, which matters when the same kernel is
    profiled across baselines and analytic sweeps.
    """

    name = "tang2011"

    def __init__(self, kernel: KernelModel, block: int = 0,
                 line_sizes=DEFAULT_LINE_SIZES, cache=None) -> None:
        from repro.core.cache import resolve_cache

        launch = kernel.launch
        if not 0 <= block < launch.num_blocks:
            raise ValueError(f"block {block} out of range")
        self.kernel = kernel
        self.block = block
        store = resolve_cache(cache)
        key = None
        if store is not None:
            key = store.sd_profile_key(
                kernel, model=self.name, unit=block, line_sizes=line_sizes)
            hit = store.load_sd_profile(key)
            if hit is not None:
                self.profile = hit[0]
                return
        warp_traces = kernel_warp_traces(kernel)
        streams: List[List[int]] = []
        for warp in launch.warps_in_block(block):
            trace = warp_traces[warp]
            streams.append(
                [a for pc, a, _, _ in trace.transactions if pc != SYNC_PC]
            )
        interleaved = round_robin_interleave(streams)
        self.profile = StackDistanceProfile.from_addresses(
            interleaved, line_sizes
        )
        if store is not None and key is not None:
            store.store_sd_profile(key, self.profile)

    def predict_l1_miss_rate(self, config: CacheConfig) -> float:
        """Predicted L1 miss rate under this configuration."""
        return self.profile.miss_rate(config)

    def predict_l2_miss_rate(self, config: CacheConfig) -> float:
        raise NotImplementedError(
            "Tang et al. models the L1 only (paper section 3: 'their scope "
            "is limited to L1 cache performance modeling')"
        )
