"""Analytical GPU cache models — the baselines the paper compares against.

Two reuse-distance-based L1 miss-rate models from the paper's related work
(section 3):

* :class:`repro.analytical.tang.TangL1Model` — Tang et al., "Cache miss
  analysis for GPU programs based on stack distance profile" (ICDCS 2011):
  reuse-distance theory applied to a *single threadblock on a single core*,
  arguing limited reuse across TBs;
* :class:`repro.analytical.nugteren.NugterenL1Model` — Nugteren et al.,
  "A detailed GPU cache model based on reuse distance theory" (HPCA 2014):
  per-warp traces emulated under round-robin inter-warp parallelism, with an
  extended reuse-distance model accounting for MSHR merging and latencies.

Both predict only L1 behaviour — the scope limitation that motivates G-MAP
("their scope is limited to L1 cache performance modeling ... In contrast,
G-MAP's performance cloning framework can allow extensive exploration of
different levels of the GPU memory hierarchy").  The bench target
``benchmarks/test_baselines.py`` quantifies accuracy and scope side by side.

:mod:`repro.analytical.analytic` goes past that limitation: an exact
per-set reuse-distance model over flat replay traces that predicts full
L1 *and* L2 sweep points in O(histogram) — the engine behind
``sim_mode="analytic"`` and ``gmap simulate --analytic``.
"""

from repro.analytical.analytic import (
    ANALYTIC_MISS_RATE_TOLERANCE,
    AnalyticCacheModel,
)
from repro.analytical.profile_model import StackDistanceProfile
from repro.analytical.tang import TangL1Model
from repro.analytical.nugteren import NugterenL1Model

__all__ = [
    "ANALYTIC_MISS_RATE_TOLERANCE",
    "AnalyticCacheModel",
    "StackDistanceProfile",
    "TangL1Model",
    "NugterenL1Model",
]
