"""Registry of the paper's experiments: one definition, many consumers.

Each :class:`ExperimentSpec` binds a figure id to its configuration sweep,
the metric it compares, and the paper's reported numbers — the single source
the CLI (``gmap validate``), the paper-figure benchmarks (``benchmarks/``),
and ``gmap check``'s bundled-grid scan draw from.  :data:`REDUCED` is the
one named (apps, scale, cores, seed) preset the benchmarks run the reduced
figures at.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.memsim.config import SimConfig
from repro.validation import sweeps


@dataclass(frozen=True)
class ExperimentSpec:
    """One evaluation experiment of the paper."""

    figure: str
    description: str
    metric: str
    sweep: Callable[..., List[SimConfig]]
    paper_error: str
    paper_correlation: str

    def configs(self, reduced: bool = True) -> List[SimConfig]:
        return self.sweep(reduced=reduced)


@dataclass(frozen=True)
class Preset:
    """The benchmarks, workload scale, core count and seed of one run."""

    apps: Tuple[str, ...]
    scale: str
    num_cores: int
    seed: int


#: The reduced preset: one app per locality class plus the irregular worst
#: case (hotspot) and a prefetch-friendly app (nw), at ``tiny`` scale.
REDUCED = Preset(
    apps=("kmeans", "heartwall", "srad", "nw", "hotspot", "blackscholes"),
    scale="tiny",
    num_cores=15,
    seed=1234,
)


EXPERIMENTS: Dict[str, ExperimentSpec] = {
    "fig6a": ExperimentSpec(
        figure="Figure 6a",
        description="L1 cache sweep (8-128KB, 1-16 way, 32-128B lines)",
        metric="l1_miss_rate",
        sweep=sweeps.l1_sweep,
        paper_error="5.1%",
        paper_correlation="0.91",
    ),
    "fig6b": ExperimentSpec(
        figure="Figure 6b",
        description="L2 cache sweep (128KB-4MB, 1-16 way, 64-128B lines)",
        metric="l2_miss_rate",
        sweep=sweeps.l2_sweep,
        paper_error="7.1%",
        paper_correlation="0.91",
    ),
    "fig6c": ExperimentSpec(
        figure="Figure 6c",
        description="L1 + stride prefetcher sweep (72 configurations)",
        metric="l1_miss_rate",
        sweep=sweeps.l1_prefetcher_sweep,
        paper_error="6.3%",
        paper_correlation="0.90",
    ),
    "fig6d": ExperimentSpec(
        figure="Figure 6d",
        description="L2 + stream prefetcher sweep (~96 configurations)",
        metric="l2_miss_rate",
        sweep=sweeps.l2_prefetcher_sweep,
        paper_error="8.9%",
        paper_correlation="0.88",
    ),
    "fig6e": ExperimentSpec(
        figure="Figure 6e",
        description="scheduling policy impact (LRR vs GTO via SchedP_self)",
        metric="l1_miss_rate",
        # Two policies: the full and reduced grids are the same.
        sweep=lambda reduced: sweeps.scheduling_sweep(),
        paper_error="8% (5.1% LRR / 10.9% GTO)",
        paper_correlation="n/a",
    ),
    "fig7": ExperimentSpec(
        figure="Figure 7",
        description="DRAM sweep (bus width, channels, addressing scheme)",
        metric="dram_rbl",
        sweep=sweeps.dram_sweep,
        paper_error="RBL 9.95% / queue 8.64% / latency 12.6%",
        paper_correlation="0.85",
    ),
}


def experiment(figure_id: str) -> ExperimentSpec:
    """Look up an experiment spec by its id (e.g. "fig6a")."""
    try:
        return EXPERIMENTS[figure_id]
    except KeyError:
        raise ValueError(
            f"unknown experiment {figure_id!r}; available: {sorted(EXPERIMENTS)}"
        ) from None
