"""Figure 6c: L1 cache + stride prefetcher configurations.

72 configurations per benchmark (prefetch degree 1-8, prefetcher table
size, L1 geometry) with the many-thread-aware stride prefetcher of Lee et
al. [12] at the L1.  The paper reports 6.3% average error and 0.90 average
correlation, and notes that kmeans and nw benefit from prefetching while
scalarProd/srad (large footprints, low temporal locality) and hotspot
(non-dominant patterns) are insensitive.
"""

from __future__ import annotations

from repro.gpu.executor import execute_kernel
from repro.memsim.config import PAPER_BASELINE, PrefetcherConfig
from repro.memsim.simulator import simulate
from repro.workloads import suite

from benchmarks.conftest import APPS, NUM_CORES, SCALE, check_figure


def test_fig6c_l1_prefetcher_sweep():
    check_figure("fig6c")

    # Paper narrative: nw benefits from L1 prefetching; hotspot does not.
    base = PAPER_BASELINE
    pref = base.with_(l1_prefetcher=PrefetcherConfig(kind="stride", degree=4))
    if "nw" in APPS:
        original = execute_kernel(suite.make("nw", SCALE), NUM_CORES)
        without = simulate(original, base)
        withpf = simulate(original, pref)
        assert withpf.l1_miss_rate < without.l1_miss_rate
        print(f"    nw: miss rate {without.l1_miss_rate:.3f} -> "
              f"{withpf.l1_miss_rate:.3f} with prefetching (paper: benefits)")
