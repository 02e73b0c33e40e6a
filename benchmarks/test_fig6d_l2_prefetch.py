"""Figure 6d: L2 cache + stream prefetcher configurations.

~96 configurations per benchmark: stream window 8/16/32 x prefetch degree
1/2/4/8 x L2 geometry.  The paper reports 8.9% average L2 miss-rate error
and 0.88 average correlation.
"""

from __future__ import annotations

from benchmarks.conftest import check_figure


def test_fig6d_l2_prefetcher_sweep():
    check_figure("fig6d")
