"""Figure 6b: L2 cache configurations.

30 L2 configurations per benchmark (128KB-4MB, associativity 1-16, line size
64-128B; L1 fixed at 16KB 4-way).  The paper reports 7.1% average L2
miss-rate error and 0.91 average correlation.
"""

from __future__ import annotations

from benchmarks.conftest import check_figure


def test_fig6b_l2_sweep():
    check_figure("fig6b")
