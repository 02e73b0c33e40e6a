"""Figure 6a: L1 cache configurations.

30 L1 configurations per benchmark (size 8-128KB, associativity 1-16, line
size 32-128B; L2 fixed at 1MB 8-way).  The paper reports an average proxy
error of 5.1% in L1 miss rate and an average Pearson correlation of 0.91,
with kmeans/heartwall cloning at >97% accuracy and hotspot worst.
"""

from __future__ import annotations

from benchmarks.conftest import check_figure


def test_fig6a_l1_sweep():
    comparisons = check_figure("fig6a").comparisons

    # Paper narrative: high-reuse apps clone best; hotspot is the worst case.
    by_name = {c.benchmark: c for c in comparisons}
    if "kmeans" in by_name:
        assert by_name["kmeans"].mean_abs_error < 0.05
    if "hotspot" in by_name:
        worst = max(comparisons, key=lambda c: c.mean_abs_error)
        assert by_name["hotspot"].mean_abs_error >= 0.5 * worst.mean_abs_error
