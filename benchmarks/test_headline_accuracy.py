"""The paper's headline claim, as one bench.

Abstract: "G-MAP proxies can replicate cache/memory performance of original
applications with over 90% accuracy across over 5000 different L1/L2 cache,
prefetcher and memory configurations."

This target runs the full 18-app suite on the Table 2 baseline and reports
per-benchmark accuracy (1 - |proxy - original| miss rate) for L1 and L2
along with the aggregate, asserting the >90% claim on the reproduction.
"""

from __future__ import annotations

from repro.memsim.config import PAPER_BASELINE
from repro.workloads import suite

from benchmarks.conftest import print_experiment_header, run_sweeps


def test_headline_accuracy():
    print_experiment_header(
        "Headline", "18-app cloning accuracy on the Table 2 baseline",
        paper_error="'over 90% accuracy'", paper_corr="n/a",
    )
    rows = []
    for sweep in run_sweeps([PAPER_BASELINE], apps=suite.PAPER_SUITE):
        pair = sweep.pairs[0]
        l1_acc = 1 - abs(pair.original.l1_miss_rate - pair.proxy.l1_miss_rate)
        l2_acc = 1 - abs(pair.original.l2_miss_rate - pair.proxy.l2_miss_rate)
        rows.append((sweep.benchmark, l1_acc, l2_acc))

    print(f"    {'benchmark':<18} {'L1 accuracy':>12} {'L2 accuracy':>12}")
    for app, l1_acc, l2_acc in rows:
        print(f"    {app:<18} {l1_acc:>11.1%} {l2_acc:>11.1%}")
    mean_l1 = sum(r[1] for r in rows) / len(rows)
    mean_l2 = sum(r[2] for r in rows) / len(rows)
    print(f"    {'MEAN':<18} {mean_l1:>11.1%} {mean_l2:>11.1%}")

    # The headline: average accuracy above 90% on both levels, and no app
    # below 70% (the paper's worst bars sit around 80-85%).
    assert mean_l1 > 0.90
    assert mean_l2 > 0.90
    assert min(r[1] for r in rows) > 0.70
