"""Figure 6e: scheduling policy impact (LRR vs GTO).

G-MAP does not model GPU cores; it approximates non-LRR policies with the
scalar ``SchedP_self`` — the probability of issuing the same warp twice in a
row — measured from the original's run (section 4.5).  The paper reports an
average L1 miss-rate error of 8% across the two policies: 5.1% under LRR
and 10.9% under GTO.
"""

from __future__ import annotations

from repro.validation.harness import ExperimentReport, SweepResult

from benchmarks.conftest import sweep_figure

PAPER_BY_POLICY = {"lrr": "5.1%", "gto": "10.9%"}


def test_fig6e_scheduling_policies():
    spec, configs, sweeps = sweep_figure("fig6e")
    per_policy = {}
    for index, config in enumerate(configs):
        label = config.scheduler
        print(f"    --- policy: {label.upper()}")
        comparisons = []
        for sweep in sweeps:
            pair = sweep.pairs[index]
            comparisons.append(SweepResult(sweep.benchmark, [pair])
                               .comparison(spec.metric))
            print(f"    {sweep.benchmark:<16} orig {pair.original.l1_miss_rate:.4f} "
                  f"proxy {pair.proxy.l1_miss_rate:.4f} "
                  f"(orig SchedP_self={pair.original.measured_p_self:.2f})")
        err = ExperimentReport(spec.metric, comparisons).mean_error
        per_policy[label] = err
        print(f"    {label.upper()} avg error: {err * 100:.2f}pp "
              f"(paper: {PAPER_BY_POLICY[label]})")

    overall = sum(per_policy.values()) / len(per_policy)
    print(f"    MEASURED overall: {overall * 100:.2f}pp (paper: 8%)")
    assert overall < 0.15
