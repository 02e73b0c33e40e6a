"""Baseline comparison: G-MAP proxies vs analytical L1 models.

The paper's section 3 positions G-MAP against the reuse-distance analytical
models of Tang et al. (ICDCS 2011, single TB) and Nugteren et al. (HPCA
2014, round-robin multi-warp with MSHR extensions): "Although such models
are fast, their scope is limited to L1 cache performance modeling.  In
contrast, G-MAP's performance cloning framework can allow extensive
exploration of different levels of the GPU memory hierarchy."

This bench quantifies both claims on the L1 sweep: per-model accuracy on L1
miss rates, and the scope wall — the analytical models raise on any L2
question while the proxy answers it.
"""

from __future__ import annotations

import pytest

from repro.analytical import NugterenL1Model, TangL1Model
from repro.core.cache import ArtifactCache
from repro.validation.experiments import EXPERIMENTS
from repro.workloads import suite
from benchmarks.conftest import (
    APPS,
    FULL,
    NUM_CORES,
    SCALE,
    print_experiment_header,
    run_sweeps,
)


def test_baseline_comparison(tmp_path):
    print_experiment_header(
        "Baselines", "G-MAP proxy vs Tang'11 / Nugteren'14 L1 models",
        paper_error="n/a (section 3 comparison)", paper_corr="n/a",
    )
    # Models are constructed several times per kernel below; the
    # stack-distance cache turns every re-construction into a histogram load.
    sd_cache = ArtifactCache(tmp_path / "sdcache")
    configs = EXPERIMENTS["fig6a"].configs(reduced=not FULL)
    # Truth and proxy miss rates: the fig6a sweep, one runner pass.
    sweeps = run_sweeps(configs)
    print(f"    {'app':<16} {'proxy':>8} {'tang':>8} {'nugteren':>8}"
          f"   (mean |err| in L1 miss rate, pp)")
    sums = {"proxy": 0.0, "tang": 0.0, "nugteren": 0.0}
    for app, sweep in zip(APPS, sweeps):
        kernel = suite.make(app, SCALE)
        tang = TangL1Model(kernel, cache=sd_cache)
        nugteren = NugterenL1Model(kernel, num_cores=NUM_CORES, cache=sd_cache)
        errs = {"proxy": 0.0, "tang": 0.0, "nugteren": 0.0}
        for pair in sweep.pairs:
            truth = pair.original.l1_miss_rate
            errs["proxy"] += abs(pair.proxy.l1_miss_rate - truth)
            errs["tang"] += abs(
                tang.predict_l1_miss_rate(pair.config.l1) - truth)
            errs["nugteren"] += abs(
                nugteren.predict_l1_miss_rate(pair.config.l1) - truth
            )
        for key in errs:
            errs[key] /= len(configs)
            sums[key] += errs[key]
        print(f"    {app:<16} {errs['proxy'] * 100:>7.2f}p "
              f"{errs['tang'] * 100:>7.2f}p {errs['nugteren'] * 100:>7.2f}p")
    means = {k: v / len(APPS) for k, v in sums.items()}
    print(f"    {'MEAN':<16} {means['proxy'] * 100:>7.2f}p "
          f"{means['tang'] * 100:>7.2f}p {means['nugteren'] * 100:>7.2f}p")

    # Scope: the analytical models cannot answer L2 questions at all.
    tang = TangL1Model(suite.make(APPS[0], SCALE), cache=sd_cache)
    with pytest.raises(NotImplementedError):
        tang.predict_l2_miss_rate(configs[0].l2)
    l2_answer = sweeps[0].pairs[0].proxy.l2_miss_rate
    print(f"    scope: analytical models raise on L2; proxy answers "
          f"(e.g. {APPS[0]} L2 miss rate {l2_answer:.3f})")

    # The proxy must be competitive with the analytical models on their own
    # home turf (L1 miss rates).
    assert means["proxy"] <= min(means["tang"], means["nugteren"]) + 0.02
