"""Figure 8: impact of trace miniaturization.

Sweeps the clone reduction factor (1x - 16x) and reports, per factor, the
cloning accuracy (left axis of the paper's figure) and the memory-simulation
speedup of the reduced clone over the full trace (right axis).  The paper
shows speedup growing almost linearly with the reduction while accuracy
stays ~90% up to 8x and then starts dropping.
"""

from __future__ import annotations

import time

from repro.memsim.config import PAPER_BASELINE
from repro.memsim.simulator import simulate
from repro.validation import sweeps
from repro.validation.harness import build_pipeline
from repro.validation.metrics import absolute_error
from repro.workloads import suite

from benchmarks.conftest import (
    APPS, FULL, NUM_CORES, SEED, print_experiment_header,
)

#: Apps used for the miniaturization sweep (high/med/low reuse mix).
MINI_APPS = tuple(a for a in ("kmeans", "srad", "heartwall") if a in APPS) or APPS[:2]

#: Figure 8 measures statistical-convergence loss, so the original must be
#: big enough that a 16x reduction still leaves samples — always use at
#: least the "small" workload scale here (paper: 1B-instruction runs).
MINI_SCALE = "default" if FULL else "small"


def test_fig8_miniaturization():
    print_experiment_header(
        "Figure 8", "trace miniaturization: accuracy and simulation speedup",
        paper_error="~90% accuracy at 8x", paper_corr="~8x speedup at 8x",
    )
    factors = sweeps.miniaturization_factors()
    config = PAPER_BASELINE

    def make_pipeline(app, factor):
        return build_pipeline(
            suite.make(app, MINI_SCALE), num_cores=NUM_CORES, seed=SEED,
            scale_factor=factor,
        )

    originals = {}
    base_times = {}
    for app in MINI_APPS:
        pipeline = make_pipeline(app, 1.0)
        t0 = time.perf_counter()
        originals[app] = simulate(pipeline.original_assignments, config)
        base_times[app] = time.perf_counter() - t0

    print(f"    {'factor':>6} {'accuracy':>9} {'speedup':>8}   (apps: "
          f"{', '.join(MINI_APPS)})")
    accuracy_by_factor = {}
    speedup_by_factor = {}
    for factor in factors:
        errs = []
        speedups = []
        for app in MINI_APPS:
            pipeline = make_pipeline(app, factor)
            t0 = time.perf_counter()
            clone = simulate(pipeline.proxy_assignments, config)
            elapsed = max(time.perf_counter() - t0, 1e-9)
            errs.append(
                absolute_error(originals[app].l1_miss_rate, clone.l1_miss_rate)
            )
            speedups.append(base_times[app] / elapsed)
        accuracy = 1.0 - sum(errs) / len(errs)
        speedup = sum(speedups) / len(speedups)
        accuracy_by_factor[factor] = accuracy
        speedup_by_factor[factor] = speedup
        print(f"    {factor:>5.0f}x {accuracy:>8.1%} {speedup:>7.2f}x")

    # Shape assertions: speedup grows with the reduction factor, and the
    # 8x clone keeps most of its accuracy (the paper's ~90% is measured on
    # 1B-instruction originals; reduced-mode originals are small enough
    # that the statistical-convergence knee arrives a little earlier).
    assert speedup_by_factor[8.0] > speedup_by_factor[1.0] * 2
    assert speedup_by_factor[16.0] > speedup_by_factor[2.0]
    assert accuracy_by_factor[8.0] > (0.85 if FULL else 0.72)
    assert accuracy_by_factor[1.0] >= accuracy_by_factor[16.0] - 0.02
