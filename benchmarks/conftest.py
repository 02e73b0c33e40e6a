"""Shared machinery for the per-table/figure benchmark harness.

Every file in this directory regenerates one table or figure of the paper's
evaluation and prints the measured rows next to the paper's reported
numbers.  The configuration-sweep figures (6a-6e, 7) take their figure,
description, metric, configurations and paper numbers from the experiment
registry (:data:`repro.validation.experiments.EXPERIMENTS`) and run through
the one sweep engine (:class:`~repro.validation.parallel.SweepRunner`), the
path ``gmap validate`` takes.

By default the harness runs the registry's reduced preset
(:data:`~repro.validation.experiments.REDUCED`: a 6-app subset at tiny
workload scale, subsampled sweeps).  Set ``GMAP_FULL=1`` to run all 18
benchmarks at small scale over the full paper-sized sweeps
(30/30/72/96/2/11 configurations — expect a long run).
"""

from __future__ import annotations

import os
from typing import List, Sequence, Tuple

from repro.memsim.config import SimConfig
from repro.validation.experiments import EXPERIMENTS, REDUCED, ExperimentSpec
from repro.validation.harness import ExperimentReport, SweepResult
from repro.validation.parallel import SweepRunner
from repro.workloads import suite

FULL = os.environ.get("GMAP_FULL") == "1"

APPS: Sequence[str] = tuple(suite.PAPER_SUITE) if FULL else REDUCED.apps
SCALE = "small" if FULL else REDUCED.scale
NUM_CORES = REDUCED.num_cores
SEED = REDUCED.seed


def print_experiment_header(figure: str, description: str,
                            paper_error: str, paper_corr: str) -> None:
    mode = "FULL (paper-sized)" if FULL else "reduced (set GMAP_FULL=1 for full)"
    print()
    print(f"=== {figure}: {description}")
    print(f"    mode: {mode}; apps: {', '.join(APPS)}; scale: {SCALE}")
    print(f"    paper reports: avg error {paper_error}, avg correlation {paper_corr}")


def run_sweeps(configs: Sequence[SimConfig],
               apps: Sequence[str] = APPS) -> List[SweepResult]:
    """Every app x every config in one serial sweep-engine run."""
    kernels = [suite.make(app, SCALE) for app in apps]
    return SweepRunner(jobs=1).run(
        kernels, configs, seed=SEED, num_cores=NUM_CORES)


def sweep_figure(
    figure_id: str,
) -> Tuple[ExperimentSpec, List[SimConfig], List[SweepResult]]:
    """Print a registry figure's header and run its sweep over ``APPS``.

    Returns the spec, its configurations and one SweepResult per app.
    """
    spec = EXPERIMENTS[figure_id]
    print_experiment_header(spec.figure, spec.description,
                            spec.paper_error, spec.paper_correlation)
    configs = spec.configs(reduced=not FULL)
    return spec, configs, run_sweeps(configs)


def check_figure(
    figure_id: str,
    max_mean_error: float = 0.15,
    min_mean_corr: float = 0.5,
) -> ExperimentReport:
    """Run one Figure-6 style experiment, print its rows, assert its bounds.

    Returns the report for any extra assertions.
    """
    spec, configs, sweeps = sweep_figure(figure_id)
    metric = spec.metric
    report = ExperimentReport(
        metric=metric, comparisons=[s.comparison(metric) for s in sweeps])
    print(f"    {'benchmark':<16} {'orig ' + metric:>16} {'proxy ' + metric:>16} "
          f"{'err(pp)':>8} {'corr':>6}")
    for c in report.comparisons:
        n = len(c.originals)
        print(f"    {c.benchmark:<16} {sum(c.originals) / n:>16.4f} "
              f"{sum(c.proxies) / n:>16.4f} "
              f"{c.mean_abs_error * 100:>8.2f} {c.correlation:>6.3f}")
    err, corr = report.mean_error, report.mean_correlation
    print(f"    MEASURED: avg error {err * 100:.2f}pp, avg correlation {corr:.3f} "
          f"({len(configs)} configs x {len(APPS)} apps)")
    assert err < max_mean_error, f"mean error {err:.3f} exceeds {max_mean_error}"
    assert corr > min_mean_corr, f"mean correlation {corr:.3f} below {min_mean_corr}"
    return report
