"""Ablation study: what each statistical component buys.

DESIGN.md calls out the profile's components (π profiles, inter/intra-thread
strides, reuse distances, coalescing degree) and two generator refinements
(per-PC reuse acceptance, the optional Markov stride model).  This bench
degrades one component at a time and measures the L1 miss-rate cloning error
across a locality-diverse app subset — quantifying why each statistic is in
the 5-tuple.

Not a paper figure; an extension supporting the paper's design rationale
(section 4: "a set of key statistics needed to capture the memory access
patterns").
"""

from __future__ import annotations

from repro.core.distributions import Histogram
from repro.core.generator import ProxyGenerator
from repro.memsim.config import PAPER_BASELINE
from repro.memsim.simulator import simulate
from repro.validation.harness import build_pipeline
from repro.workloads import suite

from benchmarks.conftest import NUM_CORES, SCALE, SEED, print_experiment_header

ABLATION_APPS = ("kmeans", "lib", "srad", "heartwall")


def _strip_reuse(profile):
    """Remove P_R: the generator falls back to pure stride walks."""
    clone = profile.copy()
    for pi in clone.pi_profiles:
        pi.reuse = Histogram()
    return clone


def _strip_coalescing_degree(profile):
    """Force one transaction per instruction instance."""
    clone = profile.copy()
    for stats in clone.instructions.values():
        stats.txns_per_access = Histogram({1: 1})
        stats.txn_stride = Histogram()
    return clone


def _strip_inter_stride(profile):
    """Collapse P_E: every unit first-touches the same base addresses."""
    clone = profile.copy()
    for stats in clone.instructions.values():
        stats.inter_stride = Histogram({0: 1})
    return clone


def _error(pipeline, profile, config, stride_model="iid"):
    proxy = ProxyGenerator(profile, seed=SEED, stride_model=stride_model)
    clone = simulate(proxy.generate(NUM_CORES), config)
    original = simulate(pipeline.original_assignments, config)
    return abs(original.l1_miss_rate - clone.l1_miss_rate)


def test_ablations():
    print_experiment_header(
        "Ablations", "value of each profile component (L1 miss-rate error)",
        paper_error="n/a (extension)", paper_corr="n/a",
    )
    config = PAPER_BASELINE
    variants = (
        ("full (iid)", lambda p: p, "iid"),
        ("markov strides", lambda p: p, "markov"),
        ("no reuse (P_R)", _strip_reuse, "iid"),
        ("no coalescing deg.", _strip_coalescing_degree, "iid"),
        ("no inter-stride (P_E)", _strip_inter_stride, "iid"),
    )
    pipelines = {
        app: build_pipeline(
            suite.make(app, SCALE), num_cores=NUM_CORES, seed=SEED
        )
        for app in ABLATION_APPS
    }
    errors = {}
    print(f"    {'variant':<22}" + "".join(f"{a:>12}" for a in ABLATION_APPS)
          + f"{'mean':>9}")
    for label, transform, stride_model in variants:
        row = []
        for app in ABLATION_APPS:
            pipeline = pipelines[app]
            err = _error(pipeline, transform(pipeline.profile), config,
                         stride_model)
            row.append(err)
        mean = sum(row) / len(row)
        errors[label] = mean
        print(f"    {label:<22}"
              + "".join(f"{e * 100:>11.2f}p" for e in row)
              + f"{mean * 100:>8.2f}p")

    # Each component must matter: stripping it should not *improve* the
    # clone on average, and the full model must beat the worst ablation
    # clearly.
    full = errors["full (iid)"]
    worst = max(v for k, v in errors.items() if k.startswith("no "))
    assert worst > full, "ablations should hurt accuracy"
    assert errors["markov strides"] <= full + 0.01
