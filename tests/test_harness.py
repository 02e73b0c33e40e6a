"""Tests for the original-vs-proxy validation harness."""

from __future__ import annotations

import pytest

from repro.memsim.config import CacheConfig, DramConfig, SimConfig
from repro.validation.harness import (
    build_pipeline,
    run_experiment,
    run_sweep,
    simulate_pair,
)
from repro.workloads import suite


@pytest.fixture(scope="module")
def pipeline():
    kernel = suite.make("kmeans", "tiny")
    return build_pipeline(kernel, num_cores=4, seed=7)


def fast_config(**overrides) -> SimConfig:
    defaults = dict(
        num_cores=4,
        l1=CacheConfig(size=16 * 1024, assoc=4, line_size=128),
        l2=CacheConfig(size=256 * 1024, assoc=8, line_size=128,
                       hit_latency=30, banks=8),
        dram=DramConfig(channels=4),
    )
    defaults.update(overrides)
    return SimConfig(**defaults)


class TestBuildPipeline:
    def test_artifacts_present(self, pipeline):
        assert pipeline.name == "kmeans"
        assert pipeline.profile.num_instructions >= 1
        assert pipeline.original_assignments
        assert pipeline.proxy_assignments
        assert pipeline.profiling_seconds > 0
        assert pipeline.generation_seconds > 0

    def test_proxy_and_original_comparable_size(self, pipeline):
        orig = sum(a.transaction_count for a in pipeline.original_assignments)
        proxy = sum(a.transaction_count for a in pipeline.proxy_assignments)
        assert abs(orig - proxy) / orig < 0.05

    def test_miniaturized_pipeline(self):
        kernel = suite.make("kmeans", "tiny")
        small = build_pipeline(kernel, num_cores=4, scale_factor=4.0)
        full = build_pipeline(kernel, num_cores=4)
        small_txns = sum(a.transaction_count for a in small.proxy_assignments)
        full_txns = sum(a.transaction_count for a in full.proxy_assignments)
        assert small_txns < full_txns / 3


class TestSimulatePair:
    def test_returns_both_results(self, pipeline):
        pair = simulate_pair(pipeline, fast_config())
        assert pair.original.requests_issued > 0
        assert pair.proxy.requests_issued > 0

    def test_gto_proxy_uses_schedpself(self, pipeline):
        """Section 4.5: the proxy approximates GTO via SchedP_self."""
        pair = simulate_pair(pipeline, fast_config(scheduler="gto"))
        # The proxy result reflects the probabilistic policy; both ran.
        assert pair.original.requests_issued > 0
        assert pair.proxy.requests_issued > 0

    def test_accuracy_on_kmeans(self, pipeline):
        pair = simulate_pair(pipeline, fast_config())
        err = abs(pair.original.l1_miss_rate - pair.proxy.l1_miss_rate)
        assert err < 0.05


class TestRunSweep:
    def test_sweep_and_comparison(self, pipeline):
        configs = [
            fast_config(),
            fast_config(l1=CacheConfig(size=64 * 1024, assoc=8, line_size=128)),
        ]
        sweep = run_sweep(pipeline, configs)
        assert len(sweep.pairs) == 2
        comparison = sweep.comparison("l1_miss_rate")
        assert comparison.benchmark == "kmeans"
        assert len(comparison.originals) == 2
        assert 0.0 <= comparison.mean_abs_error <= 1.0


class TestRunExperiment:
    def test_report_aggregates(self):
        kernels = [suite.make("vectoradd", "tiny"), suite.make("kmeans", "tiny")]
        report = run_experiment(kernels, [fast_config()], "l1_miss_rate",
                                num_cores=4)
        assert len(report.comparisons) == 2
        assert 0.0 <= report.mean_error <= 1.0
        assert -1.0 <= report.mean_correlation <= 1.0

    def test_format_table(self):
        kernels = [suite.make("vectoradd", "tiny")]
        report = run_experiment(kernels, [fast_config()], "l1_miss_rate",
                                num_cores=4)
        table = report.format_table()
        assert "vectoradd" in table
        assert "AVERAGE" in table

    def test_empty_report(self):
        report = run_experiment([], [fast_config()], "l1_miss_rate")
        assert report.mean_error == 0.0
        assert report.mean_correlation == 1.0

    def test_parallel_matches_serial(self):
        kernels = [suite.make("vectoradd", "tiny"), suite.make("kmeans", "tiny")]
        configs = [fast_config()]
        serial = run_experiment(kernels, configs, "l1_miss_rate",
                                num_cores=4, jobs=1)
        kernels = [suite.make("vectoradd", "tiny"), suite.make("kmeans", "tiny")]
        parallel = run_experiment(kernels, configs, "l1_miss_rate",
                                  num_cores=4, jobs=2)
        for a, b in zip(serial.comparisons, parallel.comparisons):
            assert a.benchmark == b.benchmark
            assert a.originals == pytest.approx(b.originals)
            assert a.proxies == pytest.approx(b.proxies)


class TestSeedStability:
    def test_clone_metrics_stable_across_seeds(self):
        """Different generation seeds give statistically equivalent clones
        (the profile, not the seed, determines behaviour)."""
        from repro.core.generator import ProxyGenerator
        from repro.memsim.simulator import simulate

        kernel = suite.make("kmeans", "tiny")
        pipeline = build_pipeline(kernel, num_cores=4, seed=1)
        config = fast_config()
        rates = []
        for seed in (11, 22, 33, 44):
            proxy = ProxyGenerator(pipeline.profile, seed=seed).generate(4)
            rates.append(simulate(proxy, config).l1_miss_rate)
        spread = max(rates) - min(rates)
        assert spread < 0.05
