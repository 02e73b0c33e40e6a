"""End-to-end integration tests: the paper's headline claims in miniature.

These drive the complete pipeline (kernel model → profile → proxy →
simulation) and assert the cloning accuracy and qualitative behaviours the
paper reports, on small workload scales so the suite stays fast.
"""

from __future__ import annotations

import pytest

from repro.core.generator import ProxyGenerator
from repro.core.profiler import GmapProfiler
from repro.gpu.executor import execute_kernel
from repro.memsim.config import (
    PAPER_BASELINE,
    CacheConfig,
    DramConfig,
    PrefetcherConfig,
    SimConfig,
)
from repro.memsim.simulator import simulate
from repro.validation.harness import build_pipeline, simulate_pair
from repro.validation.metrics import pearson_correlation
from repro.workloads import suite


def _pair(name, config, scale="tiny", seed=42):
    pipeline = build_pipeline(
        suite.make(name, scale), num_cores=config.num_cores, seed=seed
    )
    return simulate_pair(pipeline, config)


@pytest.fixture(scope="module")
def baseline():
    return PAPER_BASELINE


class TestCloningAccuracy:
    """Proxy miss rates must track the originals closely (Figure 6a/6b)."""

    @pytest.mark.parametrize("name,tolerance,scale", [
        ("kmeans", 0.03, "tiny"),
        ("vectoradd", 0.03, "tiny"),
        ("cp", 0.03, "small"),  # tiny has too few iters to converge (Fig 8)
        ("srad", 0.03, "tiny"),
        ("heartwall", 0.05, "tiny"),
        ("aes", 0.05, "tiny"),
        ("scalarprod", 0.03, "tiny"),
        ("blackscholes", 0.03, "tiny"),
        ("nw", 0.05, "tiny"),
    ])
    def test_l1_miss_rate_cloned(self, baseline, name, tolerance, scale):
        pair = _pair(name, baseline, scale=scale)
        err = abs(pair.original.l1_miss_rate - pair.proxy.l1_miss_rate)
        assert err < tolerance, (
            f"{name}: original {pair.original.l1_miss_rate:.3f} vs "
            f"proxy {pair.proxy.l1_miss_rate:.3f}"
        )

    def test_l2_miss_rate_cloned_kmeans(self, baseline):
        pair = _pair("kmeans", baseline)
        err = abs(pair.original.l2_miss_rate - pair.proxy.l2_miss_rate)
        assert err < 0.05

    def test_request_counts_match(self, baseline):
        pair = _pair("srad", baseline)
        ratio = pair.proxy.requests_issued / pair.original.requests_issued
        assert 0.95 < ratio < 1.05


class TestConfigurationTracking:
    """The proxy must rank configurations like the original (correlation)."""

    def test_l1_size_sensitivity_tracked(self):
        """Growing the L1 lowers both miss rates in lockstep."""
        kernel = suite.make("lib", "tiny")
        pipeline = build_pipeline(kernel, num_cores=15, seed=7)
        originals, proxies = [], []
        for size_kb in (8, 32, 128):
            config = PAPER_BASELINE.with_(
                l1=CacheConfig(size=size_kb * 1024, assoc=4, line_size=128)
            )
            pair = simulate_pair(pipeline, config)
            originals.append(pair.original.l1_miss_rate)
            proxies.append(pair.proxy.l1_miss_rate)
        assert originals[0] >= originals[-1]
        assert proxies[0] >= proxies[-1]
        if len(set(originals)) > 1:
            assert pearson_correlation(originals, proxies) > 0.7

    def test_l2_size_sensitivity_tracked(self):
        kernel = suite.make("streamcluster", "tiny")
        pipeline = build_pipeline(kernel, num_cores=15, seed=7)
        originals, proxies = [], []
        for size_mb in (0.125, 0.5, 2):
            config = PAPER_BASELINE.with_(
                l2=CacheConfig(size=int(size_mb * 1024 * 1024), assoc=8,
                               line_size=128, hit_latency=30, banks=8)
            )
            pair = simulate_pair(pipeline, config)
            originals.append(pair.original.l2_miss_rate)
            proxies.append(pair.proxy.l2_miss_rate)
        assert originals[0] >= originals[-1]
        assert proxies[0] >= proxies[-1]


class TestPrefetchingBehaviour:
    """Figure 6c narrative: nw benefits from prefetching, hotspot doesn't."""

    def _miss_rates(self, name, prefetch):
        config = PAPER_BASELINE
        if prefetch:
            config = config.with_(
                l1_prefetcher=PrefetcherConfig(kind="stride", degree=4)
            )
        kernel = suite.make(name, "tiny")
        result = simulate(execute_kernel(kernel, config.num_cores), config)
        return result.l1_miss_rate

    def test_nw_benefits_from_prefetching(self):
        base = self._miss_rates("nw", prefetch=False)
        pref = self._miss_rates("nw", prefetch=True)
        assert pref < base

    def test_hotspot_insensitive_to_prefetching(self):
        base = self._miss_rates("hotspot", prefetch=False)
        pref = self._miss_rates("hotspot", prefetch=True)
        assert abs(base - pref) < 0.5 * max(base, 1e-9)

    def test_proxy_reproduces_prefetch_benefit(self):
        config = PAPER_BASELINE.with_(
            l1_prefetcher=PrefetcherConfig(kind="stride", degree=4)
        )
        pair = _pair("nw", config)
        err = abs(pair.original.l1_miss_rate - pair.proxy.l1_miss_rate)
        assert err < 0.1


class TestDramBehaviour:
    """Figure 7: the proxy reproduces DRAM-level metrics."""

    def test_rbl_cloned(self, baseline):
        pair = _pair("srad", baseline)
        err = abs(pair.original.dram.row_buffer_locality
                  - pair.proxy.dram.row_buffer_locality)
        assert err < 0.15

    def test_mapping_scheme_effect_tracked(self):
        kernel = suite.make("blackscholes", "tiny")
        pipeline = build_pipeline(kernel, num_cores=15, seed=3)
        originals, proxies = [], []
        for mapping in ("RoBaRaCoCh", "ChRaBaRoCo"):
            config = PAPER_BASELINE.with_(dram=DramConfig(mapping=mapping))
            pair = simulate_pair(pipeline, config)
            originals.append(pair.original.dram.row_buffer_locality)
            proxies.append(pair.proxy.dram.row_buffer_locality)
        # Proxy must agree with the original about which mapping wins.
        assert (originals[0] >= originals[1]) == (proxies[0] >= proxies[1])


class TestSchedulingPolicies:
    """Figure 6e: cloning works under both LRR and GTO."""

    @pytest.mark.parametrize("policy", ["lrr", "gto"])
    def test_policy_cloned(self, policy):
        config = PAPER_BASELINE.with_(scheduler=policy)
        pair = _pair("aes", config)
        err = abs(pair.original.l1_miss_rate - pair.proxy.l1_miss_rate)
        assert err < 0.08


class TestMiniaturization:
    """Figure 8: smaller clones simulate faster, accuracy degrades slowly."""

    def test_8x_clone_remains_accurate(self):
        kernel = suite.make("kmeans", "small")
        full = build_pipeline(kernel, num_cores=15, seed=5)
        small = build_pipeline(kernel, num_cores=15, seed=5, scale_factor=8.0)
        config = PAPER_BASELINE
        original = simulate(full.original_assignments, config)
        clone = simulate(small.proxy_assignments, config)
        err = abs(original.l1_miss_rate - clone.l1_miss_rate)
        assert err < 0.10  # "accuracy drops to ~90%" at 8x

    def test_clone_request_count_scales(self):
        kernel = suite.make("kmeans", "small")
        small = build_pipeline(kernel, num_cores=15, seed=5, scale_factor=8.0)
        full = build_pipeline(kernel, num_cores=15, seed=5)
        full_txns = sum(a.transaction_count for a in full.proxy_assignments)
        small_txns = sum(a.transaction_count for a in small.proxy_assignments)
        assert small_txns < full_txns / 6


class TestWorkingSetFidelity:
    """Configuration-free locality check: the clone's Mattson curve must
    hug the original's for every regular app."""

    @pytest.mark.parametrize("name", [
        "kmeans", "vectoradd", "srad", "cp", "heartwall", "blackscholes",
        "nw", "scalarprod", "lib", "fwt",
    ])
    def test_clone_working_set_curve(self, name):
        from repro.core.generator import ProxyGenerator
        from repro.gpu.executor import kernel_warp_traces
        from repro.validation.metrics import working_set_distance

        kernel = suite.make(name, "tiny")
        profile = GmapProfiler().profile(kernel)
        original = [
            a for t in kernel_warp_traces(kernel)
            for pc, a, _, _ in t.transactions if pc >= 0
        ]
        clone_traces = ProxyGenerator(profile, seed=21).generate_warp_traces()
        clone = [
            a for t in clone_traces
            for pc, a, _, _ in t.transactions if pc >= 0
        ]
        assert working_set_distance(original, clone) < 0.12


class TestThreadGranularityPipeline:
    """The paper-literal path: profile scalar threads, coalesce in Alg 2."""

    @pytest.mark.parametrize("name", ["vectoradd", "srad"])
    def test_thread_mode_clones_l1(self, name):
        kernel = suite.make(name, "tiny")
        profile = GmapProfiler(coalescing=False).profile(kernel)
        assert profile.unit == "thread"
        proxy = ProxyGenerator(profile, seed=17).generate(15)
        original = simulate(execute_kernel(kernel, 15), PAPER_BASELINE)
        clone = simulate(proxy, PAPER_BASELINE)
        assert abs(original.l1_miss_rate - clone.l1_miss_rate) < 0.08

    def test_warp_mode_beats_thread_mode_on_periodic_kernels(self):
        """Why the paper coalesces *before* the locality analysis: kmeans'
        34-long feature cycle is invisible to per-thread IID stride
        sampling (the wrap becomes a geometric, not periodic, event and
        lanes desynchronise), but survives warp-granularity profiling."""
        kernel = suite.make("kmeans", "tiny")
        original = simulate(execute_kernel(kernel, 15), PAPER_BASELINE)
        errors = {}
        for coalescing in (True, False):
            profile = GmapProfiler(coalescing=coalescing).profile(kernel)
            clone = simulate(
                ProxyGenerator(profile, seed=17).generate(15), PAPER_BASELINE
            )
            errors[coalescing] = abs(original.l1_miss_rate - clone.l1_miss_rate)
        assert errors[True] < 0.02       # warp mode: near-exact
        assert errors[False] > errors[True]  # thread mode visibly worse

    def test_thread_mode_request_counts_close(self):
        """Alg 2's explicit coalescing yields a similar transaction count
        to the original's front-end coalescing."""
        kernel = suite.make("vectoradd", "tiny")
        profile = GmapProfiler(coalescing=False).profile(kernel)
        proxy = ProxyGenerator(profile, seed=17).generate(15)
        original = simulate(execute_kernel(kernel, 15), PAPER_BASELINE)
        clone = simulate(proxy, PAPER_BASELINE)
        ratio = clone.requests_issued / original.requests_issued
        assert 0.8 < ratio < 1.3


class TestObfuscatedSharing:
    """Section 1 use case: the shared profile hides the original stream."""

    def test_obfuscated_profile_still_clones_performance(self):
        kernel = suite.make("cp", "small")
        profile = GmapProfiler().profile(kernel).obfuscated()
        proxy = ProxyGenerator(profile, seed=9).generate(15)
        config = PAPER_BASELINE
        original = simulate(execute_kernel(kernel, 15), config)
        clone = simulate(proxy, config)
        assert abs(original.l1_miss_rate - clone.l1_miss_rate) < 0.05
