"""Tests for the G-MAP profiling phase."""

from __future__ import annotations

import pytest

from repro.core.distributions import reuse_class
from repro.core.profiler import (
    GmapProfiler,
    UnitStream,
    unit_streams_from_warp_traces,
)
from repro.gpu.executor import WarpTrace, kernel_warp_traces
from repro.workloads import suite


class TestProfilerConstruction:
    def test_reuse_semantics_validation(self):
        with pytest.raises(ValueError, match="reuse_semantics"):
            GmapProfiler(reuse_semantics="magic")

    def test_empty_units_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            GmapProfiler().profile_unit_streams([], "warp")


class TestWarpGranularityProfile:
    def test_metadata(self, tiny_kmeans, kmeans_profile):
        profile = kmeans_profile
        assert profile.name == "kmeans"
        assert profile.unit == "warp"
        assert profile.grid_dim == (2, 1, 1)
        assert profile.block_dim == (256, 1, 1)
        assert profile.segment_size == 128

    def test_single_pi_profile_without_divergence(self, kmeans_profile):
        """Section 4.1: uniform kernels collapse to one dominant π profile."""
        assert kmeans_profile.num_profiles == 1
        assert kmeans_profile.q == [1.0]

    def test_pi_sequence_matches_instruction_order(self, tiny_kmeans, kmeans_profile):
        traces = kernel_warp_traces(tiny_kmeans)
        expected = tuple(pc for pc, _ in traces[0].instructions)
        assert kmeans_profile.pi_profiles[0].sequence == expected

    def test_kmeans_inter_warp_stride(self, kmeans_profile):
        """Table 1: kmeans dominant inter-warp stride is 4352 bytes."""
        stride, freq = kmeans_profile.instructions[0xE8].inter_stride.dominant()
        assert stride == 4352
        assert freq > 0.9

    def test_kmeans_coalescing_degree(self, kmeans_profile):
        """136B-strided lanes span ~32 segments per warp instruction."""
        txns = kmeans_profile.instructions[0xE8].txns_per_access
        assert txns.mode() >= 30

    def test_kmeans_high_reuse(self, kmeans_profile):
        """Table 1 classifies kmeans reuse as high (>70%)."""
        assert reuse_class(kmeans_profile.pi_profiles[0].reuse_fraction) == "high"

    def test_vectoradd_inter_warp_stride(self, vectoradd_profile):
        """Unit-stride threads -> 128B inter-warp stride (Figure 4)."""
        for pc in (0x50, 0x58, 0x60):
            stride, freq = vectoradd_profile.instructions[pc].inter_stride.dominant()
            assert stride == 128
            assert freq == pytest.approx(1.0)

    def test_vectoradd_intra_stride_is_sweep(self, tiny_vectoradd, vectoradd_profile):
        sweep = tiny_vectoradd.launch.total_threads * 4
        stride, _ = vectoradd_profile.instructions[0x50].intra_stride.dominant()
        assert stride == sweep

    def test_vectoradd_store_flag(self, vectoradd_profile):
        assert vectoradd_profile.instructions[0x60].is_store
        assert not vectoradd_profile.instructions[0x50].is_store

    def test_srad_low_reuse(self):
        profile = GmapProfiler().profile(suite.make("srad", "tiny"))
        assert reuse_class(profile.pi_profiles[0].reuse_fraction) == "low"

    def test_total_transactions(self, tiny_kmeans, kmeans_profile):
        traces = kernel_warp_traces(tiny_kmeans)
        assert kmeans_profile.total_transactions == sum(len(t) for t in traces)

    def test_occupancy_full_without_divergence(self, kmeans_profile):
        assert kmeans_profile.avg_warp_occupancy == pytest.approx(1.0)

    def test_occupancy_reduced_by_divergence(self, tiny_bfs):
        """bfs's tid%4 predicate masks a quarter of the lanes on the
        expansion path: occupancy sits well below 1."""
        profile = GmapProfiler().profile(tiny_bfs)
        assert profile.avg_warp_occupancy < 0.95

    def test_occupancy_survives_serialisation(self, tiny_bfs):
        from repro.core.profile import GmapProfile
        profile = GmapProfiler().profile(tiny_bfs)
        restored = GmapProfile.from_dict(profile.to_dict())
        assert restored.avg_warp_occupancy == pytest.approx(
            profile.avg_warp_occupancy
        )

    def test_divergent_kernel_multiple_thread_profiles(self, tiny_bfs):
        """BFS diverges per thread (tid%4), visible at thread granularity."""
        profile = GmapProfiler(coalescing=False).profile(tiny_bfs)
        assert profile.num_profiles >= 2
        assert sum(profile.q) == pytest.approx(1.0)

    def test_intra_warp_divergence_collapses_at_warp_level(self, tiny_bfs):
        """Lockstep masking makes every warp's merged sequence identical."""
        profile = GmapProfiler().profile(tiny_bfs)
        assert profile.num_profiles == 1

    def test_warp_level_divergence_clusters(self):
        """Warps taking different paths yield multiple π profiles (Fig 3b)."""
        streams = []
        for w in range(8):
            stream = UnitStream(w)
            pcs = [1, 2, 3] * 6 if w % 2 else [1, 3] * 6
            for i, pc in enumerate(pcs):
                stream.pcs.append(pc)
                stream.addrs.append(128 * (w * 64 + i))
                stream.txns.append(1)
                stream.stores.append(0)
            streams.append(stream)
        profile = GmapProfiler().profile_unit_streams(streams, "warp")
        assert profile.num_profiles == 2
        assert sorted(profile.q) == [0.5, 0.5]

    def test_dynamic_counts(self, tiny_vectoradd, vectoradd_profile):
        launch = tiny_vectoradd.launch
        # Every warp executes each load once per iteration.
        iters = tiny_vectoradd.iters
        expected = launch.total_warps * iters
        assert vectoradd_profile.instructions[0x50].dynamic_count == expected


class TestThreadGranularityProfile:
    def test_unit_is_thread(self, tiny_vectoradd):
        profile = GmapProfiler(coalescing=False).profile(tiny_vectoradd)
        assert profile.unit == "thread"

    def test_inter_thread_stride_is_elem_size(self, tiny_vectoradd):
        """Without coalescing, adjacent threads differ by 4 bytes."""
        profile = GmapProfiler(coalescing=False).profile(tiny_vectoradd)
        stride, freq = profile.instructions[0x50].inter_stride.dominant()
        assert stride == 4
        assert freq > 0.99

    def test_txns_degenerate_at_one(self, tiny_vectoradd):
        profile = GmapProfiler(coalescing=False).profile(tiny_vectoradd)
        assert profile.instructions[0x50].txns_per_access.support() == [1]


class TestReuseSemantics:
    def test_lookback_vs_stack_on_unique_interleave(self):
        """With distinct intervening lines the two semantics agree."""
        stream = UnitStream(0)
        # Lines: A B C A -> lookback of final A = 2, stack distance = 2.
        for pc, addr in [(1, 0), (1, 128), (1, 256), (1, 0)]:
            stream.pcs.append(pc)
            stream.addrs.append(addr)
            stream.txns.append(1)
            stream.stores.append(0)
        look = GmapProfiler(reuse_semantics="lookback").profile_unit_streams(
            [stream], "warp")
        stack = GmapProfiler(reuse_semantics="stack").profile_unit_streams(
            [stream], "warp")
        assert look.pi_profiles[0].reuse.items() == [(2, 1)]
        assert stack.pi_profiles[0].reuse.items() == [(2, 1)]

    def test_lookback_counts_repeats_stack_does_not(self):
        stream = UnitStream(0)
        # Lines: A B B A -> lookback of final A = 2, stack distance = 1.
        for addr in [0, 128, 128, 0]:
            stream.pcs.append(1)
            stream.addrs.append(addr)
            stream.txns.append(1)
            stream.stores.append(0)
        look = GmapProfiler(reuse_semantics="lookback").profile_unit_streams(
            [stream], "warp")
        stack = GmapProfiler(reuse_semantics="stack").profile_unit_streams(
            [stream], "warp")
        assert look.pi_profiles[0].reuse.count(2) == 1
        assert stack.pi_profiles[0].reuse.count(1) == 1

    def test_reuse_fraction_agrees_between_semantics(self, tiny_kmeans):
        """"lookback" counts sibling-transaction overlap in the fraction
        (Figure 5 is over all cacheline accesses); "stack" is instance
        level.  For kmeans — dense windows revisited wholesale — both land
        firmly in the high class."""
        look = GmapProfiler(reuse_semantics="lookback").profile(tiny_kmeans)
        stack = GmapProfiler(reuse_semantics="stack").profile(tiny_kmeans)
        assert look.pi_profiles[0].reuse_fraction > 0.7
        assert stack.pi_profiles[0].reuse_fraction > 0.7


class TestExternalTraceAdapter:
    def test_unit_streams_from_warp_traces(self):
        trace = WarpTrace(warp_id=0, block=0)
        trace.transactions = [(0x10, 0, 128, 0), (0x10, 128, 128, 0),
                              (0x20, 4096, 128, 1)]
        trace.instructions = [(0x10, 2), (0x20, 1)]
        units = unit_streams_from_warp_traces([trace])
        assert len(units) == 1
        assert units[0].pcs == [0x10, 0x20]
        assert units[0].addrs == [0, 4096]
        assert units[0].txns == [2, 1]
        assert units[0].stores == [0, 1]

    def test_profile_from_external_traces(self):
        traces = []
        for w in range(4):
            t = WarpTrace(warp_id=w, block=0)
            t.transactions = [(0x10, 128 * w, 128, 0)]
            t.instructions = [(0x10, 1)]
            traces.append(t)
        units = unit_streams_from_warp_traces(traces)
        profile = GmapProfiler().profile_unit_streams(units, "warp", name="ext")
        assert profile.instructions[0x10].inter_stride.dominant()[0] == 128
