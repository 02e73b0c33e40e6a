"""Tests for memory spaces: shared/texture/constant paths end to end."""

from __future__ import annotations

import pytest

from repro.core.generator import ProxyGenerator
from repro.core.profiler import GmapProfiler
from repro.gpu import memspace
from repro.gpu.executor import execute_kernel, kernel_warp_traces
from repro.gpu.memspace import (
    MemorySpace,
    bank_conflict_degree,
    region_bounds,
    shared_bank_of,
    space_of,
)
from repro.memsim.config import PAPER_BASELINE
from repro.memsim.hierarchy import MemoryHierarchy
from repro.memsim.simulator import simulate
from repro.workloads import suite
from repro.workloads.base import Layout


class TestSpaceTagging:
    def test_space_of_regions(self):
        assert space_of(0x1000_0000) is MemorySpace.GLOBAL
        assert space_of(memspace.SHARED_BASE) is MemorySpace.SHARED
        assert space_of(memspace.TEXTURE_BASE + 4) is MemorySpace.TEXTURE
        assert space_of(memspace.CONSTANT_BASE + 64) is MemorySpace.CONSTANT

    def test_region_bounds_cover_their_bases(self):
        for space in MemorySpace:
            lo, hi = region_bounds(space)
            assert lo < hi
            assert space_of(lo) is space or space is MemorySpace.GLOBAL

    def test_regions_disjoint(self):
        bounds = [region_bounds(s) for s in MemorySpace]
        for i, (lo_a, hi_a) in enumerate(bounds):
            for lo_b, hi_b in bounds[i + 1:]:
                assert hi_a <= lo_b or hi_b <= lo_a

    def test_layout_space_allocation(self):
        layout = Layout()
        g = layout.alloc("g", 64)
        s = layout.alloc("s", 64, "shared")
        t = layout.alloc("t", 64, "texture")
        c = layout.alloc("c", 64, "constant")
        assert space_of(g) is MemorySpace.GLOBAL
        assert space_of(s) is MemorySpace.SHARED
        assert space_of(t) is MemorySpace.TEXTURE
        assert space_of(c) is MemorySpace.CONSTANT

    def test_layout_invalid_space(self):
        with pytest.raises(ValueError):
            Layout().alloc("x", 64, "register")


class TestBankConflicts:
    def test_bank_of(self):
        assert shared_bank_of(0) == 0
        assert shared_bank_of(4) == 1
        assert shared_bank_of(32 * 4) == 0  # wraps at 32 banks

    def test_conflict_free_unit_stride(self):
        addresses = [lane * 4 for lane in range(32)]
        assert bank_conflict_degree(addresses) == 1

    def test_broadcast_is_free(self):
        assert bank_conflict_degree([64] * 32) == 1

    def test_stride_two_words_two_way_conflict(self):
        addresses = [lane * 8 for lane in range(32)]
        assert bank_conflict_degree(addresses) == 2

    def test_same_bank_full_serialisation(self):
        addresses = [lane * 32 * 4 for lane in range(32)]  # all bank 0
        assert bank_conflict_degree(addresses) == 32

    def test_empty(self):
        assert bank_conflict_degree([]) == 0


class TestFrontEndSerialisation:
    def test_conflicted_instruction_replays(self):
        """matmul's column reads of sB produce one record per conflict wave."""
        kernel = suite.make("matmul_shared", "tiny")
        traces = kernel_warp_traces(kernel)
        # sA staging stores (0xA20): unit-stride words -> degree 1.
        degrees = {}
        for pc, n in traces[0].instructions:
            if pc in (0xA20, 0xA28):
                degrees.setdefault(pc, set()).add(n)
        assert degrees[0xA20] == {1}
        assert degrees[0xA28] == {1}

    def test_shared_transactions_stay_in_space(self):
        kernel = suite.make("histogram_shared", "tiny")
        traces = kernel_warp_traces(kernel)
        shared_txns = [
            a for t in traces for pc, a, _, _ in t.transactions
            if pc in (0xC18, 0xC20)
        ]
        assert shared_txns
        assert all(space_of(a) is MemorySpace.SHARED for a in shared_txns)


class TestHierarchyRouting:
    def test_shared_fixed_latency(self):
        h = MemoryHierarchy(PAPER_BASELINE)
        latency = h.access(0, 0.0, 0x1, memspace.SHARED_BASE + 64, 4, False)
        assert latency == PAPER_BASELINE.shared_latency
        assert h.shared_accesses == 1
        assert h.l1s[0].stats.accesses == 0

    def test_constant_cache_hits_after_fill(self):
        h = MemoryHierarchy(PAPER_BASELINE)
        address = memspace.CONSTANT_BASE + 128
        cold = h.access(0, 0.0, 0x1, address, 4, False)
        warm = h.access(0, 10.0, 0x1, address, 4, False)
        assert warm < cold
        assert h.constant_stats().hits == 1

    def test_texture_miss_goes_to_l2(self):
        h = MemoryHierarchy(PAPER_BASELINE)
        h.access(0, 0.0, 0x1, memspace.TEXTURE_BASE + 256, 128, False)
        assert h.l2.stats.accesses >= 1
        assert h.texture_stats().misses == 1

    def test_spaces_disabled_fall_back_to_l1(self):
        config = PAPER_BASELINE.with_(texture_cache=None, constant_cache=None)
        h = MemoryHierarchy(config)
        h.access(0, 0.0, 0x1, memspace.TEXTURE_BASE + 256, 128, False)
        assert h.l1s[0].stats.accesses == 1

    def test_per_core_texture_caches_private(self):
        h = MemoryHierarchy(PAPER_BASELINE)
        address = memspace.TEXTURE_BASE
        h.access(0, 0.0, 0x1, address, 128, False)
        h.access(1, 10.0, 0x1, address, 128, False)
        assert h.texture_stats().misses == 2  # each core misses once


class TestMemspaceWorkloadsCloning:
    @pytest.mark.parametrize("name,tolerance", [
        ("matmul_shared", 0.05),
        ("histogram_shared", 0.12),
        ("convolution_texture", 0.05),
    ])
    def test_l1_cloned(self, name, tolerance):
        kernel = suite.make(name, "tiny")
        profile = GmapProfiler().profile(kernel)
        orig = simulate(execute_kernel(kernel, 15), PAPER_BASELINE)
        clone = simulate(
            ProxyGenerator(profile, seed=42).generate(15), PAPER_BASELINE
        )
        assert abs(orig.l1_miss_rate - clone.l1_miss_rate) < tolerance

    def test_shared_traffic_cloned(self):
        kernel = suite.make("matmul_shared", "tiny")
        profile = GmapProfiler().profile(kernel)
        orig = simulate(execute_kernel(kernel, 15), PAPER_BASELINE)
        clone = simulate(
            ProxyGenerator(profile, seed=42).generate(15), PAPER_BASELINE
        )
        assert clone.shared_accesses == orig.shared_accesses

    def test_constant_behaviour_cloned(self):
        kernel = suite.make("convolution_texture", "tiny")
        profile = GmapProfiler().profile(kernel)
        orig = simulate(execute_kernel(kernel, 15), PAPER_BASELINE)
        clone = simulate(
            ProxyGenerator(profile, seed=42).generate(15), PAPER_BASELINE
        )
        assert clone.constant.accesses == orig.constant.accesses
        assert abs(orig.constant.miss_rate - clone.constant.miss_rate) < 0.02

    def test_obfuscation_preserves_spaces(self):
        kernel = suite.make("matmul_shared", "tiny")
        profile = GmapProfiler().profile(kernel).obfuscated()
        for stats in profile.instructions.values():
            # Every remapped base stays in some window, and shared PCs stay
            # shared (0xA20..0xA38 are the staging/read instructions).
            if stats.pc in (0xA20, 0xA28, 0xA30, 0xA38):
                assert space_of(stats.base_address) is MemorySpace.SHARED

    def test_generated_walks_respect_bounds(self):
        kernel = suite.make("matmul_shared", "tiny")
        profile = GmapProfiler().profile(kernel)
        traces = ProxyGenerator(profile, seed=7).generate_warp_traces()
        shared_pcs = {0xA20, 0xA28, 0xA30, 0xA38}
        for trace in traces:
            for pc, address, _, _ in trace.transactions:
                if pc in shared_pcs:
                    assert space_of(address) is MemorySpace.SHARED
