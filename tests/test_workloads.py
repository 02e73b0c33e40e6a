"""Tests for the synthetic GPGPU workload suite."""

from __future__ import annotations

import pytest

from repro.core.coalescing import CoalescingModel
from repro.gpu.executor import kernel_warp_traces
from repro.gpu.hierarchy import LaunchConfig
from repro.workloads import suite
from repro.workloads.base import (
    KernelModel,
    Layout,
    RegularKernel,
    StridedInstr,
    WorkloadScale,
)


class TestLayout:
    def test_disjoint_regions(self):
        layout = Layout()
        a = layout.alloc("a", 1000)
        b = layout.alloc("b", 1000)
        assert b >= a + 1000
        assert layout.base("a") == a
        assert layout.region("b") == (b, 1000)

    def test_alignment(self):
        layout = Layout()
        layout.alloc("a", 17)
        b = layout.alloc("b", 1)
        assert b % 4096 == 0

    def test_double_alloc_rejected(self):
        layout = Layout()
        layout.alloc("a", 8)
        with pytest.raises(ValueError, match="allocated twice"):
            layout.alloc("a", 8)

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            Layout().alloc("x", 0)

    def test_footprint(self):
        layout = Layout()
        layout.alloc("a", 4096)
        layout.alloc("b", 1)
        assert layout.footprint == 2 * 4096


class TestStridedInstr:
    def test_address_formula(self):
        instr = StridedInstr(pc=0x10, array="a", inter_stride=4,
                             intra_stride=128, reuse_period=4, phase=8)
        # tid 3, iteration 5: base + 3*4 + (5%4)*128 + 8
        assert instr.address(0x1000, 3, 5) == 0x1000 + 12 + 128 + 8

    def test_validation(self):
        with pytest.raises(ValueError):
            StridedInstr(pc=0, array="a", inter_stride=4, every=0)
        with pytest.raises(ValueError):
            StridedInstr(pc=0, array="a", inter_stride=4, reuse_period=0)


class TestRegularKernel:
    def _make(self, divergent=False):
        layout = Layout()
        layout.alloc("a", 1 << 20)
        layout.alloc("d", 1 << 20)
        instrs = [StridedInstr(pc=0x10, array="a", inter_stride=4, intra_stride=128)]
        div = [StridedInstr(pc=0x20, array="d", inter_stride=4)] if divergent else []
        return RegularKernel(
            LaunchConfig(1, 64), layout, instrs, iters=4,
            divergent_instrs=div, divergent_modulo=2 if divergent else 0,
        )

    def test_trace_length(self):
        kernel = self._make()
        assert len(kernel.trace_thread(0)) == 4

    def test_every_gates_frequency(self):
        layout = Layout()
        layout.alloc("a", 1 << 20)
        kernel = RegularKernel(
            LaunchConfig(1, 32), layout,
            [StridedInstr(pc=1, array="a", inter_stride=4),
             StridedInstr(pc=2, array="a", inter_stride=4, every=4)],
            iters=8,
        )
        pcs = [pc for pc, *_ in kernel.trace_thread(0)]
        assert pcs.count(1) == 8
        assert pcs.count(2) == 2

    def test_divergent_threads_have_extra_pcs(self):
        kernel = self._make(divergent=True)
        pcs_even = {pc for pc, *_ in kernel.trace_thread(0)}
        pcs_odd = {pc for pc, *_ in kernel.trace_thread(1)}
        assert 0x20 in pcs_even
        assert 0x20 not in pcs_odd

    def test_static_pcs(self):
        assert self._make(divergent=True).static_pcs() == [0x10, 0x20]

    def test_validation(self):
        layout = Layout()
        layout.alloc("a", 64)
        instr = StridedInstr(pc=1, array="a", inter_stride=4)
        with pytest.raises(ValueError):
            RegularKernel(LaunchConfig(1, 32), layout, [instr], iters=0)
        with pytest.raises(ValueError):
            RegularKernel(LaunchConfig(1, 32), layout, [], iters=1)
        with pytest.raises(ValueError):
            RegularKernel(LaunchConfig(1, 32), layout, [instr], iters=1,
                          divergent_instrs=[instr], divergent_modulo=1)


class TestWorkloadScale:
    def test_presets(self):
        assert WorkloadScale.preset("tiny").blocks == 2
        assert WorkloadScale.preset("default").blocks == 8

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown scale"):
            WorkloadScale.preset("huge")

    def test_iters_scaling(self):
        assert WorkloadScale.preset("small").iters(64) == 32
        assert WorkloadScale(blocks=1, iters_factor=0.001).iters(10) == 1


class TestSuiteRegistry:
    def test_paper_suite_has_18(self):
        assert len(suite.PAPER_SUITE) == 18
        assert len(set(suite.PAPER_SUITE)) == 18

    def test_table1_suite_row_order(self):
        assert list(suite.TABLE1_SUITE) == [
            "heartwall", "backprop", "kmeans", "srad", "scalarprod", "cp",
            "blackscholes", "lud", "lib", "fwt",
        ]

    def test_all_models_instantiate(self):
        for name in suite.available():
            kernel = suite.make(name, scale="tiny")
            assert isinstance(kernel, KernelModel)
            assert kernel.name == name

    def test_unknown_benchmark(self):
        with pytest.raises(ValueError, match="unknown benchmark"):
            suite.make("doom")

    def test_register_duplicate_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            suite.register("kmeans", lambda s: None)

    def test_register_new(self):
        name = "test_custom_kernel"

        def factory(scale):
            kernel = suite.make("vectoradd", scale)
            kernel.name = name  # keep the registry invariant make(n).name == n
            return kernel

        if name not in suite.available():
            suite.register(name, factory)
        kernel = suite.make(name, "tiny")
        assert kernel.name == name

    def test_explicit_scale_object(self):
        kernel = suite.make("kmeans", WorkloadScale(blocks=1, iters_factor=0.2))
        assert kernel.launch.num_blocks == 1


class TestWorkloadBehaviour:
    """Structural claims each model must satisfy (Table 1 semantics)."""

    def test_traces_deterministic(self):
        for name in ("kmeans", "hotspot", "bfs", "aes"):
            k1 = suite.make(name, "tiny")
            k2 = suite.make(name, "tiny")
            assert k1.trace_thread(5) == k2.trace_thread(5)

    def test_every_thread_yields_accesses(self):
        for name in suite.PAPER_SUITE:
            kernel = suite.make(name, "tiny")
            assert kernel.trace_thread(0)
            assert kernel.trace_thread(kernel.total_threads - 1)

    def test_kmeans_inter_thread_stride(self):
        """Table 1: kmeans point reads stride 136B/thread (4352B/warp)."""
        kernel = suite.make("kmeans", "tiny")
        a0 = next(a for pc, a, *_ in kernel.thread_program(0) if pc == 0xE8)
        a1 = next(a for pc, a, *_ in kernel.thread_program(1) if pc == 0xE8)
        assert a1 - a0 == 136

    def test_kmeans_single_dominant_pc(self):
        kernel = suite.make("kmeans", "tiny")
        pcs = [pc for pc, *_ in kernel.thread_program(3)]
        assert pcs.count(0xE8) / len(pcs) > 0.95  # "~100%" in Table 1

    def test_srad_strides(self):
        """Table 1: srad threads stride 512B apart, walk ~-8K per iter
        (65 lines — line-coprime with the lane spacing, see the model)."""
        kernel = suite.make("srad", "tiny")
        t0 = [a for pc, a, *_ in kernel.thread_program(0) if pc == 0x250]
        t1 = [a for pc, a, *_ in kernel.thread_program(1) if pc == 0x250]
        assert t1[0] - t0[0] == 512
        assert t0[1] - t0[0] == -8320

    def test_heartwall_dominant_frequencies(self):
        kernel = suite.make("heartwall", "small")
        pcs = [pc for pc, *_ in kernel.thread_program(0)]
        freq_0x900 = pcs.count(0x900) / len(pcs)
        assert freq_0x900 > 0.75  # Table 1: 81%

    def test_bfs_divergent_profiles(self):
        """Non-expanding threads (tid%4==0) run a shorter path."""
        kernel = suite.make("bfs", "tiny")
        short = kernel.trace_thread(0)
        long = kernel.trace_thread(1)
        assert len(long) > len(short)

    def test_blackscholes_store_instructions(self):
        kernel = suite.make("blackscholes", "tiny")
        stores = {pc for pc, _, _, st in kernel.thread_program(0) if st}
        assert stores == {0x108, 0x110}

    def test_vectoradd_coalesces_perfectly(self):
        """Figure 4: unit-stride warps produce one transaction per instr."""
        kernel = suite.make("vectoradd", "tiny")
        traces = kernel_warp_traces(kernel)
        w0 = traces[0]
        assert all(n == 1 for _, n in w0.instructions)

    def test_hotspot_has_no_dominant_stride(self):
        """Paper section 5: hotspot lacks dominant stride patterns."""
        kernel = suite.make("hotspot", "small")
        addrs = [a for pc, a, *_ in kernel.thread_program(9) if pc == 0x610]
        strides = [b - a for a, b in zip(addrs, addrs[1:])]
        from collections import Counter
        top = Counter(strides).most_common(1)[0][1]
        assert top / len(strides) < 0.5

    def test_aes_ttable_footprint_small(self):
        """AES T-table reads stay within the 4KB table region."""
        kernel = suite.make("aes", "tiny")
        table_pcs = {0x818, 0x820, 0x828, 0x830}
        addrs = [a for pc, a, *_ in kernel.thread_program(2) if pc in table_pcs]
        assert addrs
        assert max(addrs) - min(addrs) < 4096

    def test_sortingnetworks_power_of_two_strides(self):
        kernel = suite.make("sortingnetworks", "tiny")
        partner = [a for pc, a, *_ in kernel.thread_program(0) if pc == 0x338]
        own = [a for pc, a, *_ in kernel.thread_program(0) if pc == 0x330]
        diffs = {abs(p - o) for p, o in zip(partner, own)}
        assert all(d & (d - 1) == 0 for d in diffs)  # powers of two

    def test_reduction_tree_levels_diverge(self):
        """Each reduction level halves the active threads."""
        kernel = suite.make("reduction", "tiny")
        t0 = kernel.trace_thread(0)      # active at every level
        t1 = kernel.trace_thread(1)      # only the leaf loads
        assert len(t0) > len(t1)

    def test_reduction_warp_level_pi_divergence(self):
        """Whole warps drop out at upper levels: multiple warp π profiles."""
        from repro.core.profiler import GmapProfiler
        profile = GmapProfiler().profile(suite.make("reduction", "tiny"))
        assert profile.num_profiles >= 2

    def test_spmv_row_lengths_powerlaw(self):
        kernel = suite.make("spmv_csr", "tiny")
        lengths = [kernel.row_length(tid) for tid in range(512)]
        assert min(lengths) >= 1
        assert max(lengths) > min(lengths)
        # Head-heavy: most rows short.
        assert sum(1 for n in lengths if n <= 2) > len(lengths) / 3

    def test_transpose_store_anticoalesced(self):
        """The transposed store scatters its lanes a column apart."""
        from repro.gpu.executor import kernel_warp_traces
        kernel = suite.make("transpose", "tiny")
        trace = kernel_warp_traces(kernel)[0]
        store_degrees = [n for pc, n in trace.instructions if pc == 0xF18]
        load_degrees = [n for pc, n in trace.instructions if pc == 0xF10]
        assert all(n == 32 for n in store_degrees)
        assert all(n == 1 for n in load_degrees)

    def test_gaussian_divergence_grows(self):
        """Eliminated rows drop out: later steps have fewer active lanes."""
        kernel = suite.make("gaussian", "tiny")
        profile_occupancy = __import__("repro.core.profiler",
                                       fromlist=["GmapProfiler"])
        profile = profile_occupancy.GmapProfiler().profile(kernel)
        assert profile.avg_warp_occupancy < 0.95

    def test_pointer_chase_is_dependent_chain(self):
        """Each hop's address is a function of the previous node."""
        kernel = suite.make("pointer_chase", "tiny")
        addrs = [a for pc, a, *_ in kernel.thread_program(3) if pc == 0xA50]
        strides = {b - a for a, b in zip(addrs, addrs[1:])}
        assert len(strides) > len(addrs) // 2  # no dominant stride at all
        # Deterministic: the same chain reproduces.
        addrs2 = [a for pc, a, *_ in kernel.thread_program(3) if pc == 0xA50]
        assert addrs == addrs2

    def test_stencil3d_three_stride_scales(self):
        kernel = suite.make("stencil3d", "tiny")
        trace = kernel.trace_thread(0)
        centre = trace[0][1]
        offsets = {a - centre for pc, a, *_ in trace[:7]}
        assert {0, -4, 4, -256, 256, -16384, 16384} == offsets

    def test_lib_frequencies(self):
        """Table 1: LIB's two hot PCs carry ~46% each, third ~4%."""
        kernel = suite.make("lib", "small")
        pcs = [pc for pc, *_ in kernel.thread_program(0)]
        total = len(pcs)
        assert pcs.count(0x1C68) / total == pytest.approx(0.48, abs=0.05)
        assert pcs.count(0x1B40) / total == pytest.approx(0.04, abs=0.03)
