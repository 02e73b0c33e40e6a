"""Tests for TB-level synchronization (paper section 4.5).

Barriers (``__syncthreads()``) flow through the whole pipeline: kernel
models emit ``SYNC_PC`` markers, the lockstep front end crosses them when
every lane arrives, the profiler keeps them in π sequences (with no memory
statistics), the generator replays them, and the simulator's warp queues
hold warps at them until the whole threadblock arrives.
"""

from __future__ import annotations

import pytest

from repro.core.generator import ProxyGenerator
from repro.core.coalescing import CoalescingModel
from repro.core.profiler import GmapProfiler
from repro.gpu.executor import (
    execute_kernel,
    kernel_warp_traces,
    lockstep_warp_trace,
)
from repro.gpu.hierarchy import LaunchConfig
from repro.gpu.instructions import SYNC_PC, is_sync, pack, sync_marker
from repro.memsim.simulator import SimtSimulator
from repro.workloads.base import Layout, RegularKernel, StridedInstr
from repro.workloads import suite


def make_sync_kernel(blocks=2, block_size=64, iters=8, sync_every=2):
    layout = Layout()
    layout.alloc("a", 1 << 22)
    layout.alloc("b", 1 << 22)
    instrs = [
        StridedInstr(pc=0x10, array="a", inter_stride=4, intra_stride=128),
        StridedInstr(pc=0x20, array="b", inter_stride=4, intra_stride=128),
    ]
    return RegularKernel(
        LaunchConfig(blocks, block_size), layout, instrs, iters=iters,
        sync_every=sync_every,
    )


class TestSyncMarkers:
    def test_marker_helpers(self):
        marker = sync_marker()
        assert is_sync(marker)
        assert not is_sync(pack(0x10, 0))
        assert marker[0] == SYNC_PC

    def test_kernel_emits_markers(self):
        kernel = make_sync_kernel(iters=8, sync_every=2)
        trace = kernel.trace_thread(0)
        syncs = sum(1 for a in trace if is_sync(a))
        assert syncs == 4

    def test_sync_every_validation(self):
        with pytest.raises(ValueError):
            make_sync_kernel(sync_every=-1)


class TestLockstepBarriers:
    def test_all_lanes_cross_together(self):
        lanes = [
            [pack(0x10, 4 * lane), sync_marker(), pack(0x20, 4 * lane)]
            for lane in range(4)
        ]
        trace = lockstep_warp_trace(lanes, CoalescingModel())
        pcs = [pc for pc, _ in trace.instructions]
        assert pcs == [0x10, SYNC_PC, 0x20]

    def test_sync_waits_for_slower_path(self):
        """A lane at the barrier must not run before the others arrive."""
        fast = [sync_marker(), pack(0x30, 0)]
        slow = [pack(0x10, 64), sync_marker(), pack(0x30, 4)]
        trace = lockstep_warp_trace([fast, slow], CoalescingModel())
        pcs = [pc for pc, _ in trace.instructions]
        assert pcs == [0x10, SYNC_PC, 0x30]

    def test_sync_transaction_record(self):
        lanes = [[sync_marker()]] * 2
        trace = lockstep_warp_trace(lanes, CoalescingModel())
        assert trace.transactions == [(SYNC_PC, 0, 0, 0)]


class TestProfilingWithBarriers:
    def test_pi_sequence_contains_sync(self):
        kernel = make_sync_kernel()
        profile = GmapProfiler().profile(kernel)
        assert SYNC_PC in profile.dominant_profile().sequence

    def test_no_instruction_stats_for_sync(self):
        kernel = make_sync_kernel()
        profile = GmapProfiler().profile(kernel)
        assert SYNC_PC not in profile.instructions

    def test_reuse_fraction_unpolluted_by_sync(self):
        """Barrier records must not count as touches of line 0."""
        with_sync = GmapProfiler().profile(make_sync_kernel(sync_every=1))
        without = GmapProfiler().profile(make_sync_kernel(sync_every=0))
        assert with_sync.dominant_profile().reuse_fraction == pytest.approx(
            without.dominant_profile().reuse_fraction, abs=0.02
        )


class TestGenerationWithBarriers:
    def test_clone_replays_sync_count(self):
        kernel = make_sync_kernel()
        profile = GmapProfiler().profile(kernel)
        clone_traces = ProxyGenerator(profile, seed=1).generate_warp_traces()
        original_traces = kernel_warp_traces(kernel)
        clone_syncs = sum(
            1 for t in clone_traces for pc, _ in t.instructions if pc == SYNC_PC
        )
        orig_syncs = sum(
            1 for t in original_traces for pc, _ in t.instructions if pc == SYNC_PC
        )
        assert clone_syncs == orig_syncs > 0


class TestSimulationWithBarriers:
    def test_barriers_crossed_counted(self, small_config):
        kernel = make_sync_kernel(iters=8, sync_every=2)
        assignments = execute_kernel(kernel, small_config.num_cores)
        result = SimtSimulator(small_config).run(assignments)
        # 2 blocks, each crossing 4 barriers.
        assert result.barriers_crossed == 8
        assert result.requests_issued == kernel.launch.total_warps * 16

    def test_barrier_enforces_block_ordering(self, small_config):
        """No warp may issue post-barrier work before its block syncs.

        With a barrier each iteration, the warps of a block can never be
        more than one iteration apart, which bounds how early the fast
        warp's later lines can appear; we verify via the barrier count and
        that the run completes (no deadlock).
        """
        kernel = make_sync_kernel(blocks=1, block_size=128, iters=6,
                                  sync_every=1)
        assignments = execute_kernel(kernel, small_config.num_cores)
        result = SimtSimulator(small_config).run(assignments)
        assert result.barriers_crossed == 6

    def test_original_vs_clone_accuracy_with_barriers(self, small_config):
        kernel = make_sync_kernel(blocks=4, block_size=256, iters=12,
                                  sync_every=3)
        profile = GmapProfiler().profile(kernel)
        orig = SimtSimulator(small_config).run(
            execute_kernel(kernel, small_config.num_cores)
        )
        clone = SimtSimulator(small_config).run(
            ProxyGenerator(profile, seed=2).generate(small_config.num_cores)
        )
        assert clone.barriers_crossed == orig.barriers_crossed
        assert abs(orig.l1_miss_rate - clone.l1_miss_rate) < 0.05

    def test_pathfinder_uses_barriers(self, small_config):
        kernel = suite.make("pathfinder", "tiny")
        result = SimtSimulator(small_config).run(
            execute_kernel(kernel, small_config.num_cores)
        )
        assert result.barriers_crossed > 0
