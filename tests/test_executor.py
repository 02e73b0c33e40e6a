"""Tests for the kernel execution front end (lockstep + placement)."""

from __future__ import annotations

import pytest

from repro.core.coalescing import CoalescingModel
from repro.gpu.executor import (
    WarpTrace,
    assign_warps_to_cores,
    build_warp_traces,
    collect_thread_traces,
    execute_kernel,
    kernel_warp_traces,
    lockstep_warp_trace,
)
from repro.gpu.hierarchy import LaunchConfig
from repro.gpu.instructions import pack
from repro.workloads import suite


class TestLockstepWarpTrace:
    def test_uniform_lanes_single_instruction(self):
        lanes = [[pack(0x10, 4 * lane)] for lane in range(32)]
        trace = lockstep_warp_trace(lanes, CoalescingModel())
        assert trace.instructions == [(0x10, 1)]
        assert len(trace.transactions) == 1

    def test_instruction_order_preserved(self):
        lanes = [[pack(0x10, 0), pack(0x20, 128), pack(0x10, 256)]] * 4
        trace = lockstep_warp_trace(lanes, CoalescingModel())
        assert [pc for pc, _ in trace.instructions] == [0x10, 0x20, 0x10]

    def test_structured_divergence_serialises(self):
        """Lanes on different paths issue as separate instructions."""
        taken = [pack(0xA, 0), pack(0xC, 512)]
        not_taken = [pack(0xB, 256), pack(0xC, 512)]
        lanes = [taken if lane % 2 == 0 else not_taken for lane in range(4)]
        trace = lockstep_warp_trace(lanes, CoalescingModel())
        pcs = [pc for pc, _ in trace.instructions]
        # Path A (0xA) then path B (0xB), reconverging at 0xC.
        assert pcs == [0xA, 0xB, 0xC]
        reconverged = trace.instructions[2]
        assert reconverged == (0xC, 1)

    def test_unequal_length_lanes(self):
        lanes = [[pack(1, 0), pack(2, 128)], [pack(1, 4)]]
        trace = lockstep_warp_trace(lanes, CoalescingModel())
        assert [pc for pc, _ in trace.instructions] == [1, 2]

    def test_empty_lanes(self):
        trace = lockstep_warp_trace([[], []], CoalescingModel())
        assert trace.transactions == []
        assert trace.instructions == []

    def test_store_flag_merged(self):
        lanes = [[pack(1, 0, 4, True)], [pack(1, 4, 4, False)]]
        trace = lockstep_warp_trace(lanes, CoalescingModel())
        assert trace.transactions[0][3] == 1

    def test_transaction_counts_match_instructions(self):
        kernel = suite.make("kmeans", "tiny")
        for trace in kernel_warp_traces(kernel)[:4]:
            assert sum(n for _, n in trace.instructions) == len(trace.transactions)


class TestBuildWarpTraces:
    def test_one_trace_per_warp(self, tiny_vectoradd):
        traces = build_warp_traces(
            tiny_vectoradd.launch, collect_thread_traces(tiny_vectoradd))
        assert len(traces) == tiny_vectoradd.launch.total_warps
        assert [t.warp_id for t in traces] == list(range(len(traces)))

    def test_blocks_annotated(self, tiny_vectoradd):
        launch = tiny_vectoradd.launch
        traces = build_warp_traces(
            launch, collect_thread_traces(tiny_vectoradd))
        for trace in traces:
            assert trace.block == launch.block_of_warp(trace.warp_id)

    def test_reuses_precollected_thread_traces(self, tiny_vectoradd):
        threads = collect_thread_traces(tiny_vectoradd)
        a = build_warp_traces(tiny_vectoradd.launch, threads)
        b = kernel_warp_traces(tiny_vectoradd)
        assert [t.transactions for t in a] == [t.transactions for t in b]


class TestAssignment:
    def _traces(self, launch):
        return [
            WarpTrace(warp_id=w, block=launch.block_of_warp(w),
                      transactions=[pack(1, 128 * w)], instructions=[(1, 1)])
            for w in launch.iter_warps()
        ]

    def test_round_robin_blocks(self):
        launch = LaunchConfig(grid_dim=4, block_dim=64)
        assignments = assign_warps_to_cores(launch, self._traces(launch), num_cores=2)
        blocks_core0 = {t.block for wave in assignments[0].waves for t in wave}
        blocks_core1 = {t.block for wave in assignments[1].waves for t in wave}
        assert blocks_core0 == {0, 2}
        assert blocks_core1 == {1, 3}

    def test_waves_bound_residency(self):
        launch = LaunchConfig(grid_dim=6, block_dim=32)
        assignments = assign_warps_to_cores(
            launch, self._traces(launch), num_cores=2, max_blocks_per_core=2
        )
        assert len(assignments[0].waves) == 2  # 3 blocks / 2 per wave
        assert assignments[0].warp_count == 3

    def test_every_warp_assigned_once(self):
        launch = LaunchConfig(grid_dim=5, block_dim=96)
        assignments = assign_warps_to_cores(launch, self._traces(launch), 3)
        seen = [
            t.warp_id for a in assignments for wave in a.waves for t in wave
        ]
        assert sorted(seen) == list(range(launch.total_warps))

    def test_trace_count_mismatch_rejected(self):
        launch = LaunchConfig(grid_dim=2, block_dim=64)
        with pytest.raises(ValueError, match="expected"):
            assign_warps_to_cores(launch, self._traces(launch)[:-1], 2)

    def test_transaction_count_property(self):
        launch = LaunchConfig(grid_dim=2, block_dim=64)
        assignments = assign_warps_to_cores(launch, self._traces(launch), 1)
        assert assignments[0].transaction_count == launch.total_warps


class TestExecuteKernel:
    def test_end_to_end_counts(self, tiny_kmeans):
        assignments = execute_kernel(tiny_kmeans, num_cores=4)
        assert len(assignments) == 4
        total_txns = sum(a.transaction_count for a in assignments)
        traces = kernel_warp_traces(tiny_kmeans)
        assert total_txns == sum(len(t) for t in traces)

    def test_more_cores_than_blocks(self, tiny_kmeans):
        assignments = execute_kernel(tiny_kmeans, num_cores=15)
        active = [a for a in assignments if a.warp_count]
        assert len(active) == tiny_kmeans.launch.num_blocks
