"""Tests for the SIMT-aware simulation loop."""

from __future__ import annotations

import copy

import pytest

from repro.gpu.executor import CoreAssignment, WarpTrace, execute_kernel
from repro.gpu.instructions import pack
from repro.memsim.simulator import SimtSimulator, simulate, simulate_flat_trace
from repro.workloads import suite


def warp(wid, block, addresses, pc=0x10):
    return WarpTrace(
        warp_id=wid, block=block,
        transactions=[(pc, a, 128, 0) for a in addresses],
        instructions=[(pc, 1) for _ in addresses],
    )


def one_core(*warps) -> list:
    return [CoreAssignment(core_id=0, waves=[list(warps)])]


class TestBasicRuns:
    def test_all_requests_issue(self, small_config):
        assignment = one_core(
            warp(0, 0, [0, 128, 256]), warp(1, 0, [4096, 4224])
        )
        result = SimtSimulator(small_config).run(assignment)
        assert result.requests_issued == 5
        assert result.l1.accesses == 5

    def test_empty_assignment(self, small_config):
        result = SimtSimulator(small_config).run(
            [CoreAssignment(core_id=0, waves=[])]
        )
        assert result.requests_issued == 0
        assert result.cycles == 0.0

    def test_empty_warps_skipped(self, small_config):
        assignment = one_core(warp(0, 0, []), warp(1, 0, [0]))
        result = SimtSimulator(small_config).run(assignment)
        assert result.requests_issued == 1

    def test_max_requests_bound(self, small_config):
        assignment = one_core(warp(0, 0, [128 * i for i in range(100)]))
        result = SimtSimulator(small_config).run(assignment, max_requests=10)
        assert result.requests_issued == 10

    def test_waves_run_in_order(self, small_config):
        assignments = [CoreAssignment(core_id=0, waves=[
            [warp(0, 0, [0])], [warp(1, 2, [128])],
        ])]
        result = SimtSimulator(small_config).run(assignments)
        assert result.requests_issued == 2

    def test_cycles_advance(self, small_config):
        assignment = one_core(warp(0, 0, [i * 128 for i in range(10)]))
        result = SimtSimulator(small_config).run(assignment)
        assert result.cycles > 10

    def test_per_core_l1_stats_exposed(self, small_config):
        assignment = [
            CoreAssignment(core_id=0, waves=[[warp(0, 0, [0])]]),
            CoreAssignment(core_id=1, waves=[[warp(1, 1, [128])]]),
        ]
        result = SimtSimulator(small_config).run(assignment)
        assert len(result.per_core_l1) == small_config.num_cores
        assert result.per_core_l1[0].accesses == 1
        assert result.per_core_l1[1].accesses == 1


class TestResultSnapshots:
    def test_second_run_leaves_first_result_alone(self, small_config):
        """Results snapshot the counters of the persistent hierarchy."""
        def streams(base):
            return [
                CoreAssignment(core_id=core, waves=[[warp(
                    core, core,
                    [base + (core << 16) + 128 * i for i in range(8)],
                )]])
                for core in range(2)
            ]

        simulator = SimtSimulator(small_config)
        first = simulator.run(streams(0))
        frozen = first.to_dict()
        per_core = [stats.to_dict() for stats in first.per_core_l1]
        second = simulator.run(streams(1 << 24))  # all-new lines
        assert first.to_dict() == frozen
        assert [stats.to_dict() for stats in first.per_core_l1] == per_core
        # The hierarchy itself still accumulates across runs.
        assert second.l2.accesses == 2 * first.l2.accesses
        assert second.dram.reads == 2 * first.dram.reads
        assert second.per_core_l1[0].accesses == 2 * per_core[0]["accesses"]

    def test_flat_replay_result_is_a_snapshot(self, small_config):
        result = simulate_flat_trace([[(0x10, 0, 128, 0)]], small_config)
        assert result.l2 is not result.l1
        assert result.l2.accesses == 1


class TestLatencyFeedback:
    def test_missing_warp_is_delayed(self, small_config):
        """A warp's memory latency lets other warps run ahead (section 4.5)."""
        # Warp 0 misses everywhere (distinct lines); warp 1 replays one line.
        w0 = warp(0, 0, [1 << 20, 2 << 20, 3 << 20])
        w1 = warp(1, 0, [0, 0, 0])
        result = SimtSimulator(small_config).run(one_core(w0, w1))
        assert result.requests_issued == 6
        # Warp 1's replays hit after its first access.
        assert result.l1.hits >= 2

    def test_gto_has_higher_p_self_than_lrr(self, small_config):
        """GTO sticks to a warp while it keeps hitting; LRR rotates.

        Only hit-heavy workloads expose the difference: in the paper's
        model a missing warp is delayed past its next issue slot under
        *any* policy, so a 100%-miss stream schedules identically.
        """
        kernel = suite.make("aes", "tiny")  # ~3% L1 miss rate
        assignments = execute_kernel(kernel, small_config.num_cores)
        lrr = SimtSimulator(small_config.with_(scheduler="lrr")).run(assignments)
        assignments = execute_kernel(kernel, small_config.num_cores)
        gto = SimtSimulator(small_config.with_(scheduler="gto")).run(assignments)
        assert gto.measured_p_self > 0.5 > lrr.measured_p_self

    def test_schedpself_tracks_target(self, small_config):
        kernel = suite.make("aes", "tiny")
        assignments = execute_kernel(kernel, small_config.num_cores)
        config = small_config.with_(scheduler="schedpself", sched_p_self=0.9)
        result = SimtSimulator(config).run(assignments)
        assert result.measured_p_self > 0.5


class TestSharedMemorySystem:
    def test_cores_share_l2(self, small_config):
        assignments = [
            CoreAssignment(core_id=0, waves=[[warp(0, 0, [0x8000])]]),
            CoreAssignment(core_id=1, waves=[[warp(1, 1, [0x8000])]]),
        ]
        result = SimtSimulator(small_config).run(assignments)
        assert result.l2.accesses >= 2
        assert result.l2.hits >= 1 or result.l2.mshr_merges >= 1

    def test_dram_stats_populated(self, small_config, tiny_vectoradd):
        assignments = execute_kernel(tiny_vectoradd, small_config.num_cores)
        result = SimtSimulator(small_config).run(assignments)
        assert result.dram.requests > 0
        assert 0.0 <= result.dram.row_buffer_locality <= 1.0


class TestConvenienceWrappers:
    def test_simulate_equivalent_to_simulator(self, small_config, tiny_vectoradd):
        assignments = execute_kernel(tiny_vectoradd, small_config.num_cores)
        a = simulate(assignments, small_config)
        assignments = execute_kernel(tiny_vectoradd, small_config.num_cores)
        b = SimtSimulator(small_config).run(assignments)
        assert a.l1.miss_rate == pytest.approx(b.l1.miss_rate)

    def test_flat_trace_simulation(self, small_config):
        per_core = [
            [pack(1, 0), pack(1, 0), pack(1, 128)],
            [pack(2, 1 << 20)],
        ]
        result = simulate_flat_trace(per_core, small_config)
        assert result.requests_issued == 4
        assert result.l1.hits == 1

    def test_flat_trace_empty(self, small_config):
        result = simulate_flat_trace([[], []], small_config)
        assert result.requests_issued == 0


class TestResultMetrics:
    def test_metric_lookup(self, small_config, tiny_vectoradd):
        assignments = execute_kernel(tiny_vectoradd, small_config.num_cores)
        result = simulate(assignments, small_config)
        assert result.metric("l1_miss_rate") == result.l1.miss_rate
        assert result.metric("dram_rbl") == result.dram.row_buffer_locality
        with pytest.raises(ValueError, match="unknown metric"):
            result.metric("ipc")

    def test_to_dict(self, small_config, tiny_vectoradd):
        assignments = execute_kernel(tiny_vectoradd, small_config.num_cores)
        result = simulate(assignments, small_config)
        d = result.to_dict()
        assert d["l1"]["accesses"] == result.l1.accesses
        assert "row_buffer_locality" in d["dram"]

    def test_copy_is_deep(self, small_config, tiny_vectoradd):
        assignments = execute_kernel(tiny_vectoradd, small_config.num_cores)
        source = simulate(assignments, small_config)
        source.texture.accesses = 3
        source.constant.hits = 2
        source.shared_accesses = 5
        source.barriers_crossed = 7
        snapshot = copy.deepcopy(source)
        duplicate = source.copy()
        assert duplicate == source
        assert len(duplicate.per_core_l1) == small_config.num_cores
        for block in (duplicate.l1, duplicate.l2, duplicate.dram,
                      duplicate.texture, duplicate.constant,
                      *duplicate.per_core_l1):
            for name in type(block)._FIELDS:
                setattr(block, name, getattr(block, name) + 1)
            assert source == snapshot
        duplicate.per_core_l1.append(duplicate.l1)
        assert duplicate != source
        assert source == snapshot
