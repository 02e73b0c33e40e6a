"""Tests for warp scheduling policies and the per-core warp queue."""

from __future__ import annotations

import pytest

from repro.gpu.scheduler import (
    GtoScheduler,
    LrrScheduler,
    SchedPselfScheduler,
    TwoLevelScheduler,
    make_scheduler,
    measure_p_self,
)
from repro.gpu.executor import CoreAssignment, WarpTrace
from repro.gpu.instructions import pack
from repro.memsim import simulator as simulator_module
from repro.memsim.config import CacheConfig, SimConfig
from repro.memsim.hierarchy import MemoryHierarchy
from repro.memsim.simulator import SimtSimulator


class TestLrr:
    def test_starts_with_first(self):
        assert LrrScheduler().select([3, 5, 9], last=None) == 3

    def test_advances_past_last(self):
        assert LrrScheduler().select([1, 4, 7], last=4) == 7

    def test_wraps_around(self):
        assert LrrScheduler().select([1, 4, 7], last=7) == 1

    def test_last_not_in_ready(self):
        assert LrrScheduler().select([2, 6], last=4) == 6

    def test_full_rotation_visits_everyone(self):
        sched = LrrScheduler()
        ready = [0, 1, 2, 3]
        last = None
        seen = []
        for _ in range(8):
            last = sched.select(ready, last)
            seen.append(last)
        assert seen == [0, 1, 2, 3, 0, 1, 2, 3]


class TestGto:
    def test_greedy_sticks_to_last(self):
        assert GtoScheduler().select([1, 4, 7], last=4) == 4

    def test_falls_back_to_oldest(self):
        assert GtoScheduler().select([2, 5], last=9) == 2

    def test_initial_pick_oldest(self):
        assert GtoScheduler().select([3, 8], last=None) == 3


class TestSchedPself:
    def test_validation(self):
        with pytest.raises(ValueError):
            SchedPselfScheduler(p_self=1.5)

    def test_p_one_always_sticks(self):
        sched = SchedPselfScheduler(p_self=1.0, seed=3)
        assert all(sched.select([1, 2, 3], last=2) == 2 for _ in range(20))

    def test_p_zero_behaves_like_lrr(self):
        sched = SchedPselfScheduler(p_self=0.0, seed=3)
        assert sched.select([1, 2, 3], last=2) == 3

    def test_intermediate_probability(self):
        sched = SchedPselfScheduler(p_self=0.7, seed=11)
        same = sum(1 for _ in range(2000) if sched.select([1, 2], last=1) == 1)
        assert 0.62 < same / 2000 < 0.78

    def test_clone_is_independent_and_reproducible(self):
        a = SchedPselfScheduler(p_self=0.5, seed=7)
        b = a.clone()
        picks_a = [a.select([1, 2], 1) for _ in range(50)]
        picks_b = [b.select([1, 2], 1) for _ in range(50)]
        assert picks_a == picks_b


class TestTwoLevel:
    def test_group_size_validation(self):
        with pytest.raises(ValueError):
            TwoLevelScheduler(group_size=0)

    def test_stays_within_active_group(self):
        sched = TwoLevelScheduler(group_size=4)
        ready = [0, 1, 2, 3, 4, 5, 6, 7]  # groups {0, 1}
        picks = []
        last = None
        for _ in range(8):
            last = sched.select(ready, last)
            picks.append(last)
        # Only group 0 issues while all of it stays ready.
        assert set(picks) == {0, 1, 2, 3}

    def test_switches_when_group_stalls(self):
        sched = TwoLevelScheduler(group_size=4)
        sched.select([0, 1, 2, 3, 4, 5], None)  # activates group 0
        pick = sched.select([4, 5], 0)          # group 0 all stalled
        assert pick in (4, 5)

    def test_wraps_to_first_group(self):
        sched = TwoLevelScheduler(group_size=4)
        sched.select([4, 5], None)   # activates group 1
        assert sched.select([0, 1], 5) in (0, 1)

    def test_clone_preserves_group_size(self):
        assert TwoLevelScheduler(group_size=16).clone().group_size == 16

    def test_end_to_end_simulation(self, small_config):
        from repro.gpu.executor import execute_kernel
        from repro.workloads import suite
        kernel = suite.make("aes", "tiny")
        assignments = execute_kernel(kernel, small_config.num_cores)
        result = SimtSimulator(
            small_config.with_(scheduler="twolevel")
        ).run(assignments)
        assert result.requests_issued > 0
        # Intra-group round robin keeps SchedP_self low, like LRR.
        assert result.measured_p_self < 0.5


class TestFactory:
    def test_known_policies(self):
        assert isinstance(make_scheduler("lrr"), LrrScheduler)
        assert isinstance(make_scheduler("GTO"), GtoScheduler)
        assert isinstance(make_scheduler("schedpself", 0.3), SchedPselfScheduler)
        assert isinstance(make_scheduler("two-level"), TwoLevelScheduler)

    def test_unknown_policy(self):
        with pytest.raises(ValueError, match="unknown scheduling policy"):
            make_scheduler("fifo")


class TestMeasurePself:
    def test_alternating_is_zero(self):
        assert measure_p_self([1, 2, 1, 2, 1]) == 0.0

    def test_constant_is_one(self):
        assert measure_p_self([3, 3, 3, 3]) == 1.0

    def test_mixed(self):
        assert measure_p_self([1, 1, 2, 2, 3]) == pytest.approx(0.5)

    def test_short_sequences(self):
        assert measure_p_self([]) == 0.0
        assert measure_p_self([5]) == 0.0

    def test_lrr_vs_gto_signature(self):
        """GTO produces a much higher SchedP_self than LRR (section 4.5)."""
        lrr, gto = LrrScheduler(), GtoScheduler()
        ready = [0, 1, 2, 3]
        seq_lrr, seq_gto = [], []
        last_l = last_g = None
        for _ in range(100):
            last_l = lrr.select(ready, last_l)
            last_g = gto.select(ready, last_g)
            seq_lrr.append(last_l)
            seq_gto.append(last_g)
        assert measure_p_self(seq_gto) > 0.9
        assert measure_p_self(seq_lrr) < 0.1


class _ScriptedHierarchy(MemoryHierarchy):
    """Returns the latencies of ``script`` in turn and logs each access."""

    def __init__(self, config, script):
        super().__init__(config)
        self.script = list(script)
        self.log = []

    def access(self, core, now, pc, address, size, is_store):
        self.log.append((now, pc))
        return self.script.pop(0)


class _RecordingLrr(LrrScheduler):
    def __init__(self, seen):
        self.seen = seen

    def select(self, ready, last):
        self.seen.append(list(ready))
        return super().select(ready, last)

    def clone(self):
        return _RecordingLrr(self.seen)


def _run_core(waves, latencies):
    """One core's issue loop; warps are ``(warp id, transaction pcs)``.

    Each transaction's pc names its warp in the access log.
    """
    config = SimConfig(num_cores=1,
                       l1=CacheConfig(size=4096, assoc=4, line_size=128))
    simulator = SimtSimulator(config)
    simulator.hierarchy = hierarchy = _ScriptedHierarchy(config, latencies)
    assignment = CoreAssignment(0, [
        [WarpTrace(warp_id=warp, block=0,
                   transactions=[pack(pc, 128 * i) for i, pc in
                                 enumerate(pcs)])
         for warp, pcs in wave]
        for wave in waves
    ])
    return hierarchy.log, simulator.run([assignment])


class TestWarpQueue:
    """The per-core warp queue, as the simulator's issue loop runs it."""

    def test_add_and_ready(self, monkeypatch):
        seen = []
        monkeypatch.setattr(simulator_module, "make_scheduler",
                            lambda *_: _RecordingLrr(seen))
        _run_core([[(3, [3]), (1, [1])]], [5.0, 5.0])
        assert seen[0] == [1, 3]

    def test_duplicate_add_rejected(self):
        with pytest.raises(ValueError):
            _run_core([[(1, [1]), (1, [1])]], [1.0, 1.0])

    def test_delay_hides_warp(self):
        log, _ = _run_core([[(1, [1, 1])]], [10.0, 1.0])
        assert log == [(0.0, 1), (10.0, 1)]

    def test_retire(self):
        """A retired warp leaves the queue; the next wave is queued at
        the retiring issue's time."""
        log, result = _run_core([[(2, [2])], [(2, [7])]], [50.0, 1.0])
        assert log == [(0.0, 2), (1.0, 7)]
        assert result.requests_issued == 2
        assert result.cycles == 2.0

    def test_next_event(self):
        """With no warp ready the clock jumps to the earliest ready time."""
        log, _ = _run_core([[(1, [1, 1]), (2, [2, 2])]], [4.0, 2.0, 1.0, 1.0])
        assert log == [(0.0, 1), (1.0, 2), (3.0, 2), (4.0, 1)]
