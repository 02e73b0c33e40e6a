"""Determinism guarantees of the performance subsystem.

The event-heap simulator hot path and the parallel sweep engine are pure
optimisations: this module pins them to the behaviour of the straightforward
implementations they replaced.

* ``SimtSimulator.run`` must match, bit for bit, a ``min(active, key=now)``
  scan over brute-force cores that issue one step at a time
  (:class:`ReferenceCore`, kept here as the definition of the loop);
* ``simulate_flat_trace`` must match the linear-scan merge with the same
  tie-break (and the documented SYNC clock-advance semantics);
* ``SweepRunner(jobs=4)`` must return results equal to ``jobs=1``.
"""

from __future__ import annotations

from math import inf

import pytest

from repro.gpu.executor import execute_kernel
from repro.gpu.instructions import pack, sync_marker
from repro.memsim.hierarchy import MemoryHierarchy
from repro.memsim.simulator import SimtSimulator, simulate_flat_trace
from repro.memsim.stats import SimResult
from repro.gpu.scheduler import make_scheduler
from repro.validation import sweeps
from repro.validation.parallel import SweepRunner
from repro.workloads import suite

WORKLOADS = ("vectoradd", "kmeans", "bfs")
SCHEDULERS = ("lrr", "gto")


class ReferenceCore:
    """One core of the SIMT loop, by definition, one issue per step.

    The ready warps are the ascending ids whose ready time is at most
    ``now``; when none is ready the clock jumps to the earliest ready
    time.  A chosen warp issues its next transaction and waits for its
    latency, or parks at its block's barrier on a SYNC record; a barrier
    releases (one cycle later) once every still-active warp of the block
    has arrived.  A core loads its next wave when its queue empties.
    """

    def __init__(self, core_id, waves, scheduler):
        self.core_id = core_id
        self.scheduler = scheduler
        self.waves = waves
        self.wave_index = 0
        self.now = 0.0
        self.ready_time = {}
        self.traces = {}
        self.cursors = {}
        self.last_warp = None
        self.issued = 0
        self.same_issues = 0
        self.syncs_crossed = 0
        self.block_active = {}
        self.barrier_wait = {}
        self.load_next_wave()

    @property
    def active(self):
        return bool(self.ready_time)

    def load_next_wave(self):
        while self.wave_index < len(self.waves) and not self.ready_time:
            wave = self.waves[self.wave_index]
            self.wave_index += 1
            self.block_active = {}
            self.barrier_wait = {}
            for trace in wave:
                if trace.transactions:
                    self.ready_time[trace.warp_id] = self.now
                    self.traces[trace.warp_id] = trace
                    self.cursors[trace.warp_id] = 0
                    self.block_active[trace.block] = (
                        self.block_active.get(trace.block, 0) + 1)

    def retire(self, warp):
        block = self.traces.pop(warp).block
        del self.ready_time[warp]
        del self.cursors[warp]
        self.block_active[block] -= 1
        self.maybe_release(block)
        if not self.ready_time:
            self.load_next_wave()

    def maybe_release(self, block):
        waiting = self.barrier_wait.get(block)
        if not waiting or len(waiting) < self.block_active.get(block, 0):
            return
        self.barrier_wait[block] = []
        self.syncs_crossed += 1
        for warp in waiting:
            self.cursors[warp] += 1  # past the SYNC record
            if self.cursors[warp] >= len(self.traces[warp].transactions):
                self.retire(warp)
            else:
                self.ready_time[warp] = self.now + 1.0

    def ready(self):
        return sorted(w for w, t in self.ready_time.items() if t <= self.now)

    def step(self, hierarchy):
        ready = self.ready()
        if not ready:
            self.now = min(self.ready_time.values())
            assert self.now != inf, "every warp parked at a barrier"
            ready = self.ready()
        warp = self.scheduler.select(ready, self.last_warp)
        trace = self.traces[warp]
        pc, address, size, is_store = trace.transactions[self.cursors[warp]]
        if pc < 0:
            self.barrier_wait.setdefault(trace.block, []).append(warp)
            self.ready_time[warp] = inf
            self.last_warp = warp
            self.maybe_release(trace.block)
        else:
            latency = hierarchy.access(self.core_id, self.now, pc, address,
                                       size, bool(is_store))
            if self.last_warp == warp:
                self.same_issues += 1
            self.last_warp = warp
            self.issued += 1
            self.cursors[warp] += 1
            if self.cursors[warp] >= len(trace.transactions):
                self.retire(warp)
            else:
                self.ready_time[warp] = self.now + latency
        self.now += 1.0


def reference_run(config, assignments, max_requests=None,
                  hierarchy=None) -> SimResult:
    """The simulation loop by definition: a ``min()`` scan over the cores
    for every single step of :class:`ReferenceCore`."""
    scheduler_proto = make_scheduler(
        config.scheduler, config.sched_p_self, config.scheduler_seed
    )
    if hierarchy is None:
        hierarchy = MemoryHierarchy(config)
    cores = [
        ReferenceCore(a.core_id, a.waves, scheduler_proto.clone())
        for a in assignments
    ]
    active = [c for c in cores if c.active]
    issued_total = 0
    budget = max_requests if max_requests is not None else inf
    while active and issued_total < budget:
        core = min(active, key=lambda c: c.now)
        before = core.issued
        core.step(hierarchy)
        issued_total += core.issued - before
        if not core.active:
            active = [c for c in active if c.active]
    result = SimResult(
        l1=hierarchy.l1_stats(),
        l2=hierarchy.l2_stats(),
        dram=hierarchy.dram_stats(),
        texture=hierarchy.texture_stats(),
        constant=hierarchy.constant_stats(),
        shared_accesses=hierarchy.shared_accesses,
        requests_issued=issued_total,
        cycles=max((c.now for c in cores), default=0.0),
        barriers_crossed=sum(c.syncs_crossed for c in cores),
        per_core_l1=[l1.stats for l1 in hierarchy.l1s],
    )
    total_issues = sum(c.issued for c in cores)
    same = sum(c.same_issues for c in cores)
    result.measured_p_self = same / total_issues if total_issues else 0.0
    return result


def reference_flat(per_core_traces, config) -> SimResult:
    """Linear-scan flat-trace merge with SYNC advancing the clock."""
    hierarchy = MemoryHierarchy(config)
    clocks = [0.0] * len(per_core_traces)
    cursors = [0] * len(per_core_traces)
    issued = 0
    remaining = sum(len(t) for t in per_core_traces)
    while remaining:
        core = min(
            (c for c in range(len(per_core_traces))
             if cursors[c] < len(per_core_traces[c])),
            key=lambda c: clocks[c],
        )
        pc, address, size, is_store = per_core_traces[core][cursors[core]]
        cursors[core] += 1
        remaining -= 1
        if pc >= 0:
            hierarchy.access(core, clocks[core], pc, address, size,
                             bool(is_store))
            issued += 1
        clocks[core] += 1.0
    return SimResult(
        l1=hierarchy.l1_stats(),
        l2=hierarchy.l2_stats(),
        dram=hierarchy.dram_stats(),
        requests_issued=issued,
        cycles=max(clocks, default=0.0),
    )


def assert_results_identical(a: SimResult, b: SimResult) -> None:
    """Bit-exact equality over every field the harness compares."""
    assert a.l1 == b.l1
    assert a.l2 == b.l2
    assert a.dram == b.dram
    assert a.texture == b.texture
    assert a.constant == b.constant
    assert a.shared_accesses == b.shared_accesses
    assert a.requests_issued == b.requests_issued
    assert a.cycles == b.cycles
    assert a.measured_p_self == b.measured_p_self
    assert a.barriers_crossed == b.barriers_crossed
    assert a.per_core_l1 == b.per_core_l1


class TestHeapSimulatorMatchesReference:
    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_matrix(self, small_config, workload, scheduler):
        config = small_config.with_(scheduler=scheduler)
        kernel = suite.make(workload, "tiny")
        heap_result = SimtSimulator(config).run(
            execute_kernel(kernel, config.num_cores))
        ref_result = reference_run(
            config, execute_kernel(kernel, config.num_cores))
        assert_results_identical(heap_result, ref_result)

    def test_max_requests_budget(self, small_config):
        kernel = suite.make("kmeans", "tiny")
        heap_result = SimtSimulator(small_config).run(
            execute_kernel(kernel, small_config.num_cores), max_requests=37)
        ref_result = reference_run(
            small_config, execute_kernel(kernel, small_config.num_cores),
            max_requests=37)
        assert_results_identical(heap_result, ref_result)

    def test_barrier_workload(self, small_config):
        """A sync-heavy kernel exercises barrier parking inside bursts."""
        kernel = suite.make("matmul_shared", "tiny")
        heap_result = SimtSimulator(small_config).run(
            execute_kernel(kernel, small_config.num_cores))
        ref_result = reference_run(
            small_config, execute_kernel(kernel, small_config.num_cores))
        assert heap_result.barriers_crossed > 0
        assert_results_identical(heap_result, ref_result)


class TestFlatTraceMatchesReference:
    def test_mixed_lengths_and_ties(self, small_config):
        per_core = [
            [pack(1, 128 * i) for i in range(40)],
            [pack(2, (1 << 20) + 128 * i) for i in range(25)],
            [pack(3, 64 * i) for i in range(60)],
            [],
        ]
        assert_results_identical(
            simulate_flat_trace(per_core, small_config),
            reference_flat(per_core, small_config),
        )

    def test_with_sync_records(self, small_config):
        sync = sync_marker()
        per_core = [
            [sync, sync, pack(1, 0), sync, pack(1, 128)],
            [pack(2, 1 << 20), pack(2, (1 << 20) + 128), pack(2, 0)],
        ]
        assert_results_identical(
            simulate_flat_trace(per_core, small_config),
            reference_flat(per_core, small_config),
        )

    def test_sync_advances_clock(self, small_config):
        """SYNC records consume an issue slot (documented semantics)."""
        sync = sync_marker()
        result = simulate_flat_trace([[sync, sync, pack(1, 0)]], small_config)
        assert result.requests_issued == 1
        assert result.cycles == 3.0


class TestSweepRunnerDeterminism:
    def _configs(self):
        base = sweeps.l1_sweep(reduced=True, keep=3)
        return base + [base[0].with_(scheduler="gto")]

    def test_jobs4_equals_jobs1(self):
        kernels = [suite.make(n, "tiny") for n in ("vectoradd", "kmeans")]
        configs = self._configs()
        serial = SweepRunner(jobs=1).run(kernels, configs, num_cores=4)
        parallel = SweepRunner(jobs=4).run(kernels, configs, num_cores=4)
        assert len(serial) == len(parallel) == len(kernels)
        for s, p in zip(serial, parallel):
            assert s.benchmark == p.benchmark
            assert len(s.pairs) == len(p.pairs) == len(configs)
            for sp, pp in zip(s.pairs, p.pairs):
                assert sp.config == pp.config
                assert_results_identical(sp.original, pp.original)
                assert_results_identical(sp.proxy, pp.proxy)

    def test_chunking_preserves_config_order(self):
        kernels = [suite.make("vectoradd", "tiny")]
        configs = self._configs()
        runner = SweepRunner(jobs=2, chunk_size=1)
        result = runner.run(kernels, configs, num_cores=4)[0]
        assert [p.config for p in result.pairs] == list(configs)

    def test_run_experiment_matches_harness_entry_point(self):
        from repro.validation.harness import run_experiment

        kernels = [suite.make("vectoradd", "tiny")]
        configs = sweeps.l1_sweep(reduced=True, keep=2)
        via_harness = run_experiment(kernels, configs, "l1_miss_rate",
                                     num_cores=4, jobs=2)
        via_runner = SweepRunner(jobs=1).run_experiment(
            kernels, configs, "l1_miss_rate", num_cores=4)
        for a, b in zip(via_harness.comparisons, via_runner.comparisons):
            assert a.benchmark == b.benchmark
            assert a.originals == b.originals
            assert a.proxies == b.proxies
