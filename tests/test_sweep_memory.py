"""Pipeline lifetime in the sweep engine's serial path.

A serial sweep (``jobs=1``, single-chunk runs, the pool's fallback) owns
the pipelines it builds: each benchmark's is built on its first chunk,
reused by its later chunks and retries, and released after its last chunk
completes or is quarantined.  Nothing of a returned run may stay reachable
from module state, so a process running sweep after sweep holds at most
one benchmark's working set instead of a growing memo.

``build_pipeline`` and ``simulate_pair`` are wrapped where the engine looks
them up, which counts builds, keeps weak references to every pipeline, and
injects failures after a pipeline exists.
"""

from __future__ import annotations

import gc
import threading
import weakref
from collections import Counter

import pytest

from repro.validation import parallel, sweeps
from repro.validation.parallel import SweepRunner
from repro.validation.resilience import (
    ENV_FAULT_INJECT,
    ENV_FAULT_STATE,
    FAILURE_SIMULATION_ERROR,
    RunJournal,
)
from repro.workloads import suite
from tests.test_sweep_resilience import assert_sweeps_identical

CONFIGS = sweeps.l1_sweep(reduced=True, keep=3)


def _kernels():
    return [suite.make("vectoradd", "tiny"), suite.make("kmeans", "tiny")]


@pytest.fixture(autouse=True)
def _no_ambient_faults(monkeypatch):
    monkeypatch.delenv(ENV_FAULT_INJECT, raising=False)
    monkeypatch.delenv(ENV_FAULT_STATE, raising=False)


@pytest.fixture(scope="module")
def reference():
    """A plain serial run of both benchmarks: the ground truth."""
    return SweepRunner(jobs=1).run(_kernels(), CONFIGS, num_cores=4)


class PipelineSpy:
    """Counts builds per benchmark and keeps a weakref to each pipeline."""

    def __init__(self, monkeypatch):
        self.builds = Counter()
        self.refs = []
        self._build = parallel.build_pipeline
        monkeypatch.setattr(parallel, "build_pipeline", self.build_pipeline)

    def build_pipeline(self, kernel, **kwargs):
        pipeline = self._build(kernel, **kwargs)
        self.builds[kernel.name] += 1
        self.refs.append(weakref.ref(pipeline))
        return pipeline

    def live(self):
        gc.collect()
        return [ref for ref in self.refs if ref() is not None]


def _fail_simulation(monkeypatch, should_fail):
    """Make ``simulate_pair`` raise wherever ``should_fail(config)`` holds
    — after the chunk's pipeline was built or reused."""
    simulate = parallel.simulate_pair

    def flaky(pipeline, config, **kwargs):
        if should_fail(config):
            raise RuntimeError("injected simulation failure")
        return simulate(pipeline, config, **kwargs)

    monkeypatch.setattr(parallel, "simulate_pair", flaky)


def _memo_keys():
    return list(parallel._WORKER_PIPELINES)


class TestReleasedAfterRun:
    @pytest.mark.parametrize("chunk_size", [None, 1])
    def test_no_pipeline_outlives_the_run(self, monkeypatch, reference,
                                          chunk_size):
        """Built once per kernel, even one config per chunk; none kept."""
        spy = PipelineSpy(monkeypatch)
        memo_before = _memo_keys()
        results = SweepRunner(jobs=1, chunk_size=chunk_size).run(
            _kernels(), CONFIGS, num_cores=4)
        assert_sweeps_identical(results, reference)
        assert spy.builds == {"vectoradd": 1, "kmeans": 1}
        assert spy.live() == []
        assert _memo_keys() == memo_before

    def test_one_pipeline_live_at_a_time(self, monkeypatch):
        spy = PipelineSpy(monkeypatch)
        live_counts = []
        SweepRunner(
            jobs=1, chunk_size=1,
            fault_injector=lambda chunk: live_counts.append(len(spy.live())),
        ).run(_kernels(), CONFIGS, num_cores=4)
        # Before each chunk: none yet, then vectoradd's for its later
        # chunks; it is gone before kmeans' first chunk starts.
        assert live_counts == [0, 1, 1, 0, 1, 1]

    @pytest.mark.parametrize("failing_offset", [1, 2])
    def test_quarantined_chunk_releases_pipeline(self, monkeypatch,
                                                 failing_offset):
        spy = PipelineSpy(monkeypatch)
        doomed = CONFIGS[failing_offset]
        _fail_simulation(monkeypatch, lambda config: config == doomed)
        memo_before = _memo_keys()
        results = SweepRunner(
            jobs=1, chunk_size=1, retries=1, retry_backoff=0.0,
        ).run(_kernels(), CONFIGS, num_cores=4)
        for sweep in results:
            (failure,) = sweep.failures
            assert failure.kind == FAILURE_SIMULATION_ERROR
            assert failure.config_offset == failing_offset
            assert failure.attempts == 2
            assert len(sweep.pairs) == len(CONFIGS) - 1
        assert spy.builds == {"vectoradd": 1, "kmeans": 1}
        assert spy.live() == []
        assert _memo_keys() == memo_before

    def test_escaping_exception_releases_pipeline(self, monkeypatch):
        spy = PipelineSpy(monkeypatch)
        runner = SweepRunner(jobs=1, chunk_size=1)

        def interrupt(chunk):
            if chunk.config_offset == 1:
                raise KeyboardInterrupt
        runner.fault_injector = interrupt
        with pytest.raises(KeyboardInterrupt) as excinfo:
            runner.run(_kernels(), CONFIGS, num_cores=4)
        # ``excinfo`` holds the traceback, which pins the serial loop's
        # frame: the store that frame references must already be empty.
        assert spy.builds == {"vectoradd": 1}
        assert spy.live() == []
        assert excinfo.traceback


class TestReuseWithinRun:
    def test_retried_chunk_reuses_pipeline(self, monkeypatch, reference):
        spy = PipelineSpy(monkeypatch)
        failed = set()

        def first_try_fails(config):
            if config in failed:
                return False
            failed.add(config)
            return True

        # Every chunk fails once after its pipeline exists, then succeeds.
        _fail_simulation(monkeypatch, first_try_fails)
        results = SweepRunner(
            jobs=1, chunk_size=1, retries=1, retry_backoff=0.0,
        ).run(_kernels(), CONFIGS, num_cores=4)
        assert_sweeps_identical(results, reference)
        assert spy.builds == {"vectoradd": 1, "kmeans": 1}
        assert spy.live() == []

    def test_resume_reassembles_identical_results(self, tmp_path,
                                                  monkeypatch, reference):
        first = SweepRunner(jobs=1, chunk_size=1, journal=True,
                            journal_dir=tmp_path)
        first.run(_kernels(), CONFIGS, num_cores=4)
        journal = RunJournal(first.last_run_id, tmp_path)
        journal.entry_path(1, 1).unlink()  # kmeans' middle chunk is lost

        spy = PipelineSpy(monkeypatch)
        resumed = SweepRunner(
            jobs=1, chunk_size=1, journal=True, journal_dir=tmp_path,
            run_id=first.last_run_id, resume=True,
        ).run(_kernels(), CONFIGS, num_cores=4)
        assert_sweeps_identical(resumed, reference)
        assert spy.builds == {"kmeans": 1}
        assert spy.live() == []


class TestConcurrentSerialSweeps:
    def test_threads_match_sequential_runs(self, reference):
        kernels = _kernels()
        reversed_reference = SweepRunner(jobs=1).run(
            kernels[::-1], CONFIGS, num_cores=4)
        barrier = threading.Barrier(2)
        results = {}
        errors = []

        def sweep(name, order):
            try:
                barrier.wait(timeout=30)
                results[name] = SweepRunner(jobs=1, chunk_size=1).run(
                    order, CONFIGS, num_cores=4)
            except BaseException as exc:  # surfaced by the assert below
                errors.append(exc)

        threads = [
            threading.Thread(target=sweep, args=("forward", kernels)),
            threading.Thread(target=sweep, args=("reversed", kernels[::-1])),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
        assert errors == []
        assert_sweeps_identical(results["forward"], reference)
        assert_sweeps_identical(results["reversed"], reversed_reference)
