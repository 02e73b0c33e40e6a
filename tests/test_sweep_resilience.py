"""Resilience guarantees of the sweep engine, driven by fault injection.

Every recovery path is exercised deterministically — no sleeps-and-hope:

* checkpoint/resume: a journaled run resumed after an interruption skips
  completed chunks and reassembles results bit-identical to an
  uninterrupted run;
* failure isolation: worker crashes and hangs are retried against a fresh
  pool, and a chunk that exhausts its retries is quarantined as a
  structured :class:`ChunkFailure` instead of aborting the sweep;
* integrity: a corrupted journal entry is moved to ``quarantine/`` and the
  chunk recomputed from source.

Pool-based tests stay tiny (one benchmark, three single-config chunks) so
the suite remains fast on small machines.
"""

from __future__ import annotations

import gzip
import os
import time

import pytest

from repro.validation import sweeps
from repro.validation.parallel import SweepRunner, _run_chunk, _SweepChunk
from repro.validation.resilience import (
    ENV_FAULT_INJECT,
    ENV_FAULT_STATE,
    FAILURE_SIMULATION_ERROR,
    FAILURE_TIMEOUT,
    FAILURE_WORKER_CRASH,
    ChunkExecutionError,
    ChunkFailure,
    JournalMismatchError,
    RunJournal,
    derive_run_id,
    parse_fault_spec,
    summarize_failures,
)
from repro.workloads import suite
from tests.test_perf_determinism import assert_results_identical

CONFIGS = sweeps.l1_sweep(reduced=True, keep=3)
WATCHDOG = 8.0  # a healthy single-config chunk finishes in well under 1s


def _kernels():
    return [suite.make("vectoradd", "tiny")]


def assert_sweeps_identical(got, expected):
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert g.benchmark == e.benchmark
        assert not g.failures
        assert len(g.pairs) == len(e.pairs)
        for gp, ep in zip(g.pairs, e.pairs):
            assert gp.config == ep.config
            assert_results_identical(gp.original, ep.original)
            assert_results_identical(gp.proxy, ep.proxy)


@pytest.fixture(scope="module")
def reference():
    """An uninterrupted, journal-free serial run: the ground truth."""
    return SweepRunner(jobs=1).run(_kernels(), CONFIGS, num_cores=4)


@pytest.fixture(autouse=True)
def _no_ambient_faults(monkeypatch):
    monkeypatch.delenv(ENV_FAULT_INJECT, raising=False)
    monkeypatch.delenv(ENV_FAULT_STATE, raising=False)


class TestFaultSpec:
    def test_parse_full(self):
        spec = parse_fault_spec("hang:1:4:always:2.5")
        assert spec.kind == "hang"
        assert spec.kernel_index == 1
        assert spec.config_offset == 4
        assert spec.always
        assert spec.hang_seconds == 2.5
        assert spec.matches(1, 4) and not spec.matches(1, 5)

    def test_parse_empty_and_bad(self):
        assert parse_fault_spec(None) is None
        assert parse_fault_spec("") is None
        with pytest.raises(ValueError):
            parse_fault_spec("crash:0")
        with pytest.raises(ValueError):
            parse_fault_spec("explode:0:0")


class TestRunJournal:
    def test_manifest_round_trip_and_mismatch(self, tmp_path):
        journal = RunJournal("abc123", tmp_path)
        manifest = {"seed": 1, "configs": ["x", "y"], "chunk_size": 2}
        journal.ensure_manifest(manifest, resume=False)
        stored = journal.load_manifest()
        assert stored["seed"] == 1
        # Resuming with a different chunk size is fine (layout detail) ...
        effective = journal.ensure_manifest(dict(manifest, chunk_size=1),
                                            resume=True)
        assert effective["chunk_size"] == 2
        # ... but different inputs are not.
        with pytest.raises(JournalMismatchError):
            journal.ensure_manifest(dict(manifest, seed=2), resume=True)

    def test_resume_without_manifest_raises(self, tmp_path):
        with pytest.raises(JournalMismatchError):
            RunJournal("nothere", tmp_path).ensure_manifest(
                {"seed": 1}, resume=True)

    def test_chunk_round_trip(self, tmp_path):
        journal = RunJournal("abc123", tmp_path)
        entries = [{"config": "f0", "original": {"v": 1}, "proxy": {"v": 2}}]
        journal.record_chunk(0, 0, "vectoradd", entries)
        assert journal.load_chunk(0, 0, ["f0"]) == entries

    def test_corrupt_entry_quarantined(self, tmp_path):
        journal = RunJournal("abc123", tmp_path)
        entries = [{"config": "f0", "original": {}, "proxy": {}}]
        path = journal.record_chunk(0, 0, "vectoradd", entries)
        path.write_bytes(b"\x00not-gzip\x00")
        assert journal.load_chunk(0, 0, ["f0"]) is None
        assert journal.quarantined == 1
        assert list((journal.root / "quarantine").iterdir())

    def test_tampered_payload_quarantined(self, tmp_path):
        journal = RunJournal("abc123", tmp_path)
        path = journal.record_chunk(
            0, 0, "vectoradd",
            [{"config": "f0", "original": {"v": 1}, "proxy": {}}])
        payload = gzip.decompress(path.read_bytes())
        path.write_bytes(gzip.compress(payload.replace(b'"v": 1', b'"v": 9')))
        assert journal.load_chunk(0, 0, ["f0"]) is None
        assert journal.quarantined == 1

    def test_wrong_configs_quarantined(self, tmp_path):
        journal = RunJournal("abc123", tmp_path)
        journal.record_chunk(
            0, 0, "vectoradd",
            [{"config": "f0", "original": {}, "proxy": {}}])
        assert journal.load_chunk(0, 0, ["OTHER"]) is None
        assert journal.quarantined == 1

    def test_derive_run_id_ignores_chunk_size(self):
        base = {"seed": 1, "configs": ["a"], "chunk_size": 4}
        assert derive_run_id(base) == derive_run_id(dict(base, chunk_size=1))
        assert derive_run_id(base) != derive_run_id(dict(base, seed=2))


class TestCheckpointResume:
    def _journaled(self, tmp_path, **kwargs):
        return SweepRunner(jobs=1, chunk_size=1, journal=True,
                           journal_dir=tmp_path, **kwargs)

    def test_resume_skips_completed_chunks(self, tmp_path, reference):
        first = self._journaled(tmp_path)
        results = first.run(_kernels(), CONFIGS, num_cores=4)
        assert_sweeps_identical(results, reference)
        journal = RunJournal(first.last_run_id, tmp_path)
        assert len(journal.completed_chunks()) == len(CONFIGS)

        executed = []
        resumed = self._journaled(
            tmp_path, resume=True, run_id=first.last_run_id,
            fault_injector=executed.append,
        ).run(_kernels(), CONFIGS, num_cores=4)
        assert executed == []  # nothing re-simulated
        assert_sweeps_identical(resumed, reference)

    def test_partial_journal_recomputes_only_missing(self, tmp_path,
                                                     reference):
        first = self._journaled(tmp_path)
        first.run(_kernels(), CONFIGS, num_cores=4)
        journal = RunJournal(first.last_run_id, tmp_path)
        journal.entry_path(0, 1).unlink()  # simulate a crash mid-campaign

        executed = []
        resumed = self._journaled(
            tmp_path, resume=True, run_id=first.last_run_id,
            fault_injector=executed.append,
        ).run(_kernels(), CONFIGS, num_cores=4)
        assert [(c.kernel_index, c.config_offset) for c in executed] == [(0, 1)]
        assert_sweeps_identical(resumed, reference)

    def test_corrupted_entry_quarantined_and_rebuilt(self, tmp_path,
                                                     reference):
        first = self._journaled(tmp_path)
        first.run(_kernels(), CONFIGS, num_cores=4)
        journal = RunJournal(first.last_run_id, tmp_path)
        journal.entry_path(0, 2).write_bytes(b"garbage")

        executed = []
        resumed = self._journaled(
            tmp_path, resume=True, run_id=first.last_run_id,
            fault_injector=executed.append,
        ).run(_kernels(), CONFIGS, num_cores=4)
        assert [(c.kernel_index, c.config_offset) for c in executed] == [(0, 2)]
        assert_sweeps_identical(resumed, reference)
        assert list((journal.root / "quarantine").iterdir())

    def test_resume_with_different_seed_raises(self, tmp_path):
        first = self._journaled(tmp_path)
        first.run(_kernels(), CONFIGS, num_cores=4, seed=1234)
        with pytest.raises(JournalMismatchError, match="seed"):
            self._journaled(
                tmp_path, resume=True, run_id=first.last_run_id,
            ).run(_kernels(), CONFIGS, num_cores=4, seed=999)

    def test_resume_adopts_recorded_chunk_size(self, tmp_path, reference):
        first = self._journaled(tmp_path)  # chunk_size=1 -> 3 entries
        first.run(_kernels(), CONFIGS, num_cores=4)
        # A resume with default chunking (one chunk per benchmark) must
        # still line up with the recorded single-config entries.
        executed = []
        resumed = SweepRunner(
            jobs=1, journal=True, journal_dir=tmp_path,
            run_id=first.last_run_id, resume=True,
            fault_injector=executed.append,
        ).run(_kernels(), CONFIGS, num_cores=4)
        assert executed == []
        assert_sweeps_identical(resumed, reference)

    def test_injected_corruption_fault(self, tmp_path, monkeypatch,
                                       reference):
        """The ``corrupt`` fault poisons one entry; resume heals it."""
        monkeypatch.setenv(ENV_FAULT_INJECT, "corrupt:0:1:always")
        first = self._journaled(tmp_path)
        first.run(_kernels(), CONFIGS, num_cores=4)
        monkeypatch.delenv(ENV_FAULT_INJECT)

        executed = []
        resumed = self._journaled(
            tmp_path, resume=True, run_id=first.last_run_id,
            fault_injector=executed.append,
        ).run(_kernels(), CONFIGS, num_cores=4)
        assert [(c.kernel_index, c.config_offset) for c in executed] == [(0, 1)]
        assert_sweeps_identical(resumed, reference)


class TestSerialRetries:
    def test_flaky_chunk_recovers(self, reference):
        seen = set()

        def flaky(chunk):
            key = (chunk.kernel_index, chunk.config_offset)
            if key not in seen:
                seen.add(key)
                raise RuntimeError("transient failure")

        results = SweepRunner(
            jobs=1, chunk_size=1, retries=2, retry_backoff=0.0,
            fault_injector=flaky,
        ).run(_kernels(), CONFIGS, num_cores=4)
        assert_sweeps_identical(results, reference)

    def test_exhausted_retries_quarantine(self):
        def always_fail(chunk):
            raise RuntimeError("permanent failure")

        results = SweepRunner(
            jobs=1, retries=1, retry_backoff=0.0, fault_injector=always_fail,
        ).run(_kernels(), CONFIGS, num_cores=4)
        (sweep,) = results
        assert sweep.pairs == []
        assert sweep.is_partial
        (failure,) = sweep.failures
        assert failure.kind == FAILURE_SIMULATION_ERROR
        assert failure.attempts == 2  # first try + one retry
        assert failure.benchmark == "vectoradd"
        assert "permanent failure" in failure.message

    def test_partial_report_surfaces_failures(self):
        def always_fail(chunk):
            raise RuntimeError("permanent failure")

        report = SweepRunner(
            jobs=1, retries=0, retry_backoff=0.0, fault_injector=always_fail,
        ).run_experiment(_kernels(), CONFIGS, "l1_miss_rate", num_cores=4)
        assert report.is_partial
        assert report.failures[0].kind == FAILURE_SIMULATION_ERROR
        assert "simulation_error=1" in summarize_failures(report.failures)

    def test_chunk_failure_round_trips(self):
        failure = ChunkFailure(
            benchmark="kmeans", kernel_index=1, config_offset=4,
            num_configs=2, kind=FAILURE_TIMEOUT, message="deadline",
            attempts=3, seed=1234,
        )
        assert ChunkFailure.from_dict(failure.to_dict()) == failure
        assert "kmeans" in failure.summary()
        assert "timeout" in failure.summary()

    def test_worker_error_carries_chunk_context(self, monkeypatch):
        monkeypatch.setenv(ENV_FAULT_INJECT, "raise:0:0:always")
        chunk = _SweepChunk(
            run_token="t", kernel_index=0, config_offset=0,
            kernel=_kernels()[0], configs=tuple(CONFIGS[:1]), seed=77,
            num_cores=4, max_blocks_per_core=8, scale_factor=1.0,
            stride_model="iid", track_scheduling=True,
            use_cache=False, cache_dir=None,
        )
        with pytest.raises(ChunkExecutionError) as excinfo:
            _run_chunk(chunk)
        err = excinfo.value
        assert err.benchmark == "vectoradd"
        assert err.config_offset == 0
        assert err.seed == 77
        for fragment in ("vectoradd", "config_offset=0", "seed=77"):
            assert fragment in str(err)

    def test_chunk_execution_error_pickles(self):
        import pickle

        err = ChunkExecutionError("bm", 1, 2, 3, "boom",
                                  failure_kind=FAILURE_TIMEOUT)
        clone = pickle.loads(pickle.dumps(err))
        assert clone.benchmark == "bm"
        assert clone.failure_kind == FAILURE_TIMEOUT
        assert str(clone) == str(err)


class TestPoolFaults:
    """jobs=2 with three single-config chunks: real processes, real faults."""

    def _runner(self, **kwargs):
        kwargs.setdefault("retry_backoff", 0.0)
        return SweepRunner(jobs=2, chunk_size=1, **kwargs)

    def test_worker_crash_retried(self, tmp_path, monkeypatch, reference):
        monkeypatch.setenv(ENV_FAULT_INJECT, "crash:0:0:once")
        monkeypatch.setenv(ENV_FAULT_STATE, str(tmp_path / "fired"))
        results = self._runner(retries=2).run(
            _kernels(), CONFIGS, num_cores=4)
        assert_sweeps_identical(results, reference)

    def test_worker_crash_quarantined_without_retries(self, monkeypatch):
        monkeypatch.setenv(ENV_FAULT_INJECT, "crash:0:0:always")
        (sweep,) = self._runner(retries=0).run(
            _kernels(), CONFIGS, num_cores=4)
        assert sweep.is_partial
        (failure,) = sweep.failures
        assert failure.kind == FAILURE_WORKER_CRASH
        assert failure.config_offset == 0
        # The other two chunks completed despite the crashing neighbour.
        assert [p.config for p in sweep.pairs] == list(CONFIGS[1:])

    def test_hang_timeout_then_retry(self, tmp_path, monkeypatch, reference):
        monkeypatch.setenv(ENV_FAULT_INJECT, "hang:0:0:once:600")
        monkeypatch.setenv(ENV_FAULT_STATE, str(tmp_path / "fired"))
        results = self._runner(retries=2, timeout=WATCHDOG).run(
            _kernels(), CONFIGS, num_cores=4)
        assert_sweeps_identical(results, reference)

    def test_hang_quarantined_as_timeout(self, monkeypatch):
        monkeypatch.setenv(ENV_FAULT_INJECT, "hang:0:0:always:600")
        (sweep,) = self._runner(retries=0, timeout=WATCHDOG).run(
            _kernels(), CONFIGS, num_cores=4)
        assert sweep.is_partial
        (failure,) = sweep.failures
        assert failure.kind == FAILURE_TIMEOUT
        assert [p.config for p in sweep.pairs] == list(CONFIGS[1:])

    def test_crash_then_resume_bit_identical(self, tmp_path, monkeypatch,
                                             reference):
        """The acceptance path: kill mid-campaign, resume, same bits."""
        monkeypatch.setenv(ENV_FAULT_INJECT, "crash:0:0:always")
        first = self._runner(retries=0, journal=True,
                             journal_dir=tmp_path / "journal")
        (partial,) = first.run(_kernels(), CONFIGS, num_cores=4)
        assert partial.is_partial
        assert partial.failures[0].kind == FAILURE_WORKER_CRASH
        journal = RunJournal(first.last_run_id, tmp_path / "journal")
        assert len(journal.completed_chunks()) == len(CONFIGS) - 1

        monkeypatch.delenv(ENV_FAULT_INJECT)  # the "fixed fleet"
        executed = []
        resumed = SweepRunner(
            jobs=1, journal=True, journal_dir=tmp_path / "journal",
            run_id=first.last_run_id, resume=True,
            fault_injector=executed.append,
        ).run(_kernels(), CONFIGS, num_cores=4)
        assert [(c.kernel_index, c.config_offset) for c in executed] == [(0, 0)]
        assert_sweeps_identical(resumed, reference)


class TestCliPartial:
    def test_validate_exits_nonzero_and_prints_partial(
            self, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.setenv(ENV_FAULT_INJECT, "raise:0:0:always")
        code = main([
            "validate", "fig6a", "--benchmarks", "vectoradd",
            "--scale", "tiny", "--retries", "0",
            "--no-cache", "--no-journal",
        ])
        out = capsys.readouterr().out
        assert code == 3
        assert "PARTIAL" in out
        assert "simulation_error" in out

    def test_no_journal_with_resume_rejected(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["validate", "fig6a", "--no-journal", "--resume"])


class TestJournalLock:
    """Single-writer locking: concurrent ``--resume`` runs fail fast."""

    def test_acquire_release_and_reacquire(self, tmp_path):
        journal = RunJournal("lock1", tmp_path)
        journal.acquire_lock()
        assert journal.lock_path.exists()
        journal.acquire_lock()  # same holder: no-op
        journal.release_lock()
        journal.release_lock()  # idempotent

    def test_second_holder_fails_fast(self, tmp_path):
        from repro.validation.resilience import JournalLockedError

        first = RunJournal("lock2", tmp_path)
        first.acquire_lock()
        try:
            with pytest.raises(JournalLockedError, match="locked"):
                RunJournal("lock2", tmp_path).acquire_lock()
        finally:
            first.release_lock()
        RunJournal("lock2", tmp_path).acquire_lock()  # free again

    def test_different_run_ids_do_not_contend(self, tmp_path):
        a = RunJournal("lock3a", tmp_path)
        b = RunJournal("lock3b", tmp_path)
        a.acquire_lock()
        b.acquire_lock()
        a.release_lock()
        b.release_lock()

    def test_lock_released_when_holder_process_dies(self, tmp_path):
        """A dead holder's lease names a gone pid: taken over at once."""
        import subprocess
        import sys

        script = (
            "from repro.validation.resilience import RunJournal\n"
            f"j = RunJournal('lock4', {str(tmp_path)!r})\n"
            "j.acquire_lock()\n"
            "import os; os._exit(0)\n"  # die without release_lock()
        )
        subprocess.run([sys.executable, "-c", script], check=True,
                       env=dict(os.environ, PYTHONPATH="src"),
                       cwd=os.path.dirname(os.path.dirname(__file__)) or ".")
        started = time.monotonic()
        RunJournal("lock4", tmp_path).acquire_lock()  # not wedged
        assert time.monotonic() - started < 5.0  # not a 30 s TTL wait

    def test_lock_file_of_older_format_does_not_wedge(self, tmp_path):
        """A ``lock`` file holding a bare pid (the pre-lease format) reads
        as an expired corpse and is taken over."""
        journal = RunJournal("lock5", tmp_path)
        journal.root.mkdir(parents=True)
        journal.lock_path.write_text(f"{os.getpid()}\n")
        journal.acquire_lock()
        journal.release_lock()

    def test_record_chunk_raises_after_takeover(self, tmp_path):
        """A writer displaced from its lease must stop writing."""
        from repro.validation.resilience import JournalLockedError

        from repro.core.lease import LeaseFile

        def journal(clock):
            # A short TTL makes the heartbeat beat every 0.1 s.
            journal = RunJournal("lock6", tmp_path)
            journal._lease = LeaseFile(journal.lock_path, ttl=0.3,
                                       clock=clock)
            return journal

        holder = journal(lambda: 1_000.0)
        # The successor's clock reads past every expiry the holder's
        # heartbeat writes, so it takes the live holder's lease over.
        successor = journal(lambda: 1_100.0)
        holder.acquire_lock()
        try:
            holder.record_chunk(0, 0, "vectoradd", [])
            successor.acquire_lock()
            assert holder._heartbeat.lost.wait(5.0)
            with pytest.raises(JournalLockedError, match="taken over"):
                holder.record_chunk(0, 1, "vectoradd", [])
            successor.record_chunk(0, 1, "vectoradd", [])
        finally:
            holder.release_lock()
            successor.release_lock()
        assert not successor.lock_path.exists()

    def test_journaled_sweep_refuses_locked_journal(self, tmp_path):
        """The user-facing guarantee: a second ``--resume`` of a live run
        exits with a typed error instead of corrupting the journal."""
        from repro.validation.resilience import JournalLockedError

        runner = SweepRunner(jobs=1, chunk_size=1, journal=True,
                             journal_dir=tmp_path, run_id="live")
        holder = RunJournal("live", tmp_path)
        holder.acquire_lock()
        try:
            with pytest.raises(JournalLockedError):
                runner.run(_kernels(), CONFIGS, num_cores=4)
        finally:
            holder.release_lock()
        # The journal was not disturbed: the run now proceeds normally.
        results = runner.run(_kernels(), CONFIGS, num_cores=4)
        assert not results[0].failures

    def test_sweep_releases_lock_after_run(self, tmp_path):
        runner = SweepRunner(jobs=1, chunk_size=1, journal=True,
                             journal_dir=tmp_path, run_id="released")
        runner.run(_kernels(), CONFIGS, num_cores=4)
        follower = RunJournal("released", tmp_path)
        follower.acquire_lock()  # released cleanly: no contention
        follower.release_lock()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="requires os.fork")
class TestJournalLockForkSafety:
    """A forked pool or serve worker must not keep the journal locked after
    its parent dies: the lease names the parent's pid, and the child holds
    no lock of its own."""

    def test_dead_parent_with_live_child_does_not_wedge(self, tmp_path):
        import signal
        import subprocess
        import sys

        pid_file = tmp_path / "child.pid"
        script = (
            "import os, time\n"
            "from repro.validation.resilience import RunJournal\n"
            f"j = RunJournal('forklock', {str(tmp_path)!r})\n"
            "j.acquire_lock()\n"
            "pid = os.fork()\n"
            "if pid == 0:\n"
            "    time.sleep(60)\n"
            "    os._exit(0)\n"
            f"open({str(pid_file)!r}, 'w').write(str(pid))\n"
            "os._exit(0)\n"  # the parent dies without release_lock()
        )
        subprocess.run([sys.executable, "-c", script], check=True,
                       env=dict(os.environ, PYTHONPATH="src"),
                       cwd=os.path.dirname(os.path.dirname(__file__)) or ".")
        child = int(pid_file.read_text())
        try:
            os.kill(child, 0)  # the forked child is still alive
            started = time.monotonic()
            journal = RunJournal("forklock", tmp_path)
            journal.acquire_lock()
            assert time.monotonic() - started < 5.0
            journal.release_lock()
        finally:
            os.kill(child, signal.SIGKILL)
