"""Tests for the fleet-shared single-flight result cache.

The cross-process tests fork real children: single-flight coalescing and
crash-released locks are kernel behaviours (``flock`` ownership dies with
the process), so in-process fakes would prove nothing.
"""

import multiprocessing
import os
import time

import pytest

from repro.core.integrity import integrity_events
from repro.core.shared_cache import (
    STATUS_BUILT,
    STATUS_COALESCED,
    STATUS_HIT,
    STATUS_UNCACHED,
    SharedResultCache,
    job_key,
)

_CTX = multiprocessing.get_context("fork")


# -- job_key ----------------------------------------------------------------

class TestJobKey:
    def test_deterministic(self):
        a = job_key("simulate", {"target": "vectoradd", "cores": 2}, None)
        b = job_key("simulate", {"cores": 2, "target": "vectoradd"}, None)
        assert a == b  # canonical JSON: param order is irrelevant

    def test_distinguishes_inputs(self):
        base = job_key("simulate", {"target": "vectoradd"}, None)
        assert job_key("profile", {"target": "vectoradd"}, None) != base
        assert job_key("simulate", {"target": "transpose"}, None) != base
        assert job_key("simulate", {"target": "vectoradd"}, "numpy") != base

    def test_none_backend_equals_empty(self):
        assert job_key("simulate", {}, None) == job_key("simulate", {}, "")


# -- store/load -------------------------------------------------------------

class TestEntryIO:
    def test_roundtrip(self, tmp_path):
        cache = SharedResultCache(tmp_path)
        key = job_key("simulate", {"n": 1}, None)
        assert cache.load(key) is None
        assert cache.store(key, {"result": {"cycles": 42}})
        assert cache.load(key) == {"result": {"cycles": 42}}

    def test_corrupt_entry_quarantined_not_served(self, tmp_path):
        cache = SharedResultCache(tmp_path)
        key = job_key("simulate", {"n": 2}, None)
        cache.store(key, {"result": 1})
        cache.entry_path(key).write_bytes(b"\x00garbage\x00")
        before = integrity_events.snapshot()
        assert cache.load(key) is None
        delta = integrity_events.delta(before)
        assert delta.get("shared_cache_poisoned") == 1
        assert delta.get("quarantine") == 1
        assert not cache.entry_path(key).exists()  # moved aside
        assert list((tmp_path / "quarantine").iterdir())

    def test_truncated_gzip_quarantined(self, tmp_path):
        cache = SharedResultCache(tmp_path)
        key = job_key("simulate", {"n": 3}, None)
        cache.store(key, {"result": list(range(100))})
        blob = cache.entry_path(key).read_bytes()
        cache.entry_path(key).write_bytes(blob[: len(blob) // 2])
        assert cache.load(key) is None
        assert list((tmp_path / "quarantine").iterdir())

    def test_store_failure_is_soft(self, tmp_path):
        target = tmp_path / "cache"
        cache = SharedResultCache(target)
        key = job_key("simulate", {"n": 4}, None)
        target.mkdir()
        # A regular file where the results/ tree should be: every store
        # hits OSError on mkdir.  (chmod tricks don't bind — tests run as
        # root in CI containers.)
        (target / "results").write_text("not a directory")
        assert cache.store(key, {"result": 1}) is False


# -- single flight, one process ---------------------------------------------

class TestSingleFlight:
    def test_built_then_hit(self, tmp_path):
        cache = SharedResultCache(tmp_path)
        key = job_key("simulate", {"n": 5}, None)
        calls = []

        def build():
            calls.append(1)
            return {"result": 7}

        body, status = cache.single_flight(key, build)
        assert (body, status) == ({"result": 7}, STATUS_BUILT)
        body, status = cache.single_flight(key, build)
        assert (body, status) == ({"result": 7}, STATUS_HIT)
        assert len(calls) == 1

    def test_uncacheable_builds_every_time(self, tmp_path):
        cache = SharedResultCache(tmp_path)
        key = job_key("simulate", {"n": 6}, None)
        calls = []

        def build():
            calls.append(1)
            return {"result": 7, "partial": True}

        for _ in range(2):
            body, status = cache.single_flight(
                key, build, cacheable=lambda b: not b.get("partial"))
            assert status == STATUS_UNCACHED
        assert len(calls) == 2
        assert not cache.entry_path(key).exists()

    def test_build_exception_releases_lock(self, tmp_path):
        cache = SharedResultCache(tmp_path)
        key = job_key("simulate", {"n": 7}, None)
        with pytest.raises(RuntimeError):
            cache.single_flight(key, self._boom)
        # The key is not wedged: a second attempt builds fine.
        body, status = cache.single_flight(key, lambda: {"result": 1})
        assert status == STATUS_BUILT

    @staticmethod
    def _boom():
        raise RuntimeError("build died")


# -- single flight, across processes ----------------------------------------

def _coalesce_child(root, key, marker_dir, queue, backend):
    cache = SharedResultCache(root, poll_interval=0.01,
                              lock_backend=backend, lease_ttl=5.0)

    def build():
        # A unique file per executed build: the cross-process execution
        # counter (atomic via O_EXCL creation).
        path = os.path.join(marker_dir, f"build-{os.getpid()}")
        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        os.close(fd)
        time.sleep(0.3)  # hold the lock long enough to force overlap
        return {"result": {"value": 99}}

    body, status = cache.single_flight(key, build)
    queue.put((os.getpid(), status, body))


def _crash_holding_lock(root, key, backend, lease_ttl):
    cache = SharedResultCache(root, lock_backend=backend,
                              lease_ttl=lease_ttl)
    handle = cache._acquire(key)
    assert handle is not None
    os._exit(1)  # die without releasing: recovery is the backend's job


@pytest.mark.parametrize("backend", ["fcntl", "lease"])
class TestCrossProcess:
    """Both single-flight lock backends must satisfy the same contract:
    one build per key across processes, and no wedged keys after a
    builder dies (the kernel drops an flock; a lease expires and is
    taken over)."""

    def test_two_processes_one_build(self, tmp_path, backend):
        """Same key from two processes: one build, both get the artifact."""
        root = tmp_path / "cache"
        marker_dir = tmp_path / "markers"
        marker_dir.mkdir()
        key = job_key("simulate", {"herd": 1}, None)
        queue = _CTX.Queue()
        children = [
            _CTX.Process(target=_coalesce_child,
                         args=(str(root), key, str(marker_dir), queue,
                               backend))
            for _ in range(2)
        ]
        for child in children:
            child.start()
        results = [queue.get(timeout=30) for _ in children]
        for child in children:
            child.join(10)
        builds = list(marker_dir.iterdir())
        assert len(builds) == 1, "the build must execute exactly once"
        statuses = sorted(status for _pid, status, _body in results)
        assert STATUS_BUILT in statuses
        assert set(statuses) <= {STATUS_BUILT, STATUS_COALESCED, STATUS_HIT}
        bodies = [body for _pid, _status, body in results]
        assert bodies[0] == bodies[1] == {"result": {"value": 99}}

    def test_killed_builder_releases_lock(self, tmp_path, backend):
        """A builder dying mid-build must not wedge the key: an flock
        dies with the process; a lease expires (its heartbeat died too)
        and the next caller takes it over."""
        root = tmp_path / "cache"
        key = job_key("simulate", {"crash": 1}, None)
        lease_ttl = 0.5
        child = _CTX.Process(target=_crash_holding_lock,
                             args=(str(root), key, backend, lease_ttl))
        child.start()
        child.join(10)
        assert child.exitcode == 1
        before = integrity_events.snapshot()
        cache = SharedResultCache(root, lock_timeout=30.0,
                                  lock_backend=backend, lease_ttl=lease_ttl)
        started = time.monotonic()
        body, status = cache.single_flight(key, lambda: {"result": 5})
        assert status == STATUS_BUILT
        # Well under lock_timeout: the lock was recovered (kernel release
        # or lease takeover), not waited out.
        assert time.monotonic() - started < 5.0
        if backend == "lease":
            delta = integrity_events.delta(before)
            assert delta.get("shared_cache_lease_takeover") == 1


# -- degraded locking telemetry ---------------------------------------------

class TestUnlockedTelemetry:
    def test_unlocked_event_fires_once_per_process(self, tmp_path,
                                                   monkeypatch):
        """Builds that degrade to uncoalesced (no engageable lock) flag
        the condition on the integrity ledger exactly once per process,
        however many keys degrade."""
        from repro.core import shared_cache as sc

        was_set = sc._unlocked_reported.is_set()
        sc._unlocked_reported.clear()
        monkeypatch.setattr(sc, "_HAVE_FCNTL", False)
        try:
            cache = SharedResultCache(tmp_path, lock_backend="fcntl")
            before = integrity_events.snapshot()
            for n in range(3):
                key = job_key("simulate", {"unlocked": n}, None)
                body, status = cache.single_flight(key,
                                                   lambda: {"result": n})
                assert status == STATUS_BUILT
            delta = integrity_events.delta(before)
            assert delta.get("shared_cache_unlocked") == 1
        finally:
            if was_set:
                sc._unlocked_reported.set()
            else:
                sc._unlocked_reported.clear()


# -- chaos poison hook ------------------------------------------------------

class TestPoisonInjection:
    def test_fault_injected_store_quarantines_then_rebuilds(self, tmp_path):
        """The GMAP_FAULT_INJECT corrupt hook poisons a stored entry; the
        next same-key access must quarantine and rebuild, never serve it."""
        from repro.validation import resilience

        cache = SharedResultCache(tmp_path)
        key = job_key("simulate", {"poison": 1}, None)
        resilience.arm_fault("corrupt:*:*", tmp_path / "fault-state")
        try:
            body, status = cache.single_flight(key, lambda: {"result": 1})
        finally:
            resilience.arm_fault(None, None)
        assert status == STATUS_BUILT
        assert body == {"result": 1}  # the submitter still gets its result

        before = integrity_events.snapshot()
        body, status = cache.single_flight(key, lambda: {"result": 1})
        delta = integrity_events.delta(before)
        assert delta.get("shared_cache_poisoned") == 1
        assert status == STATUS_BUILT  # rebuilt, not served poisoned
        assert body == {"result": 1}
        assert list((tmp_path / "quarantine").iterdir())

        # Rebuild stored a clean entry: a third access is a plain hit.
        body, status = cache.single_flight(key, lambda: {"result": 1})
        assert status == STATUS_HIT


class TestTransientReadErrors:
    """Regression: transient IO failures must not quarantine valid entries.

    ``gzip.BadGzipFile`` is an ``OSError`` subclass, so corruption has to
    be caught *before* the transient-``OSError`` arm; ordering them the
    other way round silently turned every EACCES/EMFILE blip into a
    quarantine that destroyed good shared entries under load.
    """

    def test_transient_read_error_is_miss_not_quarantine(
            self, tmp_path, monkeypatch):
        cache = SharedResultCache(tmp_path)
        key = job_key("simulate", {"n": 40}, None)
        assert cache.store(key, {"result": 7})

        def denied(*args, **kwargs):
            raise PermissionError(13, "permission denied")

        before = integrity_events.snapshot()
        monkeypatch.setattr("repro.core.store.gzip.open", denied)
        assert cache.load(key) is None  # miss, nothing more
        monkeypatch.undo()

        delta = integrity_events.delta(before)
        assert "shared_cache_poisoned" not in delta
        assert cache.entry_path(key).exists()  # entry survived the blip
        assert not (tmp_path / "quarantine").exists()
        assert cache.load(key) == {"result": 7}  # served once IO recovers

    def test_corruption_still_quarantines(self, tmp_path):
        cache = SharedResultCache(tmp_path)
        key = job_key("simulate", {"n": 41}, None)
        assert cache.store(key, {"result": 8})
        blob = cache.entry_path(key).read_bytes()
        cache.entry_path(key).write_bytes(blob[:-4] + b"\xff\xff\xff\xff")
        before = integrity_events.snapshot()
        assert cache.load(key) is None
        delta = integrity_events.delta(before)
        assert delta.get("shared_cache_poisoned") == 1
        assert not cache.entry_path(key).exists()
