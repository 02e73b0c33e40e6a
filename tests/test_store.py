"""The content store's one read rule, checked through every store user.

A missing entry is a miss.  A transient ``OSError`` (fd exhaustion,
permissions) is a miss that leaves the entry on disk, so the next read
serves it.  Unreadable content is quarantined with the same integrity
events each user recorded before the store existed.
"""

from __future__ import annotations

import builtins
import errno
import io
import os

import pytest

from repro.core.cache import ArtifactCache
from repro.core.integrity import integrity_events
from repro.core.shared_cache import SharedResultCache, job_key
from repro.core.store import ContentStore, StoreCounters
from repro.memsim.stats import SimResult
from repro.validation.harness import build_pipeline
from repro.validation.resilience import RunJournal
from repro.workloads import suite

CACHE_EVENTS = {"cache_rebuild": 1, "quarantine": 1}


def _pair(tmp_path):
    cache = ArtifactCache(tmp_path)
    key = "ab" * 32
    cache.store_pair(key, SimResult(cycles=1.0), SimResult(cycles=2.0))
    return (cache.content, cache.content.path("pair", key),
            lambda: cache.load_pair(key), CACHE_EVENTS)


def _sdprofile(tmp_path):
    from repro.analytical.profile_model import StackDistanceProfile

    cache = ArtifactCache(tmp_path)
    key = "cd" * 32
    cache.store_sd_profile(key, StackDistanceProfile(), {"cores": 2})
    return (cache.content, cache.content.path("sdprofile", key),
            lambda: cache.load_sd_profile(key), CACHE_EVENTS)


def _pipeline(tmp_path):
    cache = ArtifactCache(tmp_path)
    key = build_pipeline(suite.make("vectoradd", "tiny"), num_cores=2,
                         cache=cache).cache_key
    return (cache.content, cache.pipeline_entry_path(key),
            lambda: cache.load_pipeline(key), CACHE_EVENTS)


def _journal_chunk(tmp_path):
    journal = RunJournal("run", tmp_path)
    path = journal.record_chunk(0, 0, "vectoradd", [{"config": "f0"}])
    return (journal.content, path,
            lambda: journal.load_chunk(0, 0, ["f0"]), {"quarantine": 1})


def _shared_result(tmp_path):
    cache = SharedResultCache(tmp_path)
    key = job_key("simulate", {"n": 1}, None)
    assert cache.store(key, {"result": 1})
    return (cache.content, cache.entry_path(key), lambda: cache.load(key),
            {"shared_cache_poisoned": 1, "quarantine": 1})


USERS = {
    "pair": _pair,
    "sdprofile": _sdprofile,
    "pipeline-npz": _pipeline,
    "pipeline-json": _pipeline,
    "journal-chunk": _journal_chunk,
    "shared-result": _shared_result,
}


@pytest.fixture(params=sorted(USERS))
def user(request, tmp_path, monkeypatch):
    """``(store, entry path, read, corruption events)`` of one valid entry."""
    if request.param == "pipeline-npz":
        pytest.importorskip("numpy", exc_type=ImportError)
    if request.param == "pipeline-json":
        monkeypatch.setattr("repro.core.backend._HAVE_NUMPY", False)
    store, path, read, events = USERS[request.param](tmp_path)
    assert path.exists()
    assert read() is not None
    return store, path, read, events


def _fail_open(monkeypatch, path, code: int) -> None:
    """Make every ``open`` of ``path`` raise ``OSError(code)``."""
    real_open = io.open
    target = os.fspath(path)

    def flaky_open(file, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and os.fspath(file) == target:
            raise OSError(code, os.strerror(code), target)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", flaky_open)
    monkeypatch.setattr(io, "open", flaky_open)


class TestReadRule:
    @pytest.mark.parametrize("code", [errno.EMFILE, errno.EACCES])
    def test_transient_error_is_miss_and_keeps_entry(
            self, user, monkeypatch, code):
        store, path, read, _ = user
        before = integrity_events.snapshot()
        with monkeypatch.context() as patched:
            _fail_open(patched, path, code)
            assert read() is None
        assert integrity_events.delta(before) == {}
        assert path.exists()
        assert not (store.root / "quarantine").exists()
        assert store.counters.quarantined == 0
        assert read() is not None  # served once IO recovers

    def test_garbage_is_quarantined(self, user):
        store, path, read, events = user
        path.write_bytes(b"\x00injected-corruption\x00")
        before = integrity_events.snapshot()
        assert read() is None
        assert integrity_events.delta(before) == events
        assert not path.exists()
        assert len(list((store.root / "quarantine").iterdir())) == 1
        assert store.counters.quarantined == 1


class TestContentStore:
    def test_missing_entry_is_plain_miss(self, tmp_path):
        store = ContentStore(tmp_path, 1)
        assert store.load(store.path("pair", "ab" * 32), dict) is None
        assert store.counters == StoreCounters(misses=1)

    def test_wrong_schema_is_quarantined(self, tmp_path):
        path = ContentStore(tmp_path, 1).path("pair", "ab" * 32)
        assert ContentStore(tmp_path, 1).save(path, {"value": 1})
        newer = ContentStore(tmp_path, 2)
        assert newer.load(path, dict) is None
        assert newer.counters.quarantined == 1
        assert not path.exists()

    def test_failed_write_leaves_no_entry_and_no_temp(self, tmp_path):
        store = ContentStore(tmp_path, 1)
        path = store.path("pair", "ab" * 32)

        def broken(fh):
            fh.write(b"partial")
            raise OSError(errno.ENOSPC, "no space left on device")

        assert not store.write(path, broken)
        assert store.counters.errors == 1
        assert list(path.parent.iterdir()) == []
