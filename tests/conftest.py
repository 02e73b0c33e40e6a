"""Shared fixtures for the G-MAP test suite.

Fixtures favour tiny workloads and small core counts so the full suite stays
fast; accuracy-sensitive integration tests use the paper baseline directly.

Every test runs with ``GMAP_CACHE_DIR`` and ``GMAP_JOURNAL_DIR`` pointing
into one temporary directory of the session, so nothing reads or writes
the user's ``~/.cache/gmap``; subprocesses inherit the same locations.  A
test of the default locations unsets them with ``monkeypatch.delenv``.

Hypothesis runs under the ``gmap`` settings profile: every phase but
``explain``.  After a failure that phase re-runs the test many times to
comment the falsifying example; on the simulator's model tests that can
take from tens of seconds to minutes, and hundreds of MB, before anything
is reported.  Each test's own ``@settings`` (``max_examples``,
``deadline``) still applies.
"""

from __future__ import annotations

import pytest

from repro.core.cache import ENV_CACHE_DIR
from repro.core.profiler import GmapProfiler
from repro.gpu.hierarchy import LaunchConfig
from repro.memsim.config import CacheConfig, DramConfig, SimConfig
from repro.validation.resilience import ENV_JOURNAL_DIR
from repro.workloads import suite

try:
    from hypothesis import Phase, settings
except ImportError:  # CI's service jobs install pytest without hypothesis
    pass
else:
    settings.register_profile(
        "gmap", phases=[phase for phase in Phase if phase is not Phase.explain])
    settings.load_profile("gmap")


@pytest.fixture(scope="session", autouse=True)
def hermetic_gmap_dirs(tmp_path_factory):
    """The artifact cache and run journal of the session, in a temp dir."""
    root = tmp_path_factory.mktemp("gmap-home")
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv(ENV_CACHE_DIR, str(root / "cache"))
        patch.setenv(ENV_JOURNAL_DIR, str(root / "journal"))
        yield root


@pytest.fixture(scope="session")
def tiny_kmeans():
    return suite.make("kmeans", scale="tiny")


@pytest.fixture(scope="session")
def tiny_vectoradd():
    return suite.make("vectoradd", scale="tiny")


@pytest.fixture(scope="session")
def tiny_bfs():
    return suite.make("bfs", scale="tiny")


@pytest.fixture(scope="session")
def kmeans_profile(tiny_kmeans):
    return GmapProfiler().profile(tiny_kmeans)


@pytest.fixture(scope="session")
def vectoradd_profile(tiny_vectoradd):
    return GmapProfiler().profile(tiny_vectoradd)


@pytest.fixture
def small_launch():
    """2 blocks x 64 threads: 2 warps per block."""
    return LaunchConfig(grid_dim=2, block_dim=64)


@pytest.fixture
def small_config():
    """A fast 4-core configuration for simulator tests."""
    return SimConfig(
        num_cores=4,
        l1=CacheConfig(size=8 * 1024, assoc=4, line_size=128),
        l2=CacheConfig(size=256 * 1024, assoc=8, line_size=128,
                       hit_latency=30, banks=8),
        dram=DramConfig(channels=4),
    )
