"""A proxy identical to its original is simulated once, exactly.

When every distribution of a kernel's profile is a point mass, Algorithm 1
samples the original stream back, and the proxy's simulated input equals
the original's (:attr:`BenchmarkPipeline.proxy_is_original`).  Every
engine then does the work once: the SIMT pair copies the original's
:class:`SimResult`, the flat drain and the one-pass multi-config replay
run once, and the analytic per-geometry scans are shared.  These tests pin
that the shortcut is exact (a deduplicated proxy equals a forced
simulation field for field, ``per_core_l1``, ``barriers_crossed``,
``texture``, ``constant`` and ``shared_accesses`` included), that it never
fires on a proxy a simulator could tell apart, and that it survives the
artifact cache, the pair cache and worker processes.
"""

from __future__ import annotations

import copy
from functools import lru_cache, wraps

import pytest

from repro.analytical.analytic import AnalyticCacheModel
from repro.core.backend import numpy_available
from repro.core.cache import ArtifactCache
from repro.gpu.executor import flat_drain
from repro.memsim import vectorized
from repro.memsim.config import (
    PAPER_BASELINE,
    CacheConfig,
    DramConfig,
    PrefetcherConfig,
)
from repro.memsim.simulator import SimtSimulator
from repro.validation.harness import (
    BenchmarkPipeline,
    analytic_sweep,
    build_pipeline,
    replay_sweep,
    simulate_pair,
)
from repro.validation.parallel import SweepRunner
from repro.validation.sweeps import l1_sweep
from repro.workloads import suite

KB = 1024
NUM_CORES = 8
SEED = 1234
needs_numpy = pytest.mark.skipif(
    not numpy_available(), reason="the numpy backend needs numpy")
BACKENDS = ("python", pytest.param("numpy", marks=needs_numpy))
#: Kernels whose tiny-scale profiles are point masses at every warp, so the
#: proxy samples the original back.
IDENTICAL = ("blackscholes", "cp", "nw", "scalarprod", "srad", "stencil3d",
             "vectoradd")

FIG6A_POINT = PAPER_BASELINE.with_(
    num_cores=NUM_CORES,
    l1=CacheConfig(size=16 * KB, assoc=4, line_size=128))
STREAM_DRAM_POINT = PAPER_BASELINE.with_(
    num_cores=NUM_CORES,
    l2=CacheConfig(size=512 * KB, assoc=4, line_size=128, hit_latency=30,
                   banks=8),
    l2_prefetcher=PrefetcherConfig(kind="stream", degree=8, stream_window=8),
    dram=DramConfig(bus_width=8, channels=4, mapping="ChRaBaRoCo"))
GTO_POINT = FIG6A_POINT.with_(scheduler="gto")


@lru_cache(maxsize=None)
def _pipeline(name: str, backend: str) -> BenchmarkPipeline:
    return build_pipeline(suite.make(name, scale="tiny"), num_cores=NUM_CORES,
                          seed=SEED, backend=backend)


def _fresh(pipeline: BenchmarkPipeline, **changes) -> BenchmarkPipeline:
    """The same artifacts in a new pipeline with empty memos."""
    fields = dict(
        kernel=pipeline.kernel,
        profile=pipeline.profile,
        original_assignments=pipeline.original_assignments,
        proxy_assignments=pipeline.proxy_assignments,
        profiling_seconds=0.0,
        generation_seconds=0.0,
    )
    fields.update(changes)
    return BenchmarkPipeline(**fields)


def _reference_predicate(pipeline: BenchmarkPipeline) -> bool:
    """The predicate spelled out as nested tuples of the simulated fields."""
    def simulated(assignments):
        return [
            (core.core_id, [[(warp.warp_id, warp.block, warp.transactions)
                             for warp in wave] for wave in core.waves])
            for core in assignments
        ]
    return (simulated(pipeline.original_assignments)
            == simulated(pipeline.proxy_assignments))


def _count_calls(monkeypatch, owner, name):
    """Wrap ``owner.name``; the list records each call's first argument."""
    calls = []
    wrapped = getattr(owner, name)

    @wraps(wrapped)
    def counted(*args, **kwargs):
        calls.append(args[0])
        return wrapped(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.fixture
def run_calls(monkeypatch):
    """The simulators of every :meth:`SimtSimulator.run` call of the test."""
    return _count_calls(monkeypatch, SimtSimulator, "run")


def _assert_no_shared_blocks(first, second):
    for name in ("l1", "l2", "dram", "texture", "constant"):
        assert getattr(first, name) is not getattr(second, name), name
    assert first.per_core_l1 is not second.per_core_l1
    for ours, theirs in zip(first.per_core_l1, second.per_core_l1):
        assert ours is not theirs


# -- the predicate ---------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", suite.available())
def test_predicate_compares_exactly_the_simulated_fields(name, backend):
    pipeline = _pipeline(name, backend)
    assert pipeline.proxy_is_original == _reference_predicate(pipeline)
    assert pipeline.proxy_is_original == (name in IDENTICAL)


def test_predicate_ignores_instructions_and_active_lanes():
    pipeline = _pipeline("srad", "python")
    proxy = copy.deepcopy(pipeline.proxy_assignments)
    warp = proxy[0].waves[0][0]
    warp.instructions = warp.instructions[1:]
    warp.active_lanes += 1
    assert _fresh(pipeline, proxy_assignments=proxy).proxy_is_original


# -- SIMT exactness --------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", IDENTICAL)
@pytest.mark.parametrize("config", (FIG6A_POINT, STREAM_DRAM_POINT),
                         ids=("fig6a", "stream-dram"))
def test_deduplicated_pair_equals_forced_simulation(name, backend, config,
                                                    run_calls):
    pipeline = _pipeline(name, backend)
    pair = simulate_pair(pipeline, config)
    assert len(run_calls) == 1
    forced = SimtSimulator(config).run(pipeline.proxy_assignments)
    assert pair.proxy == forced
    assert pair.original == forced
    _assert_no_shared_blocks(pair.original, pair.proxy)


def test_schedpself_proxy_is_still_simulated(run_calls):
    pipeline = _pipeline("srad", "python")
    assert pipeline.proxy_is_original
    pair = simulate_pair(pipeline, GTO_POINT, track_scheduling=True)
    assert len(run_calls) == 2
    proxy_config = run_calls[1].config
    assert proxy_config.scheduler == "schedpself"
    assert pair.proxy == SimtSimulator(proxy_config).run(
        pipeline.proxy_assignments)


def test_untracked_scheduler_is_deduplicated(run_calls):
    pipeline = _pipeline("srad", "python")
    pair = simulate_pair(pipeline, GTO_POINT, track_scheduling=False)
    assert len(run_calls) == 1
    assert pair.proxy == SimtSimulator(GTO_POINT).run(
        pipeline.proxy_assignments)


def _first_warp_with_memory(assignments):
    for core in assignments:
        for wave in core.waves:
            for warp in wave:
                for index, txn in enumerate(warp.transactions):
                    if txn[0] >= 0:
                        return warp, index
    raise AssertionError("no memory transaction")


def test_proxy_differing_in_one_address_is_simulated(run_calls):
    pipeline = _pipeline("srad", "python")
    proxy = copy.deepcopy(pipeline.proxy_assignments)
    warp, index = _first_warp_with_memory(proxy)
    pc, address, size, is_store = warp.transactions[index]
    warp.transactions[index] = (pc, address + (1 << 20), size, is_store)
    changed = _fresh(pipeline, proxy_assignments=proxy)
    assert not changed.proxy_is_original
    pair = simulate_pair(changed, FIG6A_POINT)
    assert len(run_calls) == 2
    assert pair.proxy == SimtSimulator(FIG6A_POINT).run(proxy)


def test_proxy_differing_in_one_block_is_simulated(run_calls):
    pipeline = _pipeline("srad", "python")
    proxy = copy.deepcopy(pipeline.proxy_assignments)
    warp = proxy[0].waves[0][-1]
    warp.block += 1000
    changed = _fresh(pipeline, proxy_assignments=proxy)
    assert not changed.proxy_is_original
    simulate_pair(changed, FIG6A_POINT)
    assert len(run_calls) == 2


# -- flat and analytic sharing ---------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", ("srad", "kmeans"))
def test_proxy_model_is_original_model_iff_identical(name, backend):
    pipeline = _fresh(_pipeline(name, backend))
    shared = pipeline.proxy_model(backend) is pipeline.original_model(backend)
    assert shared == pipeline.proxy_is_original
    assert (pipeline.proxy_flat() is pipeline.original_flat()) == shared
    assert shared == (name == "srad")


@pytest.mark.parametrize("backend", BACKENDS)
def test_analytic_sweep_scans_an_identical_proxy_once(backend, monkeypatch):
    pipeline = _pipeline("srad", backend)
    configs = l1_sweep(reduced=True, keep=6)
    scans = _count_calls(monkeypatch, AnalyticCacheModel, "_scan")
    shared = analytic_sweep(_fresh(pipeline), configs, backend=backend)
    deduplicated = len(scans)
    scans.clear()
    separate = analytic_sweep(
        _fresh(pipeline, _proxy_is_original=False), configs, backend=backend)
    assert deduplicated > 0
    assert 2 * deduplicated == len(scans)
    model = AnalyticCacheModel.from_flat(
        flat_drain(pipeline.proxy_assignments), backend)
    for pair, other in zip(shared.pairs, separate.pairs):
        assert pair.analytic
        assert pair.proxy == model.predict(pair.config) == other.proxy
        assert pair.original == other.original
        _assert_no_shared_blocks(pair.original, pair.proxy)


@pytest.mark.parametrize("backend", BACKENDS)
def test_replay_sweep_replays_an_identical_proxy_once(backend, monkeypatch):
    pipeline = _pipeline("srad", backend)
    configs = l1_sweep(reduced=True, keep=2)
    calls = _count_calls(monkeypatch, vectorized, "simulate_flat_multi")
    sweep = replay_sweep(_fresh(pipeline), configs, backend=backend)
    assert len(calls) == 1
    proxies = vectorized.simulate_flat_multi(
        flat_drain(pipeline.proxy_assignments), configs, backend=backend)
    assert [pair.proxy for pair in sweep.pairs] == proxies
    for pair in sweep.pairs:
        _assert_no_shared_blocks(pair.original, pair.proxy)


@needs_numpy
def test_flat_pair_of_an_identical_proxy():
    pipeline = _pipeline("srad", "numpy")
    pair = simulate_pair(_fresh(pipeline), FIG6A_POINT, sim_mode="flat",
                         backend="numpy")
    forced = simulate_pair(_fresh(pipeline, _proxy_is_original=False),
                           FIG6A_POINT, sim_mode="flat", backend="numpy")
    assert pair.proxy == forced.proxy
    _assert_no_shared_blocks(pair.original, pair.proxy)


# -- cached and parallel paths ---------------------------------------------


@pytest.mark.parametrize("name", ("srad", "kmeans"))
def test_rehydrated_pipeline_reaches_the_same_predicate(name, tmp_path):
    cache = ArtifactCache(tmp_path / "cache")
    kernel = suite.make(name, scale="tiny")
    cold = build_pipeline(kernel, num_cores=NUM_CORES, seed=SEED, cache=cache)
    warm = build_pipeline(kernel, num_cores=NUM_CORES, seed=SEED, cache=cache)
    assert warm.from_cache and not cold.from_cache
    assert warm.proxy_is_original == cold.proxy_is_original
    assert warm.proxy_is_original == (name == "srad")


def test_warm_pair_cache_returns_the_cold_pair(tmp_path, run_calls):
    cache = ArtifactCache(tmp_path / "cache")
    pipeline = build_pipeline(suite.make("srad", scale="tiny"),
                              num_cores=NUM_CORES, seed=SEED, cache=cache)
    cold = simulate_pair(pipeline, FIG6A_POINT, cache=cache)
    assert len(run_calls) == 1
    warm = simulate_pair(pipeline, FIG6A_POINT, cache=cache)
    assert len(run_calls) == 1
    assert warm.original == cold.original
    assert warm.proxy == cold.proxy
    _assert_no_shared_blocks(warm.original, warm.proxy)


def test_parallel_sweep_matches_serial():
    kernels = [suite.make(name, scale="tiny") for name in ("srad", "kmeans")]
    configs = l1_sweep(reduced=True, keep=2)

    def pairs(jobs):
        sweeps = SweepRunner(jobs=jobs, use_cache=False).run(
            kernels, configs, num_cores=NUM_CORES, seed=SEED)
        return [[(pair.original.to_dict(), pair.proxy.to_dict())
                 for pair in sweep.pairs] for sweep in sweeps]

    serial = pairs(1)
    assert [len(points) for points in serial] == [2, 2]
    assert pairs(2) == serial
