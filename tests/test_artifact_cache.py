"""Correctness of the content-addressed artifact cache.

The cache must be invisible: warm results equal cold results exactly, any
input that affects an artifact changes its key, and a damaged entry is a
miss (recompute), never an error or a wrong answer.
"""

from __future__ import annotations

import gzip

import pytest

from repro.core.backend import numpy_available
from repro.core.cache import (
    ArtifactCache,
    CACHE_SCHEMA_VERSION,
    config_fingerprint,
    kernel_fingerprint,
    resolve_cache,
    sim_result_from_payload,
    sim_result_to_payload,
)
from repro.gpu.executor import execute_kernel
from repro.memsim.simulator import SimtSimulator
from repro.validation.harness import build_pipeline, simulate_pair
from repro.workloads import suite


@pytest.fixture
def cache(tmp_path):
    return ArtifactCache(tmp_path / "cache")


@pytest.fixture
def kernel():
    return suite.make("kmeans", "tiny")


def _pipeline_transactions(pipeline):
    """Flatten every (warp-trace) access of both assignment sets."""
    out = []
    for assignments in (pipeline.original_assignments,
                        pipeline.proxy_assignments):
        for assignment in assignments:
            for wave in assignment.waves:
                for trace in wave:
                    out.append((assignment.core_id, trace.block,
                                trace.warp_id, tuple(trace.transactions)))
    return out


class TestPipelineCache:
    """Pipeline entries of a python-backend pipeline (gzipped JSON);
    :class:`TestNumpyPipelineCache` runs the same tests on ``.npz``."""

    backend = "python"

    def build(self, kernel, cache):
        return build_pipeline(kernel, num_cores=4, cache=cache,
                              backend=self.backend)

    def test_warm_equals_cold(self, cache, kernel):
        cold = self.build(kernel, cache)
        warm = self.build(kernel, cache)
        assert not cold.from_cache
        assert warm.from_cache
        assert warm.cache_key == cold.cache_key
        assert _pipeline_transactions(warm) == _pipeline_transactions(cold)
        assert warm.profile.to_dict() == cold.profile.to_dict()
        assert cache.counters.hits == 1
        assert cache.counters.misses == 1

    def test_warm_pipeline_simulates_identically(self, cache, kernel,
                                                 small_config):
        cold = self.build(kernel, cache)
        warm = self.build(kernel, cache)
        run = lambda p: SimtSimulator(small_config).run(  # noqa: E731
            p.original_assignments)
        assert run(warm).to_dict() == run(cold).to_dict()

    @pytest.mark.parametrize("change", [
        {"seed": 999},
        {"scale_factor": 0.5},
        {"stride_model": "markov"},
        {"num_cores": 8},
        {"max_blocks_per_core": 4},
    ])
    def test_key_changes_with_inputs(self, cache, kernel, change):
        base = dict(seed=1234, scale_factor=1.0, stride_model="iid",
                    num_cores=4, max_blocks_per_core=8)
        varied = dict(base, **change)
        assert (cache.pipeline_key(kernel, **base)
                != cache.pipeline_key(kernel, **varied))

    def test_key_changes_with_kernel(self, cache):
        params = dict(seed=1234, scale_factor=1.0, stride_model="iid",
                      num_cores=4, max_blocks_per_core=8)
        a = cache.pipeline_key(suite.make("kmeans", "tiny"), **params)
        b = cache.pipeline_key(suite.make("vectoradd", "tiny"), **params)
        c = cache.pipeline_key(suite.make("kmeans", "small"), **params)
        assert len({a, b, c}) == 3

    def test_key_is_stable(self, cache, kernel):
        params = dict(seed=1234, scale_factor=1.0, stride_model="iid",
                      num_cores=4, max_blocks_per_core=8)
        assert (cache.pipeline_key(kernel, **params)
                == cache.pipeline_key(suite.make("kmeans", "tiny"), **params))

    def test_corrupted_entry_recomputes(self, cache, kernel):
        cold = self.build(kernel, cache)
        path = cache.pipeline_entry_path(cold.cache_key, self.backend)
        assert path.exists()
        path.write_bytes(b"not a cache entry at all")
        again = self.build(kernel, cache)
        assert not again.from_cache
        assert cache.counters.errors >= 1
        assert _pipeline_transactions(again) == _pipeline_transactions(cold)

    def test_truncated_entry_recomputes(self, cache, kernel):
        cold = self.build(kernel, cache)
        path = cache.pipeline_entry_path(cold.cache_key, self.backend)
        path.write_bytes(path.read_bytes()[:20])
        again = self.build(kernel, cache)
        assert not again.from_cache
        assert _pipeline_transactions(again) == _pipeline_transactions(cold)

    def test_schema_version_mismatch_is_miss(self, cache, kernel):
        import json

        cold = self.build(kernel, cache)
        path = cache.pipeline_entry_path(cold.cache_key, self.backend)
        if path.suffix == ".npz":
            import numpy as np

            from repro.memsim import arrays as columnar

            with np.load(path) as payload:
                columns = {name: payload[name] for name in payload.files}
            meta = json.loads(
                bytes(columns.pop(columnar.META_MEMBER).tobytes()).decode()
            )
            columnar.save_columns(
                path, columns, columnar.FORMAT_PIPELINE,
                extra_meta={
                    "cache_schema": CACHE_SCHEMA_VERSION + 1,
                    "meta": meta["meta"],
                },
            )
        else:
            with gzip.open(path, "rt", encoding="utf-8") as fh:
                payload = json.load(fh)
            payload["schema"] = CACHE_SCHEMA_VERSION + 1
            with gzip.open(path, "wt", encoding="utf-8") as fh:
                json.dump(payload, fh)
        again = self.build(kernel, cache)
        assert not again.from_cache
        assert _pipeline_transactions(again) == _pipeline_transactions(cold)


@pytest.mark.skipif(not numpy_available(), reason="needs numpy")
class TestNumpyPipelineCache(TestPipelineCache):
    """The pipeline-cache tests on a numpy-backend pipeline (``.npz``)."""

    backend = "numpy"


class TestPairCache:
    def test_warm_pair_equals_cold(self, cache, kernel, small_config):
        pipeline = build_pipeline(kernel, num_cores=4, cache=cache)
        cold = simulate_pair(pipeline, small_config, cache=cache)
        warm = simulate_pair(pipeline, small_config, cache=cache)
        assert warm.original.to_dict() == cold.original.to_dict()
        assert warm.proxy.to_dict() == cold.proxy.to_dict()
        assert warm.original.measured_p_self == cold.original.measured_p_self
        assert warm.original.per_core_l1 == cold.original.per_core_l1

    def test_pair_key_varies_with_config(self, cache, kernel, small_config):
        pipeline = build_pipeline(kernel, num_cores=4, cache=cache)
        other = small_config.with_(scheduler="gto")
        assert (cache.pair_key(pipeline.cache_key, small_config)
                != cache.pair_key(pipeline.cache_key, other))

    def test_corrupted_pair_recomputes(self, cache, kernel, small_config):
        pipeline = build_pipeline(kernel, num_cores=4, cache=cache)
        cold = simulate_pair(pipeline, small_config, cache=cache)
        key = cache.pair_key(pipeline.cache_key, small_config, True)
        cache.content.path("pair", key).write_bytes(b"\x00garbage")
        warm = simulate_pair(pipeline, small_config, cache=cache)
        assert warm.original.to_dict() == cold.original.to_dict()

    def test_no_cache_key_means_no_pair_caching(self, cache, kernel,
                                                small_config):
        pipeline = build_pipeline(kernel, num_cores=4)  # no cache -> no key
        assert pipeline.cache_key is None
        simulate_pair(pipeline, small_config, cache=cache)
        assert cache.counters.stores == 0


class TestRoundTrip:
    def test_sim_result_payload_is_exact(self, kernel, small_config):
        pipeline = build_pipeline(kernel, num_cores=4)
        result = SimtSimulator(small_config).run(
            pipeline.original_assignments)
        restored = sim_result_from_payload(sim_result_to_payload(result))
        assert restored.to_dict() == result.to_dict()
        assert restored.measured_p_self == result.measured_p_self
        assert restored.barriers_crossed == result.barriers_crossed
        assert restored.per_core_l1 == result.per_core_l1
        assert restored.cycles == result.cycles

    def test_fingerprints_are_hex_digests(self, kernel, small_config):
        for fp in (kernel_fingerprint(kernel),
                   config_fingerprint(small_config)):
            assert len(fp) == 64
            int(fp, 16)


class TestResolveCache:
    def test_none_and_false_disable(self):
        assert resolve_cache(None) is None
        assert resolve_cache(False) is None

    def test_instance_passthrough(self, cache):
        assert resolve_cache(cache) is cache

    def test_true_uses_env_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GMAP_CACHE_DIR", str(tmp_path / "env-cache"))
        resolved = resolve_cache(True)
        assert resolved is not None
        assert str(resolved.root).startswith(str(tmp_path / "env-cache"))


def test_execute_kernel_unaffected_by_cache(cache, kernel):
    """The cache layer never mutates what it memoizes."""
    before = execute_kernel(kernel, 4)
    build_pipeline(kernel, num_cores=4, cache=cache)
    build_pipeline(kernel, num_cores=4, cache=cache)
    after = execute_kernel(kernel, 4)
    assert len(before) == len(after)
    for a, b in zip(before, after):
        assert a.core_id == b.core_id
        assert len(a.waves) == len(b.waves)
