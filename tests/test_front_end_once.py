"""One kernel execution per pipeline.

``build_pipeline`` executes each kernel once and hands the executed warp
traces to the profiler.  These tests hold it to the path it replaced —
``GmapProfiler(backend=b).profile(kernel)`` followed by a second, scalar
``execute_kernel`` — artifact for artifact, and guard that the kernel's
threads are materialised only once.
"""

from __future__ import annotations

import copy

import pytest

from repro.core.backend import numpy_available
from repro.core.generator import ProxyGenerator
from repro.core.profiler import GmapProfiler
from repro.gpu.executor import assigned_warp_traces, execute_kernel
from repro.validation import harness
from repro.validation.harness import build_pipeline
from repro.workloads import suite
from repro.workloads.base import KernelModel

NUM_CORES = 4
MAX_BLOCKS = 8
SEED = 7

BACKENDS = [
    "python",
    pytest.param("numpy", marks=pytest.mark.skipif(
        not numpy_available(), reason="numpy backend needs NumPy")),
]


def _assignment_key(assignments):
    """Everything a simulator reads from core assignments, per wave."""
    return [
        (a.core_id, [
            [(w.warp_id, w.block, w.transactions, w.instructions,
              w.active_lanes) for w in wave]
            for wave in a.waves
        ])
        for a in assignments
    ]


def _two_front_ends(kernel, backend, profiler=None):
    """The reference: profile, then execute the kernel again (scalar)."""
    profiler = profiler or GmapProfiler(backend=backend)
    profile = profiler.profile(kernel)
    original = execute_kernel(kernel, NUM_CORES, MAX_BLOCKS, backend="python")
    proxy = ProxyGenerator(profile, seed=SEED, backend=backend).generate(
        NUM_CORES, max_blocks_per_core=MAX_BLOCKS)
    return profile, original, proxy


def _pipeline(kernel, backend, profiler=None):
    # Verification is orthogonal to the front end (and flags barrier PCs
    # in some π sequences), so it is off: the artifacts are compared.
    return build_pipeline(
        kernel, num_cores=NUM_CORES, max_blocks_per_core=MAX_BLOCKS,
        seed=SEED, profiler=profiler, backend=backend, verify=False)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", suite.available())
def test_pipeline_matches_two_front_ends(name, backend):
    kernel = suite.make(name, scale="tiny")
    pipeline = _pipeline(kernel, backend)
    profile, original, proxy = _two_front_ends(kernel, backend)
    assert pipeline.profile.to_dict() == profile.to_dict()
    assert (_assignment_key(pipeline.original_assignments)
            == _assignment_key(original))
    assert (_assignment_key(pipeline.proxy_assignments)
            == _assignment_key(proxy))


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("options", [
    {"segment_size": 64},
    {"coalescing": False},
    {"reuse_semantics": "stack"},
], ids=["segment64", "no-coalescing", "stack-reuse"])
def test_non_default_profilers_keep_their_profile(options, backend):
    for name in ("kmeans", "bfs", "matmul_shared"):
        kernel = suite.make(name, scale="tiny")
        pipeline = _pipeline(
            kernel, backend, GmapProfiler(backend=backend, **options))
        profile, original, _ = _two_front_ends(
            kernel, backend, GmapProfiler(backend=backend, **options))
        assert pipeline.profile.to_dict() == profile.to_dict(), name
        assert (_assignment_key(pipeline.original_assignments)
                == _assignment_key(original)), name


def test_non_coalescing_profiler_refuses_warp_traces():
    kernel = suite.make("vectoradd", scale="tiny")
    warps = assigned_warp_traces(execute_kernel(kernel, NUM_CORES))
    with pytest.raises(ValueError, match="non-coalescing"):
        GmapProfiler(coalescing=False).profile(kernel, warp_traces=warps)


@pytest.mark.parametrize("backend", BACKENDS)
def test_pipeline_materialises_each_thread_once(monkeypatch, backend):
    kernel = suite.make("kmeans", scale="tiny")
    calls = []
    trace_thread = KernelModel.trace_thread

    def counting(self, tid):
        calls.append(tid)
        return trace_thread(self, tid)

    monkeypatch.setattr(KernelModel, "trace_thread", counting)
    _pipeline(kernel, backend)
    assert len(calls) == kernel.launch.total_threads
    assert sorted(calls) == list(kernel.launch.iter_threads())


@pytest.mark.parametrize("backend", BACKENDS)
def test_profiling_does_not_mutate_shared_traces(monkeypatch, backend):
    kernel = suite.make("bfs", scale="tiny")
    snapshots = {}
    profile = GmapProfiler.profile

    def snapshotting(self, kernel, warp_traces=None):
        snapshots["before"] = copy.deepcopy(warp_traces)
        result = profile(self, kernel, warp_traces=warp_traces)
        snapshots["after"] = warp_traces
        return result

    monkeypatch.setattr(GmapProfiler, "profile", snapshotting)
    pipeline = _pipeline(kernel, backend)
    assert snapshots["before"] is not None
    assert snapshots["after"] == snapshots["before"]
    assert assigned_warp_traces(pipeline.original_assignments) == (
        snapshots["before"])


def test_pipeline_executes_through_the_harness_global(monkeypatch):
    """The traced boundary: ``harness.execute_kernel`` runs exactly once."""
    kernel = suite.make("vectoradd", scale="tiny")
    calls = []

    def counting(*args, **kwargs):
        calls.append(kwargs.get("backend"))
        return execute_kernel(*args, **kwargs)

    monkeypatch.setattr(harness, "execute_kernel", counting)
    _pipeline(kernel, "python")
    assert calls == ["python"]
