"""Python-vs-numpy backend equivalence and the binary trace container.

The numpy array core must be *invisible* where the pipeline is
deterministic — profiles bit-identical to the scalar reference on every
workload — and *statistically equivalent* where it is not (generation uses
a different RNG stream per backend, so proxies are held to the same
validation-metric tolerances the harness itself uses).  The ``.npz``
columnar trace format must round-trip exactly and fail loudly when
damaged.
"""

from __future__ import annotations

import pytest

np = pytest.importorskip("numpy", exc_type=ImportError)

from repro.core.backend import (
    BACKENDS,
    DEFAULT_BACKEND,
    ENV_BACKEND,
    resolve_backend,
)
from repro.core.generator import ProxyGenerator
from repro.core.integrity import CorruptArtifactError
from repro.core.profiler import GmapProfiler
from repro.gpu.executor import (
    assign_warps_to_cores,
    collect_thread_traces,
    kernel_warp_traces,
)
from repro.io.thread_trace_io import (
    load_thread_traces,
    save_thread_traces,
    warp_traces_from_thread_file,
)
from repro.io.trace_io import load_warp_traces, save_warp_traces
from repro.memsim import arrays
from repro.memsim.simulator import SimtSimulator
from repro.validation.parallel import SweepRunner
from repro.workloads import suite

WORKLOADS = ("vectoradd", "kmeans", "bfs")
SEEDS = (1234, 77, 2026)


@pytest.fixture(scope="module", params=WORKLOADS)
def kernel(request):
    return suite.make(request.param, scale="tiny")


def _trace_tuples(traces):
    return [
        (t.warp_id, t.block, tuple(t.transactions), tuple(t.instructions))
        for t in traces
    ]


class TestProfileBitExact:
    """Deterministic stages must not depend on the backend at all."""

    def test_profiles_identical(self, kernel):
        py = GmapProfiler(backend="python").profile(kernel)
        vec = GmapProfiler(backend="numpy").profile(kernel)
        assert vec.to_dict() == py.to_dict()

    def test_thread_granularity_profiles_identical(self, kernel):
        py = GmapProfiler(coalescing=False, backend="python").profile(kernel)
        vec = GmapProfiler(coalescing=False, backend="numpy").profile(kernel)
        assert vec.to_dict() == py.to_dict()

    def test_stack_reuse_profiles_identical(self, kernel):
        py = GmapProfiler(reuse_semantics="stack",
                          backend="python").profile(kernel)
        vec = GmapProfiler(reuse_semantics="stack",
                           backend="numpy").profile(kernel)
        assert vec.to_dict() == py.to_dict()

    def test_front_end_identical(self, kernel, tmp_path):
        """Vectorized warp assembly == scalar lockstep walk, transaction
        for transaction, through the trace-file entry point."""
        path = tmp_path / "k.ttrace.npz"
        save_thread_traces(collect_thread_traces(kernel), kernel.launch, path)
        scalar, _ = warp_traces_from_thread_file(path, backend="python")
        fast, _ = warp_traces_from_thread_file(path, backend="numpy",
                                               mmap=True)
        assert _trace_tuples(fast) == _trace_tuples(scalar)

    @pytest.mark.parametrize("name, uniform", [
        ("kmeans", True), ("bfs", False)])
    def test_front_end_identical_small_container(self, name, uniform,
                                                 tmp_path):
        """A container whose threads hold equal record counts reaches the
        array front end as one array; a ragged one as per-thread streams.
        Both coalesce to the scalar walk's warps."""
        kernel = suite.make(name, scale="small")
        path = tmp_path / "k.ttrace.npz"
        save_thread_traces(collect_thread_traces(kernel), kernel.launch, path)
        columns, _ = arrays.load_columns(path, arrays.FORMAT_THREAD)
        threads = arrays.uniform_thread_array(columns)
        assert (threads is not None) == uniform
        if uniform:
            assert np.array_equal(threads, kernel.thread_array())
        scalar, _ = warp_traces_from_thread_file(path, backend="python")
        fast, _ = warp_traces_from_thread_file(path, backend="numpy",
                                               mmap=True)
        assert _trace_tuples(fast) == _trace_tuples(scalar)


class TestProxyStatisticalEquivalence:
    """Generation draws different RNG streams per backend; the proxies must
    still agree on the validation metric within harness tolerance."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_l1_miss_rate_close(self, kernel, seed, small_config):
        profile = GmapProfiler().profile(kernel)
        rates = {}
        for backend in BACKENDS:
            generator = ProxyGenerator(profile, seed=seed, backend=backend)
            traces = generator.generate_warp_traces()
            assignments = assign_warps_to_cores(
                generator.launch_config(), traces, small_config.num_cores)
            rates[backend] = (
                SimtSimulator(small_config).run(assignments)
                .metric("l1_miss_rate")
            )
        assert rates["numpy"] == pytest.approx(rates["python"], abs=0.05)

    def test_generation_deterministic_per_seed(self, kernel):
        profile = GmapProfiler().profile(kernel)
        a = ProxyGenerator(profile, seed=42,
                           backend="numpy").generate_warp_traces()
        b = ProxyGenerator(profile, seed=42,
                           backend="numpy").generate_warp_traces()
        assert _trace_tuples(a) == _trace_tuples(b)


class TestBinaryTraceFormat:
    def test_warp_trace_roundtrip(self, kernel, tmp_path):
        traces = kernel_warp_traces(kernel)
        path = tmp_path / "k.trace.npz"
        save_warp_traces(traces, path)
        for mmap in (False, True):
            loaded = load_warp_traces(path, mmap=mmap)
            assert _trace_tuples(loaded) == _trace_tuples(traces)

    def test_thread_trace_roundtrip(self, kernel, tmp_path):
        traces = collect_thread_traces(kernel)
        path = tmp_path / "k.ttrace.npz"
        save_thread_traces(traces, kernel.launch, path)
        loaded, launch = load_thread_traces(path)
        assert loaded == traces
        assert launch == kernel.launch

    def test_binary_matches_text(self, kernel, tmp_path):
        """Both serializations are views of the same trace."""
        traces = collect_thread_traces(kernel)
        text = tmp_path / "k.ttrace"
        binary = tmp_path / "k.ttrace.npz"
        save_thread_traces(traces, kernel.launch, text)
        save_thread_traces(traces, kernel.launch, binary)
        assert load_thread_traces(text)[0] == load_thread_traces(binary)[0]

    def test_corruption_raises(self, kernel, tmp_path):
        traces = kernel_warp_traces(kernel)
        path = tmp_path / "k.trace.npz"
        save_warp_traces(traces, path)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises((CorruptArtifactError, OSError, ValueError)):
            load_warp_traces(path)

    def test_verifier_clean_and_tampered(self, kernel, tmp_path):
        from repro.analysis import verify_trace_file

        path = tmp_path / "k.trace.npz"
        save_warp_traces(kernel_warp_traces(kernel), path)
        assert verify_trace_file(path) == []

        # Rewrite one column without refreshing the checksum.
        with np.load(path) as payload:
            columns = {name: payload[name] for name in payload.files}
        meta = columns.pop("_meta")
        columns["txn_address"] = columns["txn_address"] + 128
        import zipfile

        with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as zf:
            for name, column in columns.items():
                with zf.open(f"{name}.npy", "w") as fh:
                    np.lib.format.write_array(fh, column)
            with zf.open("_meta.npy", "w") as fh:
                np.lib.format.write_array(fh, meta)
        findings = verify_trace_file(path)
        assert any(f.rule == "corrupt-artifact" for f in findings)


class TestBackendResolution:
    def test_default_is_python(self, monkeypatch):
        monkeypatch.delenv(ENV_BACKEND, raising=False)
        assert resolve_backend(None) == DEFAULT_BACKEND

    def test_env_selects_numpy(self, monkeypatch):
        monkeypatch.setenv(ENV_BACKEND, "numpy")
        assert resolve_backend(None) == "numpy"

    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(ENV_BACKEND, "numpy")
        assert resolve_backend("python") == "python"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            resolve_backend("fortran")

    def test_explicit_numpy_without_numpy_raises(self, monkeypatch):
        monkeypatch.setattr("repro.core.backend._HAVE_NUMPY", False)
        with pytest.raises(ValueError):
            resolve_backend("numpy")

    def test_env_numpy_without_numpy_degrades(self, monkeypatch):
        monkeypatch.setattr("repro.core.backend._HAVE_NUMPY", False)
        monkeypatch.setenv(ENV_BACKEND, "numpy")
        assert resolve_backend(None) == "python"


class TestChunkSizing:
    """Cold-parallel fix: never split one benchmark's configs across more
    workers than the job count actually requires."""

    @pytest.mark.parametrize(
        "jobs,num_kernels,num_configs,expected",
        [
            (1, 4, 12, 12),   # sequential: one chunk per benchmark
            (4, 4, 12, 12),   # one chunk per kernel saturates the pool
            (4, 2, 12, 6),    # two chunks per kernel -> 4 tasks total
            (4, 1, 12, 3),    # single benchmark: split 4 ways
            (8, 4, 12, 6),    # ceil(8/4)=2 chunks per kernel
            (4, 4, 1, 1),
        ],
    )
    def test_effective_chunk_size(self, jobs, num_kernels, num_configs,
                                  expected):
        runner = SweepRunner(jobs=jobs, use_cache=False)
        assert runner._effective_chunk_size(
            num_kernels, num_configs) == expected

    def test_pipeline_built_once_per_benchmark_when_saturated(self):
        """With one chunk per kernel, each worker builds each pipeline at
        most once even with caching off — the regression that made cold
        parallel runs slower than sequential."""
        runner = SweepRunner(jobs=4, use_cache=False)
        size = runner._effective_chunk_size(4, 12)
        chunks_per_kernel = -(-12 // size)
        assert chunks_per_kernel == 1
