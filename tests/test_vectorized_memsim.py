"""Cross-validation of the array-resident memsim against the scalar oracle.

The vectorized flat-replay engine (:mod:`repro.memsim.vectorized`) claims
bit-exactness for every supported configuration — not statistical
closeness.  These tests hold it to that: randomized traces and cache
geometries (hypothesis), the associativity specializations, the
sector-split and MSHR-merge regressions the scalar window exists for, the
one-pass multi-config path, and every entry of the hybrid fallback matrix.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.instructions import pack
from repro.gpu.memspace import CONSTANT_BASE, TEXTURE_BASE
from repro.memsim import vectorized
from repro.memsim.config import (
    PAPER_BASELINE,
    CacheConfig,
    PrefetcherConfig,
    SimConfig,
)
from repro.memsim.capabilities import (
    CAPABILITIES,
    UnsupportedConfigError,
    fallback_reasons,
)
from repro.memsim.simulator import simulate_flat_trace
from repro.memsim.vectorized import (
    FlatTraceArrays,
    simulate_flat_multi,
    simulate_flat_numpy,
)
from repro.validation import sweeps

pytestmark = pytest.mark.skipif(
    vectorized.np is None, reason="numpy unavailable"
)

GLOBAL_BASE = 0x1000_0000


def small_config(
    l1_sets: int = 4,
    l1_assoc: int = 2,
    l1_line: int = 64,
    num_cores: int = 2,
) -> SimConfig:
    """A deliberately tiny hierarchy so short traces still evict."""
    return PAPER_BASELINE.with_(
        num_cores=num_cores,
        l1=CacheConfig(
            size=l1_sets * l1_assoc * l1_line,
            assoc=l1_assoc,
            line_size=l1_line,
            mshrs=8,
        ),
        l2=CacheConfig(
            size=16 * 4 * 128, assoc=4, line_size=128,
            hit_latency=30, banks=2, mshrs=16,
        ),
    )


def assert_bit_identical(traces, config):
    oracle = simulate_flat_trace(traces, config, backend="python")
    array = simulate_flat_numpy(traces, config)
    assert array.to_dict() == oracle.to_dict()
    return oracle


# -- randomized cross-validation ---------------------------------------------

access_lists = st.lists(
    st.tuples(
        st.sampled_from([80, 88, 96]),                    # pc
        st.integers(min_value=0, max_value=(1 << 14) - 1),  # offset words
        st.sampled_from([4, 32, 128, 256]),                # size
        st.booleans(),                                     # is_store
    ),
    min_size=0,
    max_size=120,
)


class TestRandomizedCrossValidation:
    @settings(max_examples=30, deadline=None)
    @given(
        access_lists,
        access_lists,
        st.sampled_from([1, 2, 4]),
        st.sampled_from([32, 64, 128]),
    )
    def test_batched_matches_scalar(self, trace_a, trace_b, assoc, line):
        traces = [
            [
                pack(pc, GLOBAL_BASE + offset * 16, size, store)
                for pc, offset, size, store in trace
            ]
            for trace in (trace_a, trace_b)
        ]
        config = small_config(l1_assoc=assoc, l1_line=line)
        assert_bit_identical(traces, config)

    @settings(max_examples=15, deadline=None)
    @given(access_lists)
    def test_repeat_runs_are_deterministic(self, trace):
        traces = [[
            pack(pc, GLOBAL_BASE + offset * 16, size, store)
            for pc, offset, size, store in trace
        ]]
        config = small_config(num_cores=1)
        first = simulate_flat_numpy(traces, config)
        second = simulate_flat_numpy(traces, config)
        assert first.to_dict() == second.to_dict()


# -- targeted regressions ----------------------------------------------------

def reuse_heavy_traces(num_cores: int = 3, length: int = 60):
    """Strided streams with deliberate cross-core same-line collisions."""
    traces = []
    for core in range(num_cores):
        trace = []
        for i in range(length):
            trace.append(
                pack(80, GLOBAL_BASE + (i % 10) * 128, 128, False))
            trace.append(
                pack(88, GLOBAL_BASE + 0x8000 + i * 64, 32, i % 4 == 0))
        traces.append(trace)
    return traces


class TestRegressions:
    @pytest.mark.parametrize("assoc", [1, 2, 4, 8])
    def test_assoc_specializations(self, assoc):
        """assoc==1 and assoc==2 take specialised array paths; all of
        them must agree with the dict-based LRU cache."""
        traces = reuse_heavy_traces()
        config = small_config(l1_assoc=assoc, num_cores=len(traces))
        assert_bit_identical(traces, config)

    def test_sector_split_wider_than_line(self):
        """srad-style: one access wider than the L1 line fans out into
        several same-clock sector events whose kill/insert ordering the
        scalar loops resolve with a per-loop sequence counter."""
        traces = [
            [pack(80, GLOBAL_BASE + i * 64, 256, False) for i in range(40)],
            [pack(88, GLOBAL_BASE + i * 128, 256, True) for i in range(40)],
        ]
        config = small_config(l1_line=32, num_cores=2)
        result = assert_bit_identical(traces, config)
        # Each 256B access must have split into 256/32 sector accesses.
        assert result.l1.accesses == 80 * (256 // 32)

    def test_merge_heavy_trace_exercises_scalar_window(self):
        """Cross-core same-line misses in flight force L1 MSHR merges —
        the case where the optimistic no-merge array pass must abort and
        the bounded scalar window must reproduce the oracle exactly."""
        line = GLOBAL_BASE + 0x40000
        traces = [
            [pack(80, line + (i % 2) * 128, 128, False) for i in range(30)]
            for _ in range(4)
        ]
        config = small_config(num_cores=4, l1_sets=2, l1_assoc=1)
        result = assert_bit_identical(traces, config)
        assert result.l1.mshr_merges > 0

    def test_all_hits_empty_downstream_window(self):
        """Boundary: a fully cache-resident trace leaves the scalar
        window nothing to replay."""
        traces = [[pack(80, GLOBAL_BASE, 4, False) for _ in range(50)]]
        config = small_config(num_cores=1)
        result = assert_bit_identical(traces, config)
        assert result.l1.misses == 1  # the compulsory fill only
        assert result.l2.accesses == 1

    def test_empty_trace(self):
        config = small_config(num_cores=2)
        result = assert_bit_identical([[], []], config)
        assert result.l1.accesses == 0


# -- one-pass multi-config ---------------------------------------------------

class TestMultiConfig:
    def test_one_pass_matches_per_config_oracle(self):
        traces = reuse_heavy_traces()
        configs = [
            c.with_(num_cores=len(traces))
            for c in sweeps.l1_sweep(reduced=True)
        ]
        multi = simulate_flat_multi(traces, configs, backend="numpy")
        assert len(multi) == len(configs)
        for config, result in zip(configs, multi):
            oracle = simulate_flat_trace(traces, config, backend="python")
            assert result.to_dict() == oracle.to_dict()

    def test_trace_invariants_across_configs(self):
        """requests_issued and cycles are properties of the trace; the
        verifier's sweep-trace-mismatch rule relies on this."""
        traces = reuse_heavy_traces()
        configs = [
            c.with_(num_cores=len(traces))
            for c in sweeps.l1_sweep(reduced=True)
        ]
        multi = simulate_flat_multi(traces, configs, backend="numpy")
        assert len({r.requests_issued for r in multi}) == 1
        assert len({r.cycles for r in multi}) == 1

    def test_unsupported_config_falls_back_per_config(self):
        """A mixed grid: out-of-matrix configs silently take the oracle
        while supported ones stay on the array path — results identical
        either way."""
        traces = reuse_heavy_traces(num_cores=2)
        supported = small_config(num_cores=2)
        unsupported = supported.with_(
            l1_prefetcher=PrefetcherConfig(kind="stride"))
        multi = simulate_flat_multi(
            traces, [supported, unsupported], backend="numpy")
        for config, result in zip([supported, unsupported], multi):
            oracle = simulate_flat_trace(traces, config, backend="python")
            assert result.to_dict() == oracle.to_dict()

    def test_python_backend_is_reference(self):
        traces = reuse_heavy_traces(num_cores=2)
        configs = [small_config(num_cores=2)]
        via_python = simulate_flat_multi(traces, configs, backend="python")
        oracle = simulate_flat_trace(traces, configs[0], backend="python")
        assert via_python[0].to_dict() == oracle.to_dict()


# -- hybrid fallback matrix --------------------------------------------------

class TestFallbackMatrix:
    @pytest.mark.parametrize(
        "changes, needle",
        [
            ({"l1_prefetcher": PrefetcherConfig(kind="stride")},
             "prefetchers"),
            ({"l2_prefetcher": PrefetcherConfig(kind="stream")},
             "prefetchers"),
            ({"l2_inclusion": "inclusive"}, "inclusive L2"),
        ],
    )
    def test_config_level_reasons(self, changes, needle):
        config = small_config().with_(**changes)
        reasons = fallback_reasons(config, "array")
        assert any(needle in reason for reason in reasons)

    @pytest.mark.parametrize("level", ["l1", "l2"])
    @pytest.mark.parametrize(
        "cache_changes, needle",
        [
            ({"replacement": "fifo"}, "replacement"),
            ({"replacement": "random"}, "replacement"),
            ({"write_policy": "write-through", "write_allocate": False},
             "write policy"),
            ({"write_allocate": False}, "write policy"),
        ],
    )
    def test_cache_policy_reasons(self, level, cache_changes, needle):
        base = small_config()
        cache = dataclasses.replace(getattr(base, level), **cache_changes)
        reasons = fallback_reasons(base.with_(**{level: cache}), "array")
        assert any(
            reason.startswith(level) and needle in reason
            for reason in reasons
        )

    def test_supported_baseline_has_no_reasons(self):
        assert fallback_reasons(small_config(), "array") == []
        assert fallback_reasons(PAPER_BASELINE, "array") == []

    @pytest.mark.parametrize(
        "base_addr, needle",
        [(TEXTURE_BASE, "texture"), (CONSTANT_BASE, "constant")],
    )
    def test_trace_level_reasons(self, base_addr, needle):
        """Traffic into a configured texture/constant cache is a property
        of the trace, detected at decode time, not of the SimConfig."""
        traces = [[pack(80, base_addr + 64, 4, False)]]
        arrays = FlatTraceArrays(traces)
        reasons = arrays.fallback_reasons(small_config(num_cores=1))
        assert any(needle in reason for reason in reasons)

    def test_every_array_row_refuses_analytic_too(self):
        for row in CAPABILITIES:
            if "array" in row.refused_by:
                assert "analytic" in row.refused_by, row.feature

    @settings(max_examples=60, deadline=None)
    @given(
        prefetch=st.sampled_from([None, "stride", "stream"]),
        replacement=st.sampled_from(["lru", "fifo", "random"]),
        write=st.sampled_from([("write-back", True), ("write-back", False),
                               ("write-through", False)]),
        level=st.sampled_from(["l1", "l2"]),
        inclusion=st.sampled_from(["non-inclusive", "inclusive"]),
        assoc=st.sampled_from([4, 8192]),
    )
    def test_array_reasons_are_analytic_reasons(
        self, prefetch, replacement, write, level, inclusion, assoc
    ):
        """fallback_reasons(c, "array") ⊆ fallback_reasons(c, "analytic")."""
        base = small_config()
        cache = dataclasses.replace(
            getattr(base, level), replacement=replacement,
            write_policy=write[0], write_allocate=write[1],
            size=assoc * 128 * 4, assoc=assoc, line_size=128)
        config = base.with_(
            l1_prefetcher=(PrefetcherConfig(kind=prefetch)
                           if prefetch else None),
            l2_inclusion=inclusion, **{level: cache})
        array = fallback_reasons(config, "array")
        assert set(array) <= set(fallback_reasons(config, "analytic"))

    def test_unsupported_raises_and_silently_degrades(self):
        traces = reuse_heavy_traces(num_cores=2)
        config = small_config(num_cores=2).with_(
            l1_prefetcher=PrefetcherConfig(kind="stride"))
        with pytest.raises(UnsupportedConfigError) as excinfo:
            simulate_flat_numpy(traces, config)
        assert excinfo.value.reasons
        # The public entry point degrades to the oracle instead.
        degraded = simulate_flat_trace(traces, config, backend="numpy")
        oracle = simulate_flat_trace(traces, config, backend="python")
        assert degraded.to_dict() == oracle.to_dict()
