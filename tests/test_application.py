"""Tests for multi-kernel application profiling/cloning/simulation."""

from __future__ import annotations

import pytest

from repro.core.app_pipeline import (
    ApplicationProfile,
    execute_application,
    generate_application_proxy,
    profile_application,
    simulate_application,
)
from repro.core.profiler import GmapProfiler
from repro.gpu.application import Application
from repro.io.profile_io import load_application_profile, save_application_profile
from repro.memsim.config import PAPER_BASELINE
from repro.workloads import suite
from repro.workloads.base import KernelModel
from repro.workloads.applications import (
    make_backprop_application,
    make_srad_application,
)


@pytest.fixture(scope="module")
def srad_app():
    return make_srad_application("tiny")


@pytest.fixture(scope="module")
def srad_profile(srad_app):
    return profile_application(srad_app)


class TestApplicationContainer:
    def test_needs_kernels(self):
        with pytest.raises(ValueError):
            Application("empty", [])

    def test_sequence_protocol(self, srad_app):
        assert len(srad_app) == 2
        assert srad_app[0].name == "srad1"
        assert [k.name for k in srad_app] == ["srad1", "srad2"]

    def test_total_threads(self, srad_app):
        assert srad_app.total_threads == 2 * srad_app[0].total_threads

    def test_repr(self, srad_app):
        assert "srad1" in repr(srad_app)

    def test_kernels_share_arrays(self, srad_app):
        """srad2 reads the coeff array srad1 writes."""
        coeff_base = srad_app[0].layout.base("coeff")
        srad2_reads = {a for pc, a, *_ in srad_app[1].thread_program(0)
                       if pc == 0x350}
        assert any(abs(a - coeff_base) < 1 << 24 for a in srad2_reads)


class TestApplicationProfile:
    def test_one_profile_per_kernel(self, srad_profile):
        assert len(srad_profile) == 2
        assert srad_profile.kernel_profiles[0].name == "srad1"

    def test_total_transactions(self, srad_profile):
        assert srad_profile.total_transactions == sum(
            p.total_transactions for p in srad_profile.kernel_profiles
        )

    def test_serialisation_round_trip(self, srad_profile, tmp_path):
        path = tmp_path / "app.json.gz"
        save_application_profile(srad_profile, path)
        restored = load_application_profile(path)
        assert restored.name == "srad_app"
        assert len(restored) == 2
        assert restored.kernel_profiles[1].to_dict() == \
            srad_profile.kernel_profiles[1].to_dict()

    def test_obfuscation_consistent_across_kernels(self, srad_profile):
        """The shared coeff array must map to ONE synthetic region in both
        kernels, or inter-kernel reuse would vanish from the clone."""
        hidden = srad_profile.obfuscated()
        store = hidden.kernel_profiles[0].instructions[0x258]   # srad1 writes
        load = hidden.kernel_profiles[1].instructions[0x350]    # srad2 reads
        original_store = srad_profile.kernel_profiles[0].instructions[0x258]
        original_load = srad_profile.kernel_profiles[1].instructions[0x350]
        # Bases moved...
        assert store.base_address != original_store.base_address
        # ...but the producer-consumer relationship is intact: the load's
        # offset from the store is exactly what it was.
        assert load.base_address - store.base_address == \
            original_load.base_address - original_store.base_address
        # Statistics untouched.
        assert store.intra_stride == original_store.intra_stride

    def test_obfuscated_application_clone_keeps_reuse(self, srad_app,
                                                      srad_profile):
        """End to end: the obfuscated clone's consumer kernel still hits."""
        hidden = srad_profile.obfuscated()
        clone = simulate_application(
            generate_application_proxy(hidden, 15, seed=3), PAPER_BASELINE
        )
        k1, k2 = clone.per_kernel
        assert k2.l2.miss_rate < k1.l2.miss_rate


class TestApplicationSimulation:
    def test_inter_kernel_reuse_visible(self, srad_app):
        """srad2 hits in L2 on the coefficients srad1 just produced."""
        result = simulate_application(
            execute_application(srad_app, 15), PAPER_BASELINE
        )
        k1, k2 = result.per_kernel
        assert k2.l2.miss_rate < k1.l2.miss_rate

    def test_clone_preserves_inter_kernel_reuse(self, srad_app, srad_profile):
        original = simulate_application(
            execute_application(srad_app, 15), PAPER_BASELINE
        )
        clone = simulate_application(
            generate_application_proxy(srad_profile, 15, seed=42),
            PAPER_BASELINE,
        )
        for orig_k, clone_k in zip(original.per_kernel, clone.per_kernel):
            assert abs(orig_k.l2.miss_rate - clone_k.l2.miss_rate) < 0.05

    def test_combined_aggregates(self, srad_app):
        result = simulate_application(
            execute_application(srad_app, 15), PAPER_BASELINE
        )
        assert result.combined.requests_issued == sum(
            k.requests_issued for k in result.per_kernel
        )
        assert result.combined.l1.accesses == sum(
            k.l1.accesses for k in result.per_kernel
        )

    def test_backprop_application_clones(self):
        app = make_backprop_application("tiny")
        executed = execute_application(app, 15)
        profile = profile_application(app, original=executed)
        original = simulate_application(executed, PAPER_BASELINE)
        clone = simulate_application(
            generate_application_proxy(profile, 15, seed=42), PAPER_BASELINE
        )
        err = abs(original.combined.l1.miss_rate - clone.combined.l1.miss_rate)
        assert err < 0.05
        assert original.per_kernel[0].barriers_crossed == \
            clone.per_kernel[0].barriers_crossed

    def test_miniaturized_application(self, srad_profile):
        full = generate_application_proxy(srad_profile, 15, seed=1)
        small = generate_application_proxy(
            srad_profile, 15, seed=1, scale_factor=4.0
        )
        full_txns = sum(a.transaction_count for k in full for a in k)
        small_txns = sum(a.transaction_count for k in small for a in k)
        assert small_txns < full_txns / 3

    def test_fresh_state_when_simulated_separately(self, srad_app):
        """Kernel 2 alone (cold hierarchy) misses more than in sequence."""
        assignments = execute_application(srad_app, 15)
        seq = simulate_application(assignments, PAPER_BASELINE)
        assignments = execute_application(srad_app, 15)
        alone = simulate_application(assignments[1:], PAPER_BASELINE)
        assert alone.per_kernel[0].l2.miss_rate > \
            seq.per_kernel[1].l2.miss_rate


class TestApplicationFrontEndOnce:
    """Executing and profiling an application runs each kernel once."""

    def test_profile_from_executed_warps_matches_own_front_end(self, srad_app,
                                                                srad_profile):
        executed = execute_application(srad_app, 15)
        reused = profile_application(srad_app, original=executed)
        assert reused.to_dict() == srad_profile.to_dict()

    def test_one_execution_per_kernel(self, monkeypatch, srad_app):
        calls = []
        trace_thread = KernelModel.trace_thread

        def counting(self, tid):
            calls.append(tid)
            return trace_thread(self, tid)

        monkeypatch.setattr(KernelModel, "trace_thread", counting)
        executed = execute_application(srad_app, 15)
        profile_application(srad_app, original=executed)
        assert len(srad_app) == 2
        assert len(calls) == sum(k.launch.total_threads for k in srad_app)

    def test_non_coalescing_profiler_runs_its_own_front_end(self, srad_app):
        executed = execute_application(srad_app, 15)
        profiler = GmapProfiler(coalescing=False)
        assert profile_application(
            srad_app, profiler, original=executed).to_dict() == (
            profile_application(srad_app, profiler).to_dict())

    def test_assignments_must_match_kernels(self, srad_app):
        executed = execute_application(srad_app, 15)
        with pytest.raises(ValueError):
            profile_application(srad_app, original=executed[:1])
