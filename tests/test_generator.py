"""Tests for proxy generation (Algorithms 1 and 2)."""

from __future__ import annotations

import random

import pytest

from repro.core.distributions import Histogram, hellinger_distance
from repro.core.generator import ProxyGenerator, generate_unit_trace
from repro.core.profile import GmapProfile, InstructionStats, PiProfileStats
from repro.core.profiler import GmapProfiler
from repro.gpu.executor import kernel_warp_traces
from repro.workloads import suite


def simple_profile(reuse=None, intra=None, inter=None, n_instr=8) -> GmapProfile:
    """A one-PC warp-granularity profile for targeted Algorithm 1 tests."""
    instr = InstructionStats(
        pc=0x10,
        base_address=0x1000,
        inter_stride=Histogram(inter or {128: 10}),
        intra_stride=Histogram(intra or {128: 10}),
        txns_per_access=Histogram({1: 10}),
    )
    pi = PiProfileStats(
        sequence=(0x10,) * n_instr,
        probability=1.0,
        reuse=Histogram(reuse) if reuse else Histogram(),
        reuse_fraction=0.5 if reuse else 0.0,
    )
    return GmapProfile(
        name="unit-test",
        grid_dim=(1, 1, 1),
        block_dim=(64, 1, 1),
        unit="warp",
        segment_size=128,
        pi_profiles=[pi],
        instructions={0x10: instr},
        total_transactions=n_instr * 2,
    )


class TestAlgorithm1:
    def test_first_touch_advances_global_base(self):
        """Alg 1 lines 6-9: B[k] walks forward across units."""
        profile = simple_profile(n_instr=1)
        base = {0x10: 0x1000}
        rng = random.Random(0)
        u0 = generate_unit_trace(0, 0, profile.pi_profiles[0],
                                 profile.instructions, base, rng)
        u1 = generate_unit_trace(1, 0, profile.pi_profiles[0],
                                 profile.instructions, base, rng)
        assert u0.addresses[0] == 0x1000 + 128
        assert u1.addresses[0] == u0.addresses[0] + 128

    def test_stride_path_walks_intra(self):
        profile = simple_profile(intra={256: 1})
        base = {0x10: 0x1000}
        unit = generate_unit_trace(0, 0, profile.pi_profiles[0],
                                   profile.instructions, base, random.Random(1))
        diffs = [b - a for a, b in zip(unit.addresses, unit.addresses[1:])]
        assert all(d == 256 for d in diffs)

    def test_reuse_path_replays_addresses(self):
        """reuse=0 with stride 0 in supp pins successive accesses."""
        profile = simple_profile(reuse={0: 1}, intra={0: 1})
        base = {0x10: 0x1000}
        unit = generate_unit_trace(0, 0, profile.pi_profiles[0],
                                   profile.instructions, base, random.Random(2))
        assert len(set(unit.addresses)) == 1

    def test_reuse_rejected_when_stride_implausible(self):
        """Candidate outside supp(P_A) falls back to the stride path."""
        profile = simple_profile(reuse={0: 1}, intra={999: 1})
        base = {0x10: 0x1000}
        unit = generate_unit_trace(0, 0, profile.pi_profiles[0],
                                   profile.instructions, base, random.Random(2))
        diffs = {b - a for a, b in zip(unit.addresses, unit.addresses[1:])}
        assert diffs == {999}

    def test_max_len_truncates(self):
        profile = simple_profile(n_instr=10)
        base = {0x10: 0x1000}
        unit = generate_unit_trace(0, 0, profile.pi_profiles[0],
                                   profile.instructions, base,
                                   random.Random(0), max_len=3)
        assert len(unit.addresses) == 3

    def test_unknown_pc_skipped(self):
        profile = simple_profile(n_instr=2)
        profile.pi_profiles[0].sequence = (0x10, 0xDEAD)
        base = {0x10: 0x1000}
        unit = generate_unit_trace(0, 0, profile.pi_profiles[0],
                                   profile.instructions, base, random.Random(0))
        assert unit.pcs == [0x10]

    def test_empty_histograms_degenerate_gracefully(self):
        profile = simple_profile(n_instr=4)
        profile.instructions[0x10].inter_stride = Histogram()
        profile.instructions[0x10].intra_stride = Histogram()
        profile.instructions[0x10].txns_per_access = Histogram()
        base = {0x10: 0x2000}
        unit = generate_unit_trace(0, 0, profile.pi_profiles[0],
                                   profile.instructions, base, random.Random(0))
        assert unit.addresses == [0x2000] * 4
        assert unit.txns == [1] * 4


class TestProxyGenerator:
    def test_requires_pi_profiles(self):
        profile = simple_profile()
        profile.pi_profiles = []
        with pytest.raises(ValueError, match="no π profiles"):
            ProxyGenerator(profile)

    def test_deterministic_given_seed(self, kmeans_profile):
        a = ProxyGenerator(kmeans_profile, seed=9).generate_warp_traces()
        b = ProxyGenerator(kmeans_profile, seed=9).generate_warp_traces()
        assert [t.transactions for t in a] == [t.transactions for t in b]

    def test_different_seeds_differ(self, kmeans_profile):
        a = ProxyGenerator(kmeans_profile, seed=1).generate_warp_traces()
        b = ProxyGenerator(kmeans_profile, seed=2).generate_warp_traces()
        assert [t.transactions for t in a] != [t.transactions for t in b]

    def test_preserves_launch_geometry(self, tiny_kmeans, kmeans_profile):
        """Section 4: G-MAP maintains the original grid and TB dimensions."""
        generator = ProxyGenerator(kmeans_profile)
        launch = generator.launch_config()
        assert launch == tiny_kmeans.launch
        traces = generator.generate_warp_traces()
        assert len(traces) == tiny_kmeans.launch.total_warps

    def test_transactions_segment_aligned(self, kmeans_profile):
        traces = ProxyGenerator(kmeans_profile, seed=3).generate_warp_traces()
        for trace in traces[:4]:
            for _, address, size, _ in trace.transactions:
                assert address % 128 == 0
                assert size == 128

    def test_clone_size_matches_original(self, tiny_kmeans, kmeans_profile):
        clone = ProxyGenerator(kmeans_profile, seed=5).generate_warp_traces()
        original = kernel_warp_traces(tiny_kmeans)
        clone_total = sum(len(t) for t in clone)
        orig_total = sum(len(t) for t in original)
        assert abs(clone_total - orig_total) / orig_total < 0.05

    def test_scale_factor_shrinks_clone(self, kmeans_profile):
        generator = ProxyGenerator(kmeans_profile, seed=5)
        full = sum(len(t) for t in generator.generate_warp_traces())
        half = sum(len(t) for t in generator.generate_warp_traces(scale_factor=2))
        assert half < full * 0.7

    def test_scale_factor_validation(self, kmeans_profile):
        with pytest.raises(ValueError):
            ProxyGenerator(kmeans_profile).generate_units(scale_factor=0)

    def test_generate_returns_core_assignments(self, kmeans_profile):
        assignments = ProxyGenerator(kmeans_profile, seed=1).generate(num_cores=4)
        assert len(assignments) == 4
        total = sum(a.transaction_count for a in assignments)
        assert total == sum(
            len(t) for t in ProxyGenerator(kmeans_profile, seed=1).generate_warp_traces()
        )

    def test_interleave_round_robin_j_bound(self, kmeans_profile):
        """Alg 2's while j < J loop caps total emitted requests."""
        generator = ProxyGenerator(kmeans_profile, seed=1)
        per_core = generator.interleave_round_robin(num_cores=4, limit=100)
        assert sum(len(t) for t in per_core) == 100

    def test_thread_granularity_generation(self, tiny_vectoradd):
        """Thread-unit profiles run Alg 2's explicit grouping/coalescing."""
        profile = GmapProfiler(coalescing=False).profile(tiny_vectoradd)
        traces = ProxyGenerator(profile, seed=7).generate_warp_traces()
        assert len(traces) == tiny_vectoradd.launch.total_warps
        # Unit-stride loads should still coalesce to ~1 txn per instruction.
        w0 = traces[0]
        assert len(w0.transactions) <= len(w0.instructions) * 2


class TestMarkovStrideModel:
    def test_stride_model_validation(self, kmeans_profile):
        with pytest.raises(ValueError, match="stride_model"):
            ProxyGenerator(kmeans_profile, stride_model="lstm")
        with pytest.raises(ValueError, match="stride_model"):
            generate_unit_trace(
                0, 0, kmeans_profile.pi_profiles[0],
                kmeans_profile.instructions, {}, random.Random(0),
                stride_model="lstm",
            )

    def test_markov_reproduces_run_length_pattern(self):
        """A +s,+s,+s,wrap cycle survives Markov sampling but not IID."""
        profile = simple_profile(
            intra={100: 30, -300: 10}, n_instr=64,
        )
        stats = profile.instructions[0x10]
        # Transitions of the deterministic cycle: after +100 comes +100
        # twice then -300; after -300 always +100.
        stats.intra_markov = {
            100: Histogram({100: 20, -300: 10}),
            -300: Histogram({100: 10}),
        }
        base = {0x10: 0x1000}
        unit = generate_unit_trace(
            0, 0, profile.pi_profiles[0], profile.instructions, base,
            random.Random(5), stride_model="markov",
        )
        diffs = [b - a for a, b in zip(unit.addresses, unit.addresses[1:])]
        # No two consecutive wraps: the Markov chain forbids -300 -> -300.
        assert all(
            not (a == -300 and b == -300) for a, b in zip(diffs, diffs[1:])
        )

    def test_markov_falls_back_to_iid_without_transitions(self):
        profile = simple_profile(intra={64: 1}, n_instr=8)
        base = {0x10: 0x1000}
        unit = generate_unit_trace(
            0, 0, profile.pi_profiles[0], profile.instructions, base,
            random.Random(0), stride_model="markov",
        )
        diffs = {b - a for a, b in zip(unit.addresses, unit.addresses[1:])}
        assert diffs == {64}

    def test_profiler_records_transitions(self, tiny_kmeans):
        from repro.core.profiler import GmapProfiler
        profile = GmapProfiler().profile(tiny_kmeans)
        stats = profile.instructions[0xE8]
        assert stats.intra_markov
        # Transition histograms partition the intra strides, minus each
        # unit's first stride (which has no prior).
        total_transitions = sum(
            h.total for h in stats.intra_markov.values()
        )
        num_units = 16  # tiny kmeans: 2 blocks x 8 warps
        assert total_transitions == stats.intra_stride.total - num_units

    def test_markov_serialisation_round_trip(self, kmeans_profile):
        from repro.core.profile import GmapProfile
        restored = GmapProfile.from_dict(kmeans_profile.to_dict())
        original = kmeans_profile.instructions[0xE8].intra_markov
        loaded = restored.instructions[0xE8].intra_markov
        assert set(loaded) == set(original)
        for prev in original:
            assert loaded[prev] == original[prev]

    def test_markov_improves_cyclic_multiarray_clone(self):
        """The lib model's cyclic walk clones better under Markov strides.

        Run at the "small" scale: with enough iterations the IID early-wrap
        desynchronisation is systematic (≈10pp) while Markov stays within a
        few pp; at tiny scale both are under 2pp and ordering is noise.
        """
        from repro.core.profiler import GmapProfiler
        from repro.gpu.executor import execute_kernel
        from repro.memsim.config import PAPER_BASELINE
        from repro.memsim.simulator import simulate
        kernel = suite.make("lib", "small")
        profile = GmapProfiler().profile(kernel)
        original = simulate(execute_kernel(kernel, 15), PAPER_BASELINE)
        err = {}
        for model in ("iid", "markov"):
            clone = simulate(
                ProxyGenerator(profile, seed=42, stride_model=model).generate(15),
                PAPER_BASELINE,
            )
            err[model] = abs(original.l1_miss_rate - clone.l1_miss_rate)
        assert err["markov"] < err["iid"]


class TestStatisticalFidelity:
    """The clone's stream statistics must match the profiled ones."""

    def _profile_of_clone(self, profile, seed=11):
        traces = ProxyGenerator(profile, seed=seed).generate_warp_traces()
        from repro.core.profiler import unit_streams_from_warp_traces
        units = unit_streams_from_warp_traces(traces)
        return GmapProfiler().profile_unit_streams(units, "warp", name="clone")

    def test_inter_stride_distribution_reproduced(self, kmeans_profile):
        clone_profile = self._profile_of_clone(kmeans_profile)
        d = hellinger_distance(
            kmeans_profile.instructions[0xE8].inter_stride,
            clone_profile.instructions[0xE8].inter_stride,
        )
        assert d < 0.2

    def test_reuse_fraction_reproduced(self, kmeans_profile):
        clone_profile = self._profile_of_clone(kmeans_profile)
        assert clone_profile.pi_profiles[0].reuse_fraction == pytest.approx(
            kmeans_profile.pi_profiles[0].reuse_fraction, abs=0.1
        )

    def test_pi_sequence_preserved(self, kmeans_profile):
        clone_profile = self._profile_of_clone(kmeans_profile)
        assert clone_profile.pi_profiles[0].sequence == \
            kmeans_profile.pi_profiles[0].sequence

    def test_coalescing_degree_reproduced(self, kmeans_profile):
        clone_profile = self._profile_of_clone(kmeans_profile)
        d = hellinger_distance(
            kmeans_profile.instructions[0xE8].txns_per_access,
            clone_profile.instructions[0xE8].txns_per_access,
        )
        assert d < 0.2

    def test_addresses_do_not_leak_original(self, tiny_kmeans, kmeans_profile):
        """An obfuscated profile's clone shares no addresses with the app."""
        hidden = kmeans_profile.obfuscated()
        clone = ProxyGenerator(hidden, seed=13).generate_warp_traces()
        original_lines = {
            a >> 7 for t in kernel_warp_traces(tiny_kmeans) for _, a, _, _ in t.transactions
        }
        clone_lines = {
            a >> 7 for t in clone for _, a, _, _ in t.transactions
        }
        assert not (original_lines & clone_lines)
