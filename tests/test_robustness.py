"""Robustness: degraded, hand-edited, or adversarial profiles and artifacts.

A vendor consumes profiles it did not produce — the pipeline must fail
loudly on malformed input and degrade gracefully on merely *thin* input
(empty histograms, missing statistics), never crash or hang.  The same
contract covers on-disk artifacts: traces, profiles, and cache entries
carry checksums, and corruption is either rejected loudly
(:class:`CorruptArtifactError`) or quarantined and rebuilt from source.
"""

from __future__ import annotations

import random

import pytest

from repro.core.distributions import Histogram
from repro.core.generator import ProxyGenerator
from repro.core.integrity import CorruptArtifactError
from repro.core.profile import GmapProfile, InstructionStats, PiProfileStats
from repro.memsim.config import PAPER_BASELINE
from repro.memsim.simulator import simulate


def minimal_profile(**overrides) -> GmapProfile:
    fields = dict(
        name="thin",
        grid_dim=(1, 1, 1),
        block_dim=(64, 1, 1),
        unit="warp",
        segment_size=128,
        pi_profiles=[
            PiProfileStats(sequence=(0x10,) * 6, probability=1.0)
        ],
        instructions={
            0x10: InstructionStats(pc=0x10, base_address=0x1000_0000)
        },
        total_transactions=12,
    )
    fields.update(overrides)
    return GmapProfile(**fields)


class TestThinProfiles:
    def test_all_histograms_empty_still_generates(self):
        profile = minimal_profile()
        traces = ProxyGenerator(profile, seed=0).generate_warp_traces()
        assert len(traces) == 2  # 64 threads -> 2 warps
        for trace in traces:
            assert len(trace.transactions) == 6

    def test_thin_profile_simulates(self):
        profile = minimal_profile()
        result = simulate(
            ProxyGenerator(profile, seed=0).generate(2), PAPER_BASELINE
        )
        assert result.requests_issued == 12

    def test_reuse_histogram_without_intra_strides(self):
        """Reuse sampled but supp(P_A) empty: every check fails, stride 0."""
        profile = minimal_profile()
        profile.pi_profiles[0].reuse = Histogram({0: 5})
        traces = ProxyGenerator(profile, seed=1).generate_warp_traces()
        addresses = {a for t in traces for _, a, _, _ in t.transactions}
        assert len(addresses) <= 2  # pinned at (possibly offset) base

    def test_pi_sequence_with_unknown_pcs(self):
        profile = minimal_profile()
        profile.pi_profiles[0] = PiProfileStats(
            sequence=(0x10, 0xDEAD, 0x10), probability=1.0
        )
        traces = ProxyGenerator(profile, seed=0).generate_warp_traces()
        pcs = {pc for t in traces for pc, _ in t.instructions}
        assert pcs == {0x10}

    def test_zero_probability_tail_profile(self):
        profile = minimal_profile()
        profile.pi_profiles.append(
            PiProfileStats(sequence=(0x10,), probability=0.0)
        )
        traces = ProxyGenerator(profile, seed=3).generate_warp_traces()
        assert all(len(t.instructions) == 6 for t in traces)

    def test_probabilities_not_normalised(self):
        """Q summing to < 1: the last profile absorbs the remainder."""
        profile = minimal_profile()
        profile.pi_profiles = [
            PiProfileStats(sequence=(0x10,) * 2, probability=0.3),
            PiProfileStats(sequence=(0x10,) * 4, probability=0.3),
        ]
        traces = ProxyGenerator(profile, seed=5).generate_warp_traces()
        lengths = {len(t.instructions) for t in traces}
        assert lengths <= {2, 4}


class TestMalformedProfiles:
    def test_bad_unit_rejected(self):
        with pytest.raises(ValueError):
            minimal_profile(unit="block")

    def test_missing_required_field_raises(self):
        data = minimal_profile().to_dict()
        del data["instructions"]
        with pytest.raises(KeyError):
            GmapProfile.from_dict(data)

    def test_corrupt_histogram_counts(self):
        data = minimal_profile().to_dict()
        data["instructions"]["16"]["intra_stride"] = {"4": -5}
        with pytest.raises(ValueError, match="negative count"):
            GmapProfile.from_dict(data)

    def test_non_integer_pc_keys(self):
        data = minimal_profile().to_dict()
        data["instructions"]["xyz"] = data["instructions"].pop("16")
        with pytest.raises(ValueError):
            GmapProfile.from_dict(data)


class TestExtremeInputs:
    def test_single_thread_kernel(self):
        profile = minimal_profile(block_dim=(1, 1, 1))
        traces = ProxyGenerator(profile, seed=0).generate_warp_traces()
        assert len(traces) == 1

    def test_huge_reuse_distances_capped(self):
        profile = minimal_profile()
        profile.pi_profiles[0].reuse = Histogram({10**9: 3})
        profile.instructions[0x10].intra_stride = Histogram({128: 1})
        # Lookback is never satisfiable; must not crash or hang.
        traces = ProxyGenerator(profile, seed=0).generate_warp_traces()
        assert traces

    def test_gigantic_stride_values(self):
        profile = minimal_profile()
        profile.instructions[0x10].intra_stride = Histogram({1 << 45: 1})
        traces = ProxyGenerator(profile, seed=0).generate_warp_traces()
        for trace in traces:
            for _, address, _, _ in trace.transactions:
                assert 0 <= address < 1 << 62  # wrapped into the window

    def test_many_pi_profiles(self):
        profile = minimal_profile()
        profile.pi_profiles = [
            PiProfileStats(sequence=(0x10,) * (i + 1), probability=1 / 64)
            for i in range(64)
        ]
        rng_traces = ProxyGenerator(profile, seed=9).generate_warp_traces()
        assert len(rng_traces) == 2


class TestTraceIntegrity:
    def _traces(self):
        from repro.gpu.executor import WarpTrace

        trace = WarpTrace(warp_id=0, block=0)
        trace.instructions = [(0x10, 2)]
        trace.transactions = [(0x10, 0, 128, 0), (0x10, 128, 128, 0)]
        return [trace]

    def test_tampered_trace_rejected(self, tmp_path):
        from repro.io.trace_io import load_warp_traces, save_warp_traces

        path = tmp_path / "a.trace"
        save_warp_traces(self._traces(), path)
        text = path.read_text()
        path.write_text(text.replace("T 0x10 0x0 128 R",
                                     "T 0x10 0x40 128 R"))
        with pytest.raises(CorruptArtifactError, match="checksum"):
            load_warp_traces(path)

    def test_legacy_trace_without_trailer_loads(self, tmp_path):
        from repro.io.trace_io import load_warp_traces, save_warp_traces

        path = tmp_path / "a.trace"
        save_warp_traces(self._traces(), path)
        lines = [l for l in path.read_text().splitlines()
                 if not l.startswith("# sha256")]
        path.write_text("\n".join(lines) + "\n")
        restored = load_warp_traces(path)
        assert restored[0].transactions == self._traces()[0].transactions

    def test_thread_trace_tamper_rejected(self, tmp_path):
        from repro.io.thread_trace_io import (
            load_thread_traces,
            save_thread_traces,
        )

        from repro.gpu.hierarchy import LaunchConfig
        from repro.gpu.instructions import pack

        path = tmp_path / "a.ttrace"
        save_thread_traces([[pack(0x10, 0, 4, False)]],
                           LaunchConfig(grid_dim=1, block_dim=1), path)
        original = path.read_text()
        assert "# sha256" in original
        path.write_text(original.replace(" 4 ", " 8 "))
        with pytest.raises(CorruptArtifactError, match="checksum"):
            load_thread_traces(path)


class TestProfileIntegrity:
    def test_tampered_profile_rejected(self, tmp_path):
        import json

        from repro.io.profile_io import load_profile, save_profile

        path = tmp_path / "p.json"
        save_profile(minimal_profile(), path)
        data = json.loads(path.read_text())
        assert "_checksum" in data
        data["total_transactions"] = 999999
        path.write_text(json.dumps(data))
        with pytest.raises(CorruptArtifactError, match="checksum"):
            load_profile(path)

    def test_deliberate_edit_without_checksum_loads(self, tmp_path):
        """Dropping ``_checksum`` is the documented hand-edit escape hatch."""
        import json

        from repro.io.profile_io import load_profile, save_profile

        path = tmp_path / "p.json"
        save_profile(minimal_profile(), path)
        data = json.loads(path.read_text())
        del data["_checksum"]
        data["total_transactions"] = 24
        path.write_text(json.dumps(data))
        assert load_profile(path).total_transactions == 24


class TestCacheIntegrity:
    def test_corrupt_entry_quarantined_and_recomputed(self, tmp_path):
        from repro.core.cache import ArtifactCache

        cache = ArtifactCache(tmp_path / "cache")
        path = cache.content.path("pair", "ab" * 32)
        cache.content.save(path, {"value": 1})
        assert cache.content.load(path, dict)["value"] == 1
        path.write_bytes(b"\x00garbage\x00")
        assert cache.content.load(path, dict) is None  # miss -> caller recomputes
        assert cache.counters.quarantined == 1
        assert not path.exists()
        assert list((cache.root / "quarantine").iterdir())

    def test_tampered_entry_fails_checksum(self, tmp_path):
        import gzip
        import json

        from repro.core.cache import ArtifactCache

        cache = ArtifactCache(tmp_path / "cache")
        path = cache.content.path("pair", "cd" * 32)
        cache.content.save(path, {"value": 1})
        payload = json.loads(gzip.decompress(path.read_bytes()))
        payload["value"] = 2  # bit-flip without updating the checksum
        path.write_bytes(gzip.compress(json.dumps(payload).encode()))
        assert cache.content.load(path, dict) is None
        assert cache.counters.quarantined == 1
