"""Tests for profile and trace serialisation."""

from __future__ import annotations

import pytest

from repro.core.profiler import GmapProfiler
from repro.gpu.executor import WarpTrace, kernel_warp_traces
from repro.io.profile_io import load_profile, save_profile
from repro.io.trace_io import load_warp_traces, save_warp_traces


class TestProfileIO:
    def test_json_round_trip(self, kmeans_profile, tmp_path):
        path = tmp_path / "kmeans.json"
        save_profile(kmeans_profile, path)
        restored = load_profile(path)
        assert restored.name == kmeans_profile.name
        assert restored.to_dict() == kmeans_profile.to_dict()

    def test_gzip_round_trip(self, kmeans_profile, tmp_path):
        path = tmp_path / "kmeans.json.gz"
        save_profile(kmeans_profile, path)
        assert load_profile(path).to_dict() == kmeans_profile.to_dict()

    def test_gzip_is_smaller(self, kmeans_profile, tmp_path):
        plain = tmp_path / "p.json"
        packed = tmp_path / "p.json.gz"
        save_profile(kmeans_profile, plain)
        save_profile(kmeans_profile, packed)
        assert packed.stat().st_size < plain.stat().st_size

    def test_json_is_human_auditable(self, kmeans_profile, tmp_path):
        path = tmp_path / "p.json"
        save_profile(kmeans_profile, path)
        text = path.read_text()
        assert '"inter_stride"' in text
        assert '"sched_p_self"' in text


class TestTraceIO:
    def _traces(self):
        t0 = WarpTrace(warp_id=0, block=0)
        t0.instructions = [(0x10, 2), (0x20, 1)]
        t0.transactions = [(0x10, 0, 128, 0), (0x10, 128, 128, 0),
                           (0x20, 4096, 128, 1)]
        t1 = WarpTrace(warp_id=1, block=0)
        t1.instructions = [(0x10, 1)]
        t1.transactions = [(0x10, 8192, 128, 0)]
        return [t0, t1]

    def test_round_trip(self, tmp_path):
        path = tmp_path / "a.trace"
        save_warp_traces(self._traces(), path)
        restored = load_warp_traces(path)
        assert len(restored) == 2
        assert restored[0].transactions == self._traces()[0].transactions
        assert restored[0].instructions == self._traces()[0].instructions
        assert restored[1].warp_id == 1

    def test_magic_required(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text("not a trace\n")
        with pytest.raises(ValueError, match="not a gmap-trace"):
            load_warp_traces(path)

    def test_malformed_record(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text("# gmap-trace v1\nW 0 0\nT oops\n")
        with pytest.raises(ValueError, match="malformed record"):
            load_warp_traces(path)

    def test_record_before_warp(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text("# gmap-trace v1\nT 0x10 0x0 128 R\n")
        with pytest.raises(ValueError, match="malformed record"):
            load_warp_traces(path)

    def test_missing_instructions_synthesised(self, tmp_path):
        path = tmp_path / "a.trace"
        path.write_text(
            "# gmap-trace v1\nW 0 0\nT 0x10 0x0 128 R\nT 0x20 0x80 128 W\n"
        )
        traces = load_warp_traces(path)
        assert traces[0].instructions == [(0x10, 1), (0x20, 1)]

    def test_gzip_trace_round_trip(self, tmp_path):
        path = tmp_path / "a.trace.gz"
        save_warp_traces(self._traces(), path)
        restored = load_warp_traces(path)
        assert restored[0].transactions == self._traces()[0].transactions

    def test_sync_markers_survive_trace_round_trip(self, tmp_path):
        from repro.gpu.instructions import SYNC_PC
        trace = WarpTrace(warp_id=0, block=0)
        trace.instructions = [(0x10, 1), (SYNC_PC, 1)]
        trace.transactions = [(0x10, 0, 128, 0), (SYNC_PC, 0, 0, 0)]
        path = tmp_path / "s.trace"
        save_warp_traces([trace], path)
        restored = load_warp_traces(path)
        assert restored[0].instructions == trace.instructions
        assert restored[0].transactions == trace.transactions

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "a.trace"
        path.write_text(
            "# gmap-trace v1\n\n# comment\nW 0 0\nT 0x10 0x0 128 R\n"
        )
        assert len(load_warp_traces(path)) == 1

    def test_kernel_round_trip_preserves_profile(self, tiny_kmeans, tmp_path):
        """Profiling reloaded traces gives identical statistics."""
        from repro.core.profiler import unit_streams_from_warp_traces
        traces = kernel_warp_traces(tiny_kmeans)
        path = tmp_path / "kmeans.trace"
        save_warp_traces(traces, path)
        reloaded = load_warp_traces(path)
        direct = GmapProfiler().profile(tiny_kmeans)
        via_file = GmapProfiler().profile_unit_streams(
            unit_streams_from_warp_traces(reloaded), "warp", name="kmeans",
            grid_dim=direct.grid_dim, block_dim=direct.block_dim,
        )
        assert via_file.instructions[0xE8].inter_stride == \
            direct.instructions[0xE8].inter_stride
        assert via_file.pi_profiles[0].reuse == direct.pi_profiles[0].reuse
