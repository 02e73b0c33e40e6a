"""Tests for the external per-thread trace importer."""

from __future__ import annotations

import pytest

from repro.core.profiler import GmapProfiler, unit_streams_from_warp_traces
from repro.gpu.executor import collect_thread_traces, kernel_warp_traces
from repro.io.thread_trace_io import (
    load_thread_traces,
    save_thread_traces,
    warp_traces_from_thread_file,
)
from repro.workloads import suite


class TestRoundTrip:
    def test_save_load(self, tiny_vectoradd, tmp_path):
        thread_traces = collect_thread_traces(tiny_vectoradd)
        path = tmp_path / "v.ttrace"
        save_thread_traces(thread_traces, tiny_vectoradd.launch, path)
        restored, launch = load_thread_traces(path)
        assert launch == tiny_vectoradd.launch
        assert restored == thread_traces

    def test_gzip_round_trip(self, tiny_vectoradd, tmp_path):
        thread_traces = collect_thread_traces(tiny_vectoradd)
        path = tmp_path / "v.ttrace.gz"
        save_thread_traces(thread_traces, tiny_vectoradd.launch, path)
        restored, _ = load_thread_traces(path)
        assert restored == thread_traces

    def test_sync_markers_survive(self, tmp_path):
        kernel = suite.make("pathfinder", "tiny")  # barriers every iteration
        thread_traces = collect_thread_traces(kernel)
        path = tmp_path / "p.ttrace"
        save_thread_traces(thread_traces, kernel.launch, path)
        restored, _ = load_thread_traces(path)
        assert restored == thread_traces


class TestValidation:
    def test_missing_header(self, tmp_path):
        path = tmp_path / "x.ttrace"
        path.write_text("0 0x10 0x0 4 R\n")
        with pytest.raises(ValueError, match="not a gmap-ttrace"):
            load_thread_traces(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "x.ttrace"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load_thread_traces(path)

    def test_tid_out_of_range(self, tmp_path):
        path = tmp_path / "x.ttrace"
        path.write_text("# gmap-ttrace v1 grid=1 block=32\n99 0x10 0x0 4 R\n")
        with pytest.raises(ValueError, match="malformed record"):
            load_thread_traces(path)

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "x.ttrace"
        path.write_text("# gmap-ttrace v1 grid=1 block=32\n0 what\n")
        with pytest.raises(ValueError, match="malformed record"):
            load_thread_traces(path)

    def test_threads_without_records_are_empty(self, tmp_path):
        path = tmp_path / "x.ttrace"
        path.write_text("# gmap-ttrace v1 grid=1 block=32\n5 0x10 0x80 4 W\n")
        traces, launch = load_thread_traces(path)
        assert launch.total_threads == 32
        assert traces[5] == [(0x10, 0x80, 4, 1)]
        assert traces[0] == []


class TestFrontEndIntegration:
    def test_imported_trace_matches_native_front_end(self, tiny_kmeans, tmp_path):
        """Round-tripping thread traces through the file reproduces the
        native warp traces bit for bit."""
        path = tmp_path / "k.ttrace"
        save_thread_traces(
            collect_thread_traces(tiny_kmeans), tiny_kmeans.launch, path
        )
        imported, _ = warp_traces_from_thread_file(path)
        native = kernel_warp_traces(tiny_kmeans)
        assert [t.transactions for t in imported] == \
            [t.transactions for t in native]
        assert [t.instructions for t in imported] == \
            [t.instructions for t in native]

    def test_profile_from_imported_trace(self, tiny_kmeans, tmp_path):
        path = tmp_path / "k.ttrace"
        save_thread_traces(
            collect_thread_traces(tiny_kmeans), tiny_kmeans.launch, path
        )
        warp_traces, launch = warp_traces_from_thread_file(path)
        profile = GmapProfiler().profile_unit_streams(
            unit_streams_from_warp_traces(warp_traces), "warp",
            name="imported",
            grid_dim=(launch.grid_dim.x, 1, 1),
            block_dim=(launch.block_dim.x, 1, 1),
        )
        assert profile.instructions[0xE8].inter_stride.dominant()[0] == 4352

    def test_cli_profiles_ttrace(self, tiny_vectoradd, tmp_path, capsys):
        from repro.cli import main

        trace_path = tmp_path / "v.ttrace"
        save_thread_traces(
            collect_thread_traces(tiny_vectoradd), tiny_vectoradd.launch,
            trace_path,
        )
        out_path = tmp_path / "p.json"
        assert main(["profile", str(trace_path), "-o", str(out_path)]) == 0
        from repro.io.profile_io import load_profile
        profile = load_profile(out_path)
        assert profile.grid_dim == (2, 1, 1)
        assert profile.num_instructions == 3