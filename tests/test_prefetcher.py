"""Tests for the stride and stream prefetchers."""

from __future__ import annotations

from typing import List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memsim.config import PrefetcherConfig
from repro.memsim.prefetcher import StreamPrefetcher, StridePrefetcher, make_prefetcher


class TestPrefetcherConfig:
    def test_kind_validation(self):
        with pytest.raises(ValueError):
            PrefetcherConfig(kind="markov")

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            PrefetcherConfig(kind="stride", degree=0)
        with pytest.raises(ValueError):
            PrefetcherConfig(kind="stream", stream_window=0)
        with pytest.raises(ValueError):
            PrefetcherConfig(kind="stride", table_size=0)

    def test_factory(self):
        assert isinstance(
            make_prefetcher(PrefetcherConfig(kind="stride"), 128), StridePrefetcher
        )
        assert isinstance(
            make_prefetcher(PrefetcherConfig(kind="stream"), 128), StreamPrefetcher
        )

    def test_kind_mismatch_rejected(self):
        with pytest.raises(ValueError):
            StridePrefetcher(PrefetcherConfig(kind="stream"), 128)
        with pytest.raises(ValueError):
            StreamPrefetcher(PrefetcherConfig(kind="stride"), 128)


class TestStridePrefetcher:
    def _pf(self, degree=2, table_size=64, train_on_miss_only=False):
        config = PrefetcherConfig(kind="stride", degree=degree,
                                  table_size=table_size,
                                  train_on_miss_only=train_on_miss_only)
        return StridePrefetcher(config, line_size=128)

    def test_needs_two_confirmations(self):
        pf = self._pf()
        assert pf.observe(0x10, 0, hit=False) == []
        assert pf.observe(0x10, 128, hit=False) == []  # stride learned
        out = pf.observe(0x10, 256, hit=False)         # confirmed
        assert out

    def test_prefetch_addresses_follow_stride(self):
        pf = self._pf(degree=3)
        for address in (0, 128, 256):
            out = pf.observe(0x10, address, hit=False)
        assert out == [384, 512, 640]

    def test_line_granularity_dedupe(self):
        """Sub-line strides still yield distinct line prefetches only."""
        pf = self._pf(degree=4)
        for address in (0, 32, 64):
            out = pf.observe(0x10, address, hit=False)
        assert out == sorted(set(out))
        assert all(a % 128 == 0 for a in out)

    def test_stride_change_resets_confidence(self):
        pf = self._pf()
        pf.observe(1, 0, False)
        pf.observe(1, 128, False)
        pf.observe(1, 256, False)
        assert pf.observe(1, 8192, False) == []  # new stride, confidence 1

    def test_zero_stride_ignored(self):
        pf = self._pf()
        pf.observe(1, 64, False)
        assert pf.observe(1, 64, False) == []
        assert pf.observe(1, 64, False) == []

    def test_negative_stride(self):
        pf = self._pf(degree=1)
        for address in (4096, 3968, 3840):
            out = pf.observe(1, address, False)
        assert out == [3712]

    def test_per_pc_isolation(self):
        """Interleaved PCs with different strides both train (many-thread
        aware PC indexing, after Lee et al. [12])."""
        pf = self._pf(degree=1)
        seq = [(1, 0), (2, 10_000), (1, 128), (2, 12_048), (1, 256), (2, 14_096)]
        outs = {}
        for pc, address in seq:
            outs[pc] = pf.observe(pc, address, False)
        assert outs[1] == [384]
        assert outs[2] == [(14_096 + 2048) // 128 * 128]

    def test_table_eviction_fifo(self):
        pf = self._pf(table_size=2)
        pf.observe(1, 0, False)
        pf.observe(2, 0, False)
        pf.observe(3, 0, False)  # evicts PC 1
        assert pf.observe(1, 128, False) == []  # PC 1 retrains from scratch

    def test_train_on_miss_only(self):
        pf = self._pf(train_on_miss_only=True)
        for address in (0, 128, 256, 384):
            out = pf.observe(1, address, hit=True)
        assert out == []


class TestStreamPrefetcher:
    def _pf(self, degree=2, window=8, table_size=4):
        config = PrefetcherConfig(kind="stream", degree=degree,
                                  stream_window=window, table_size=table_size)
        return StreamPrefetcher(config, line_size=128)

    def test_second_nearby_miss_confirms_stream(self):
        pf = self._pf(degree=2)
        assert pf.observe(0, hit=False) == []
        out = pf.observe(256, hit=False)  # +2 lines, within window
        assert out == [3 * 128, 4 * 128]

    def test_descending_stream(self):
        pf = self._pf(degree=2)
        pf.observe(10 * 128, False)
        out = pf.observe(8 * 128, False)
        assert out == [7 * 128, 6 * 128]

    def test_outside_window_allocates_new_stream(self):
        pf = self._pf(window=4)
        pf.observe(0, False)
        assert pf.observe(100 * 128, False) == []  # too far: new stream

    def test_same_line_ignored(self):
        pf = self._pf()
        pf.observe(0, False)
        assert pf.observe(64, False) == []  # same 128B line

    def test_stream_table_bounded(self):
        pf = self._pf(table_size=2)
        for k in range(10):
            pf.observe(k * 128 * 1000, False)
        assert len(pf._streams) <= 2

    def test_window_sweep_parameters(self):
        """Windows 8/16/32 (Figure 6d) gate how far a stream can jump."""
        near_miss = 12 * 128
        small = self._pf(window=8)
        small.observe(0, False)
        assert small.observe(near_miss, False) == []
        large = self._pf(window=16)
        large.observe(0, False)
        assert large.observe(near_miss, False) != []


# The stream prefetcher before its table was indexed, kept verbatim (but for
# the class name) as the model of the indexed one.
class LinearScanStreamPrefetcher:
    """Sequential stream prefetcher (L2)."""

    def __init__(self, config: PrefetcherConfig, line_size: int) -> None:
        if config.kind != "stream":
            raise ValueError(f"expected a stream config, got {config.kind!r}")
        self.config = config
        self.line_size = line_size
        # Each stream: [last_line, direction, confirmed]
        self._streams: List[list] = []

    def observe(self, address: int, hit: bool) -> List[int]:
        """Train on an access (typically L2 misses); returns prefetch addrs."""
        if self.config.train_on_miss_only and hit:
            return []
        line = address // self.line_size
        window = self.config.stream_window
        for stream in self._streams:
            delta = line - stream[0]
            if delta == 0:
                return []
            if 0 < delta <= window and stream[1] >= 0:
                stream[0] = line
                stream[1] = 1
                stream[2] = True
                return self._issue(line, 1)
            if -window <= delta < 0 and stream[1] <= 0:
                stream[0] = line
                stream[1] = -1
                stream[2] = True
                return self._issue(line, -1)
        if len(self._streams) >= self.config.table_size:
            self._streams.pop(0)
        self._streams.append([line, 0, False])
        return []

    def _issue(self, line: int, direction: int) -> List[int]:
        size = self.line_size
        out = []
        for k in range(1, self.config.degree + 1):
            target = line + direction * k
            if target >= 0:
                out.append(target * size)
        return out


class TestIndexedStreamTableModel:
    @settings(max_examples=400, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(0, 160), st.integers(0, 127),
                           st.booleans()), max_size=120),
        st.integers(1, 32),
        st.integers(1, 8),
        st.integers(1, 8),
        st.booleans(),
    )
    def test_matches_linear_scan(self, accesses, window, table_size, degree,
                                 miss_only):
        config = PrefetcherConfig(kind="stream", degree=degree,
                                  stream_window=window, table_size=table_size,
                                  train_on_miss_only=miss_only)
        indexed = StreamPrefetcher(config, line_size=128)
        model = LinearScanStreamPrefetcher(config, line_size=128)
        for line, offset, hit in accesses:
            address = line * 128 + offset
            assert indexed.observe(address, hit) == model.observe(address, hit)
            assert list(indexed._streams.values()) == model._streams
