"""The analytic model's derived scans against direct scans, field by field.

``AnalyticCacheModel`` scans each stream at its record granularity and
reads finer geometries off that scan (:class:`_DerivedScan`):

* **granularity** — when every record is one aligned ``G``-byte segment,
  the scan at line ``G / k`` over ``S`` sets (``k | S``) is ``k`` copies
  of the scan at ``(G, S / k)``;
* **sector repeats** — the L2 demand stream expanded at a finer L1 line
  is the L2-line stream with back-to-back repeats, for any records.

Each identity must reproduce a direct scan of the fine stream exactly on
both backends, and a stream that breaks the granularity premise must take
the direct scan.  The last test pins full-sweep predictions, so a wrong
derivation on any fig6a/6b point fails here and not only in the bench.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.analytical.analytic import (
    TRACKED_SET_DEPTH,
    AnalyticCacheModel,
    _DerivedScan,
)
from repro.core.backend import numpy_available
from repro.gpu.memspace import GLOBAL_BASE
from repro.validation.harness import build_pipeline
from repro.validation.sweeps import l1_sweep, l2_sweep
from repro.workloads import suite

BACKENDS = [
    "python",
    pytest.param("numpy", marks=pytest.mark.skipif(
        not numpy_available(), reason="the array scan needs numpy")),
]


def _assocs(accesses):
    """Associativities 1 .. ``TRACKED_SET_DEPTH + 1`` where answers can move.

    No set holds more lines than the stream has accesses, so past that
    every answer is constant and only the depth boundary is left to check.
    """
    bound = min(accesses + 2, TRACKED_SET_DEPTH)
    return [*range(1, bound), TRACKED_SET_DEPTH, TRACKED_SET_DEPTH + 1]


def _assert_same(derived, direct):
    assert derived.histogram == direct.histogram
    assert derived.stored_histogram == direct.stored_histogram
    assert derived.colds == direct.colds
    assert derived.accesses == direct.accesses
    assert derived.stored_lines == direct.stored_lines
    for assoc in _assocs(direct.accesses):
        assert derived.resident(assoc) == direct.resident(assoc), assoc
        assert derived.misses(assoc) == direct.misses(assoc), assoc
        assert derived.writebacks(assoc) == direct.writebacks(assoc), assoc
        assert derived.evictions(assoc) == direct.evictions(assoc), assoc


def _direct_l1(model, line_size, num_sets):
    per_core, _ = model._lines(line_size)
    return [model._scan(lines, num_sets, stored) for lines, stored in per_core]


def _direct_l2(model, l1_line, l2_line, num_sets):
    """The L2 demand stream scanned as expanded: finer line, then shifted."""
    stream_line = min(l1_line, l2_line)
    _, merged = model._lines(stream_line)
    shift = l2_line.bit_length() - stream_line.bit_length()
    if model.backend == "numpy":
        return model._scan(merged >> shift, num_sets, merged[:0])
    return model._scan([line >> shift for line in merged], num_sets, set())


def _check_l1(model, line_size, num_sets, derived):
    scans = model._l1_scans(line_size, num_sets)
    for scan, direct in zip(scans, _direct_l1(model, line_size, num_sets),
                            strict=True):
        assert isinstance(scan, _DerivedScan) == derived
        _assert_same(scan, direct)


def _check_l2(model, l1_line, l2_line, num_sets, derived):
    scan = model._l2_scan(l1_line, l2_line, num_sets)
    assert isinstance(scan, _DerivedScan) == derived
    _assert_same(scan, _direct_l2(model, l1_line, l2_line, num_sets))


@st.composite
def segment_traces(draw):
    """``(per-core traces, G)``: whole aligned ``G``-byte segments only."""
    granule = draw(st.sampled_from([64, 128, 256]))
    segments = st.tuples(st.integers(0, 9), st.integers(0, 80),
                         st.booleans())
    traces = draw(st.lists(st.lists(segments, max_size=120),
                           min_size=1, max_size=3))
    assume(any(traces))
    return [
        [(pc, GLOBAL_BASE + segment * granule, granule, store)
         for pc, segment, store in trace]
        for trace in traces
    ], granule


@st.composite
def mixed_traces(draw):
    """Per-core traces of mixed-size, unaligned records."""
    record = st.tuples(
        st.integers(0, 9), st.integers(0, 8192),
        st.sampled_from([0, 1, 4, 8, 31, 32, 64, 100, 128, 256, 300]),
        st.booleans())
    traces = draw(st.lists(st.lists(record, max_size=80),
                           min_size=1, max_size=3))
    return [[(pc, GLOBAL_BASE + address, size, store)
             for pc, address, size, store in trace] for trace in traces]


@pytest.mark.parametrize("backend", BACKENDS)
class TestGranularity:
    """Whole-segment streams: line ``G / k`` is ``k`` copies of line ``G``."""

    @settings(max_examples=50, deadline=None)
    @given(segment_traces(), st.sampled_from([2, 4]),
           st.sampled_from([1, 2, 3, 4, 5, 6, 8, 12]))
    def test_derived_scans_match_direct(self, backend, stream, copies,
                                        coarse_sets):
        traces, granule = stream
        model = AnalyticCacheModel.from_flat(traces, backend)
        assert model._granule == granule
        line, num_sets = granule // copies, coarse_sets * copies
        _check_l1(model, line, num_sets, derived=True)
        # L1 line at least the L2 line: the plain L2-line stream.
        _check_l2(model, granule, line, num_sets, derived=True)
        # A finer L1 line under it adds sector repeats to that stream.
        _check_l2(model, line // 2, line, num_sets, derived=True)

    @settings(max_examples=10, deadline=None)
    @given(segment_traces(), st.sampled_from([(2, 1), (4, 2), (4, 6)]))
    def test_indivisible_sets_scan_directly(self, backend, stream, geometry):
        """``S < k`` or ``k`` not dividing ``S``: no copy structure."""
        traces, granule = stream
        copies, num_sets = geometry
        model = AnalyticCacheModel.from_flat(traces, backend)
        _check_l1(model, granule // copies, num_sets, derived=False)
        _check_l2(model, granule, granule // copies, num_sets, derived=False)

    def test_lines_wider_than_segments_scan_directly(self, backend):
        traces = [[(0, GLOBAL_BASE + 64 * i, 64, i % 3 == 0)
                   for i in (0, 1, 5, 0, 2, 1, 9)]]
        model = AnalyticCacheModel.from_flat(traces, backend)
        _check_l1(model, 128, 4, derived=False)
        _check_l2(model, 256, 128, 4, derived=False)


@pytest.mark.parametrize("backend", BACKENDS)
class TestSectorRepeats:
    """Any records: a finer L1 line only repeats the L2-line stream."""

    @settings(max_examples=60, deadline=None)
    @given(mixed_traces(),
           st.sampled_from([(32, 64), (32, 128), (64, 128), (64, 256)]),
           st.sampled_from([1, 2, 3, 4, 5, 7, 8, 12, 16]))
    def test_repeats_match_direct(self, backend, traces, lines, num_sets):
        l1_line, l2_line = lines
        model = AnalyticCacheModel.from_flat(traces, backend)
        _check_l2(model, l1_line, l2_line, num_sets, derived=True)


@pytest.mark.parametrize("backend", BACKENDS)
class TestBrokenPremise:
    """One short or misaligned record sends every geometry to a direct scan."""

    @settings(max_examples=20, deadline=None)
    @given(segment_traces(), st.sampled_from(["short", "misaligned"]),
           st.sampled_from([2, 4]), st.sampled_from([2, 4, 8, 12]))
    def test_direct_scan_still_matches(self, backend, stream, flaw, copies,
                                       num_sets):
        traces, granule = stream
        odd = (
            (0, GLOBAL_BASE + granule, granule // 2, True) if flaw == "short"
            else (0, GLOBAL_BASE + granule // 2, granule, True)
        )
        traces = [list(trace) for trace in traces]
        traces[0].insert(len(traces[0]) // 2, odd)
        model = AnalyticCacheModel.from_flat(traces, backend)
        assert model._granule == 0
        line = granule // copies
        _check_l1(model, line, num_sets, derived=False)
        _check_l2(model, granule, line, num_sets, derived=False)


#: SHA-256 (first 16 hex digits) of every ``predict()`` over
#: ``l1_sweep() + l2_sweep()`` for kmeans-tiny on 8 cores, per stream,
#: recorded from the direct scans every geometry once took.  Re-recorded
#: when ``DramStats.queue_samples`` became a property and left
#: ``asdict()``; with ``"queue_samples": 0`` put back into each ``dram``
#: dict the predictions still give the first digests, 35b2d96709d04b5b
#: and 5d223fae2b4dca1c.  Re-recorded again when ``CacheStats.accesses``
#: became a property; with ``"accesses"`` (``hits + misses``) put back
#: into every cache block they give the previous ones, 71ce770263891868
#: and 369e23e3268dc413.
PINNED = {"original": "3d37fc9c73a9334d", "proxy": "5af147f294e082f3"}


@pytest.fixture(scope="module")
def kmeans_pipeline():
    return build_pipeline(suite.make("kmeans", scale="tiny"), num_cores=8)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("stream", sorted(PINNED))
def test_full_sweep_predictions_are_pinned(kmeans_pipeline, backend, stream):
    """All 60 fig6a/6b points, fine lines included, predict as recorded."""
    assert not kmeans_pipeline.proxy_is_original
    model = getattr(kmeans_pipeline, f"{stream}_model")(backend)
    digest = hashlib.sha256()
    for config in l1_sweep() + l2_sweep():
        result = dataclasses.asdict(model.predict(config))
        digest.update(json.dumps(result, sort_keys=True).encode())
    assert digest.hexdigest()[:16] == PINNED[stream]
