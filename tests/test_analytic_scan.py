"""The array set-distance scan against the scalar oracle, field by field.

The analytic backend's ``numpy`` scan (:class:`_ArraySetDistanceScan`)
must reproduce every field of the scalar per-set stack walk
(:class:`_SetDistanceScan`) exactly — histograms, stored histogram, cold
and stored-line counts, and the final-stack residency answers at every
associativity up to one past the tracked depth — so analytic
``SimResult``s are bit-identical across backends.  The record-to-line
expansion feeding both scans is cross-checked the same way.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

np = pytest.importorskip("numpy")

from repro.analytical.analytic import (  # noqa: E402
    TRACKED_SET_DEPTH,
    _BEYOND_DEPTH,
    AnalyticCacheModel,
    _ArraySetDistanceScan,
    _expand_lines,
    _expand_lines_array,
    _SetDistanceScan,
)
from repro.gpu.memspace import (  # noqa: E402
    CONSTANT_BASE,
    SHARED_BASE,
    TEXTURE_BASE,
)

#: Every associativity the residency answers are compared at.
ASSOCS = range(1, TRACKED_SET_DEPTH + 2)


def _scans(lines, num_sets, stored):
    scalar = _SetDistanceScan(lines, num_sets, set(stored))
    array = _ArraySetDistanceScan(
        np.asarray(lines, dtype=np.int64), num_sets,
        np.unique(np.asarray(sorted(stored), dtype=np.int64)))
    return scalar, array


def _assert_same(scalar, array, assocs=ASSOCS):
    assert array.histogram == scalar.histogram
    assert array.stored_histogram == scalar.stored_histogram
    assert array.colds == scalar.colds
    assert array.accesses == scalar.accesses
    assert array.stored_lines == scalar.stored_lines
    for assoc in assocs:
        assert array.resident(assoc) == scalar.resident(assoc), assoc
        assert array.misses(assoc) == scalar.misses(assoc), assoc
        assert array.writebacks(assoc) == scalar.writebacks(assoc), assoc
        assert array.evictions(assoc) == scalar.evictions(assoc), assoc


@st.composite
def streams(draw):
    """``(lines, num_sets, stored)``: mixed, all-duplicate or empty."""
    num_sets = draw(st.sampled_from([1, 2, 3, 4, 5, 7, 8, 12, 16]))
    kind = draw(st.sampled_from(["mixed", "mixed", "duplicate", "empty"]))
    if kind == "empty":
        lines = []
    elif kind == "duplicate":
        lines = [draw(st.integers(0, 1 << 20))] * draw(st.integers(1, 40))
    else:
        lines = draw(st.lists(st.integers(0, 60), min_size=1, max_size=200))
    stored = draw(st.sets(st.integers(0, 64)))
    return lines, num_sets, stored


class TestScanEquivalence:
    """Hypothesis: the array scan equals the scalar scan on every field."""

    @settings(max_examples=40, deadline=None)
    @given(streams())
    def test_every_field_matches(self, stream):
        lines, num_sets, stored = stream
        _assert_same(*_scans(lines, num_sets, stored))

    @pytest.mark.parametrize("num_sets", [1, 3])
    def test_beyond_depth_bucket(self, num_sets):
        """A set with more distinct lines than the tracked depth."""
        distinct = TRACKED_SET_DEPTH + 300
        # Every line maps to set 0; a second sweep reuses each line at
        # distance distinct - 1 (beyond), then a short tail reuses recent
        # lines at small distances.
        first = [i * num_sets for i in range(distinct)]
        lines = first + first + first[-5:] + first[:3]
        stored = set(first[::7])
        scalar, array = _scans(lines, num_sets, stored)
        assert scalar.histogram[_BEYOND_DEPTH] > 0
        _assert_same(scalar, array)


@st.composite
def records(draw):
    """Flat-trace records: size-0, line-wide, line-crossing, stores."""
    address = draw(st.integers(0, 4096))
    size = draw(st.sampled_from([0, 1, 4, 8, 31, 32, 64, 100, 128, 256, 300]))
    return (draw(st.integers(0, 9)), address, size, draw(st.booleans()))


class TestExpandLines:
    """``_expand_lines`` vs its array twin on both backends' inputs."""

    @settings(max_examples=100, deadline=None)
    @given(st.lists(records(), max_size=40),
           st.sampled_from([32, 64, 128]))
    def test_sector_split_matches(self, recs, line_size):
        lines, stored = _expand_lines(recs, line_size)
        columns = np.asarray(
            [(a, s, int(w)) for _pc, a, s, w in recs],
            dtype=np.int64).reshape(-1, 3)
        array_lines, array_stored = _expand_lines_array(columns, line_size)
        assert array_lines.tolist() == lines
        assert array_stored.tolist() == sorted(stored)


class TestFromFlat:
    """Both backends filter and merge the same record streams."""

    TRACES = [
        [(1, 0x100, 4, False), (-1, 0, 0, False), (2, SHARED_BASE + 8, 4,
         True), (3, 0x180, 256, True), (4, TEXTURE_BASE, 4, False)],
        [],
        [(5, CONSTANT_BASE + 4, 4, False), (6, 0x1000, 0, True),
         (7, 0x207c, 8, False)],
    ]

    def test_model_state_matches(self):
        scalar = AnalyticCacheModel.from_flat(self.TRACES, "python")
        array = AnalyticCacheModel.from_flat(self.TRACES, "numpy")
        assert (array.backend, scalar.backend) == ("numpy", "python")
        for attr in ("requests", "shared_accesses", "special_accesses",
                     "core_cycles", "active_cores"):
            assert getattr(array, attr) == getattr(scalar, attr), attr
        for line_size in (32, 64, 128):
            per_core, merged = scalar._lines(line_size)
            array_core, array_merged = array._lines(line_size)
            assert array_merged.tolist() == merged
            for (lines, stored), (a_lines, a_stored) in zip(
                    per_core, array_core):
                assert a_lines.tolist() == lines
                assert a_stored.tolist() == sorted(stored)
