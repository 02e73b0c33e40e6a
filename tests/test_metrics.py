"""Tests for validation metrics."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.validation.metrics import (
    SweepComparison,
    absolute_error,
    mean_error,
    pearson_correlation,
    percentage_error,
    rank_agreement,
)


class TestErrors:
    def test_percentage_error(self):
        assert percentage_error(0.5, 0.55) == pytest.approx(0.1)
        assert percentage_error(0.5, 0.45) == pytest.approx(0.1)

    def test_percentage_error_zero_base(self):
        assert percentage_error(0.0, 0.0) == 0.0
        assert percentage_error(0.0, 0.2) == 1.0

    def test_absolute_error(self):
        assert absolute_error(0.30, 0.25) == pytest.approx(0.05)

    def test_mean_error(self):
        assert mean_error([0.5, 0.2], [0.4, 0.2]) == pytest.approx(0.05)

    def test_mean_error_relative(self):
        assert mean_error([0.5, 0.2], [0.45, 0.22], relative=True) == \
            pytest.approx(0.1)

    def test_mean_error_empty(self):
        assert mean_error([], []) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            mean_error([1.0], [1.0, 2.0])


class TestPearson:
    def test_perfect_positive(self):
        assert pearson_correlation([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)

    def test_perfect_negative(self):
        assert pearson_correlation([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_uncorrelated_small(self):
        r = pearson_correlation([1, 2, 3, 4], [1, -1, 1, -1])
        assert abs(r) < 0.5

    def test_both_constant_is_one(self):
        assert pearson_correlation([2, 2, 2], [5, 5, 5]) == 1.0

    def test_one_constant_is_zero(self):
        assert pearson_correlation([2, 2, 2], [1, 2, 3]) == 0.0

    def test_short_vectors(self):
        assert pearson_correlation([1], [9]) == 1.0
        assert pearson_correlation([], []) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            pearson_correlation([1, 2], [1])

    def test_matches_scipy(self):
        pearsonr = pytest.importorskip("scipy.stats", exc_type=ImportError).pearsonr
        xs = [0.1, 0.5, 0.3, 0.9, 0.2, 0.6]
        ys = [0.2, 0.4, 0.35, 0.8, 0.25, 0.5]
        assert pearson_correlation(xs, ys) == pytest.approx(pearsonr(xs, ys)[0])

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(min_value=0, max_value=1, allow_nan=False),
                    min_size=2, max_size=30))
    def test_bounded(self, xs):
        ys = [x * 0.7 + 0.01 for x in xs]
        r = pearson_correlation(xs, ys)
        assert -1.0 - 1e-9 <= r <= 1.0 + 1e-9


class TestRankAgreement:
    def test_identical_ranking(self):
        assert rank_agreement([1, 2, 3], [10, 20, 30]) == 1.0

    def test_reversed_ranking(self):
        assert rank_agreement([1, 2, 3], [3, 2, 1]) == 0.0

    def test_partial(self):
        # Pairs: (1,2)+, (1,3)+, (2,3)-: proxy flips the last pair.
        assert rank_agreement([1, 2, 3], [1, 3, 2]) == pytest.approx(2 / 3)

    def test_ties_agree_when_tied_in_both(self):
        assert rank_agreement([1, 1], [5, 5]) == 1.0
        assert rank_agreement([1, 1], [5, 6]) == 0.0

    def test_short(self):
        assert rank_agreement([1], [2]) == 1.0


class TestWorkingSetCurve:
    def _stream(self, lines):
        return [line * 128 for line in lines]

    def test_curve_monotone_nonincreasing(self):
        from repro.validation.metrics import working_set_curve
        stream = self._stream([i % 64 for i in range(1000)])
        curve = working_set_curve(stream)
        assert all(a >= b - 1e-12 for a, b in zip(curve, curve[1:]))

    def test_resident_set_hits_at_capacity(self):
        from repro.validation.metrics import working_set_curve
        stream = self._stream([i % 8 for i in range(800)])
        curve = working_set_curve(stream, capacities=(4, 8, 16))
        assert curve[0] > 0.9          # 8-line set thrashes 4 lines
        assert curve[1] == pytest.approx(8 / 800)   # cold misses only
        assert curve[2] == pytest.approx(8 / 800)

    def test_empty_stream(self):
        from repro.validation.metrics import working_set_curve
        assert working_set_curve([]) == [0.0] * 6

    def test_distance_zero_for_identical(self):
        from repro.validation.metrics import working_set_distance
        stream = self._stream(list(range(50)) * 4)
        assert working_set_distance(stream, list(stream)) == 0.0

    def test_distance_detects_locality_gap(self):
        from repro.validation.metrics import working_set_distance
        resident = self._stream([i % 8 for i in range(400)])
        streaming = self._stream(range(400))
        assert working_set_distance(resident, streaming) > 0.3

    def test_clone_curve_close_on_pipeline(self, kmeans_profile, tiny_kmeans):
        from repro.core.generator import ProxyGenerator
        from repro.gpu.executor import kernel_warp_traces
        from repro.validation.metrics import working_set_distance
        orig = [a for t in kernel_warp_traces(tiny_kmeans)
                for pc, a, _, _ in t.transactions if pc >= 0]
        clone_traces = ProxyGenerator(kmeans_profile, seed=6).generate_warp_traces()
        clone = [a for t in clone_traces
                 for pc, a, _, _ in t.transactions if pc >= 0]
        assert working_set_distance(orig, clone) < 0.05


class TestSweepComparison:
    def _comparison(self):
        return SweepComparison(
            benchmark="kmeans",
            metric="l1_miss_rate",
            originals=[0.10, 0.20, 0.40],
            proxies=[0.12, 0.18, 0.43],
        )

    def test_mean_abs_error(self):
        assert self._comparison().mean_abs_error == pytest.approx(0.07 / 3)

    def test_accuracy(self):
        c = self._comparison()
        assert c.accuracy == pytest.approx(1.0 - c.mean_abs_error)

    def test_correlation_high(self):
        assert self._comparison().correlation > 0.98

    def test_rank_agreement(self):
        assert self._comparison().rank_agreement == 1.0

    def test_row(self):
        name, err, corr = self._comparison().row()
        assert name == "kmeans"
        assert err == pytest.approx(0.07 / 3)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            SweepComparison("x", "m", [1.0], [])
