"""Tests for exact LRU stack distance computation."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.backend import numpy_available
from repro.core.reuse import (
    COLD_MISS,
    StackDistanceTracker,
    _FenwickTree,
    miss_rate_from_distances,
    naive_stack_distances,
    set_stack_distances,
    stack_distances,
    stack_distances_array,
)

needs_numpy = pytest.mark.skipif(
    not numpy_available(), reason="array kernels need numpy")


def naive_set_stack_distances(trace, num_sets):
    """Per-set oracle: one explicit LRU stack per ``line % num_sets``."""
    stacks = {}
    out = []
    for line in trace:
        stack = stacks.setdefault(line % num_sets, [])
        if line in stack:
            depth = stack.index(line)
            del stack[depth]
            out.append(depth)
        else:
            out.append(COLD_MISS)
        stack.insert(0, line)
    return out


class TestFenwickTree:
    def test_empty_prefix_sum(self):
        tree = _FenwickTree(8)
        assert tree.prefix_sum(7) == 0

    def test_point_updates_accumulate(self):
        tree = _FenwickTree(8)
        tree.add(0, 1)
        tree.add(3, 2)
        tree.add(7, 5)
        assert tree.prefix_sum(0) == 1
        assert tree.prefix_sum(3) == 3
        assert tree.prefix_sum(7) == 8

    def test_range_sum(self):
        tree = _FenwickTree(16)
        for i in range(10):
            tree.add(i, 1)
        assert tree.range_sum(2, 5) == 4
        assert tree.range_sum(0, 9) == 10
        assert tree.range_sum(5, 2) == 0

    def test_negative_delta(self):
        tree = _FenwickTree(4)
        tree.add(1, 3)
        tree.add(1, -2)
        assert tree.range_sum(1, 1) == 1

    def test_growth_beyond_initial_capacity(self):
        tree = _FenwickTree(2)
        tree.add(100, 7)
        assert tree.prefix_sum(100) == 7
        assert tree.range_sum(100, 100) == 7
        assert tree.prefix_sum(99) == 0

    def test_prefix_sum_negative_position(self):
        tree = _FenwickTree(4)
        tree.add(0, 1)
        assert tree.prefix_sum(-1) == 0

    def test_growth_across_several_doublings(self):
        """The O(n) rebuild preserves every point value through 2->256."""
        tree = _FenwickTree(2)
        reference = {}
        rng = random.Random(42)
        # Interleave updates with growth triggers at ever-larger positions.
        for pos in (0, 1, 3, 5, 9, 17, 40, 77, 130, 255):
            for _ in range(3):
                p = rng.randrange(pos + 1)
                delta = rng.randrange(-2, 5)
                tree.add(p, delta)
                reference[p] = reference.get(p, 0) + delta
        prefix = 0
        for i in range(256):
            prefix += reference.get(i, 0)
            assert tree.prefix_sum(i) == prefix
            assert tree.range_sum(i, i) == reference.get(i, 0)

    def test_growth_rebuild_matches_fresh_tree(self):
        grown = _FenwickTree(1)
        fresh = _FenwickTree(1024)
        for i in range(0, 600, 7):
            grown.add(i, i % 5 + 1)
            fresh.add(i, i % 5 + 1)
        for lo, hi in ((0, 599), (3, 3), (100, 400), (590, 599)):
            assert grown.range_sum(lo, hi) == fresh.range_sum(lo, hi)


class TestStackDistanceTracker:
    def test_first_touch_is_cold(self):
        tracker = StackDistanceTracker()
        assert tracker.access("x") == COLD_MISS

    def test_immediate_reuse_is_zero(self):
        tracker = StackDistanceTracker()
        tracker.access("x")
        assert tracker.access("x") == 0

    def test_paper_figure5_example(self):
        """The reuse-distance example of the paper's Figure 5 (cachelines)."""
        # Accesses X[0] X[1] X[2] X[3] X[1] X[2] X[3] X[0] at line
        # granularity 0 0 1 1 0 1 1 0 give distances inf 0 inf 0 1 1 0 1.
        lines = [0, 0, 1, 1, 0, 1, 1, 0]
        expected = [COLD_MISS, 0, COLD_MISS, 0, 1, 1, 0, 1]
        assert list(stack_distances(lines)) == expected

    def test_distance_counts_distinct_not_total(self):
        tracker = StackDistanceTracker()
        for x in ["a", "b", "b", "b", "a"]:
            last = tracker.access(x)
        assert last == 1  # only "b" intervened, despite 3 accesses

    def test_unique_and_access_counters(self):
        tracker = StackDistanceTracker()
        for x in ["a", "b", "a"]:
            tracker.access(x)
        assert tracker.unique_elements == 2
        assert tracker.accesses == 3

    def test_matches_naive_on_fixed_trace(self):
        trace = [0, 1, 2, 0, 3, 1, 1, 2, 4, 0, 5, 3]
        assert list(stack_distances(trace)) == naive_stack_distances(trace)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=12), max_size=150))
    def test_matches_naive_oracle(self, trace):
        assert list(stack_distances(trace)) == naive_stack_distances(trace)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=30), max_size=120))
    def test_distances_bounded_by_unique_count(self, trace):
        tracker = StackDistanceTracker()
        for element in trace:
            distance = tracker.access(element)
            if distance != COLD_MISS:
                assert 0 <= distance < tracker.unique_elements

    def test_large_trace_performance_smoke(self):
        rng = random.Random(7)
        tracker = StackDistanceTracker()
        for _ in range(20_000):
            tracker.access(rng.randrange(1000))
        assert tracker.accesses == 20_000


@needs_numpy
class TestArrayKernel:
    """The sort-based kernel against the explicit-stack oracles."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=12), max_size=150))
    def test_stack_distances_array_matches_naive(self, trace):
        assert stack_distances_array(trace).tolist() == (
            naive_stack_distances(trace))

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=40), max_size=150),
        st.sampled_from([1, 2, 3, 4, 5, 8, 16]),
    )
    def test_set_distances_match_per_set_stacks(self, trace, num_sets):
        import numpy as np

        order, distances, last = set_stack_distances(trace, num_sets)
        in_access_order = np.empty(len(trace), dtype=np.int64)
        in_access_order[order] = distances
        assert in_access_order.tolist() == naive_set_stack_distances(
            trace, num_sets)
        final = np.zeros(len(trace), dtype=bool)
        final[order] = last
        assert final.tolist() == [
            line not in trace[i + 1:] for i, line in enumerate(trace)]
        # Set-major and stable: each set's accesses stay in access order.
        sets = [trace[i] % num_sets for i in order.tolist()]
        assert sets == sorted(sets)
        assert all(a < b for a, b in zip(order.tolist(), order[1:].tolist())
                   if trace[a] % num_sets == trace[b] % num_sets)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=40), max_size=150),
        st.integers(min_value=0, max_value=6),
    )
    def test_depth_clips_distances(self, trace, depth):
        _, clipped, _ = set_stack_distances(trace, 3, depth)
        _, exact, _ = set_stack_distances(trace, 3)
        assert clipped.tolist() == [min(d, depth) for d in exact.tolist()]

    def test_empty_stream(self):
        order, distances, last = set_stack_distances([], 4, 16)
        assert len(order) == len(distances) == len(last) == 0


class TestMissRateFromDistances:
    def test_empty_stream(self):
        assert miss_rate_from_distances([], capacity=4) == 0.0

    def test_all_cold_misses(self):
        assert miss_rate_from_distances([COLD_MISS] * 5, capacity=4) == 1.0

    def test_hits_below_capacity(self):
        distances = [COLD_MISS, 0, 1, 3, 4]
        # capacity 4: distances 0,1,3 hit; cold and 4 miss.
        assert miss_rate_from_distances(distances, capacity=4) == pytest.approx(2 / 5)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=100),
        st.integers(min_value=1, max_value=8),
    )
    def test_matches_fully_associative_lru_cache(self, trace, capacity):
        """Stack distance theory: FA-LRU hit iff distance < capacity."""
        distances = list(stack_distances(trace))
        expected_rate = miss_rate_from_distances(distances, capacity)

        # Simulate an explicit fully-associative LRU cache.
        cache = []
        misses = 0
        for element in trace:
            if element in cache:
                cache.remove(element)
            else:
                misses += 1
                if len(cache) >= capacity:
                    cache.pop()
            cache.insert(0, element)
        assert expected_rate == pytest.approx(misses / len(trace))
