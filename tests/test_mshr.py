"""Tests for the MSHR file."""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memsim.mshr import MshrFile


class TestMshr:
    def test_validation(self):
        with pytest.raises(ValueError):
            MshrFile(0)

    def test_lookup_miss(self):
        mshr = MshrFile(4)
        assert mshr.lookup(0x10, now=0.0) is None

    def test_allocate_and_merge(self):
        mshr = MshrFile(4)
        stall, completion = mshr.allocate(0x10, now=0.0, service_latency=100.0)
        assert stall == 0.0
        assert completion == 100.0
        assert mshr.lookup(0x10, now=50.0) == 100.0

    def test_entry_retires_after_completion(self):
        mshr = MshrFile(4)
        mshr.allocate(0x10, now=0.0, service_latency=100.0)
        assert mshr.lookup(0x10, now=100.0) is None
        assert mshr.outstanding == 0

    def test_full_file_stalls(self):
        mshr = MshrFile(2)
        mshr.allocate(1, now=0.0, service_latency=50.0)
        mshr.allocate(2, now=0.0, service_latency=80.0)
        stall, completion = mshr.allocate(3, now=10.0, service_latency=100.0)
        assert stall == pytest.approx(40.0)  # waits for line 1 at t=50
        assert completion == pytest.approx(150.0)

    def test_no_stall_when_entry_already_free(self):
        mshr = MshrFile(1)
        mshr.allocate(1, now=0.0, service_latency=10.0)
        stall, _ = mshr.allocate(2, now=20.0, service_latency=10.0)
        assert stall == 0.0

    def test_outstanding_count(self):
        mshr = MshrFile(8)
        mshr.allocate(1, 0.0, 100.0)
        mshr.allocate(2, 0.0, 100.0)
        mshr.lookup(3, now=0.0)
        assert mshr.outstanding == 2

    def test_reallocation_of_same_line_overwrites(self):
        mshr = MshrFile(4)
        mshr.allocate(1, 0.0, 10.0)
        mshr.allocate(1, 20.0, 30.0)
        assert mshr.lookup(1, 25.0) == pytest.approx(50.0)


class HeapMshrFile:
    """The completion-heap MSHR file :class:`MshrFile` replaced, verbatim.

    It is the reference for the model test below: every ``lookup``,
    ``allocate`` and ``outstanding`` of the heap-free file must match it.
    """

    __slots__ = ("entries", "_in_flight", "_heap")

    def __init__(self, entries: int) -> None:
        if entries < 1:
            raise ValueError(f"MSHR count must be >= 1, got {entries}")
        self.entries = entries
        self._in_flight: Dict[int, float] = {}
        self._heap: List[Tuple[float, int]] = []

    def _prune(self, now: float) -> None:
        heap = self._heap
        in_flight = self._in_flight
        pop = heapq.heappop
        while heap and heap[0][0] <= now:
            completion, line = pop(heap)
            if in_flight.get(line) == completion:
                del in_flight[line]

    def lookup(self, line: int, now: float) -> Optional[float]:
        """Completion time of an in-flight fill of ``line``, if any."""
        heap = self._heap
        if heap and heap[0][0] <= now:
            self._prune(now)
        return self._in_flight.get(line)

    def allocate(self, line: int, now: float, service_latency: float) -> Tuple[float, float]:
        """Reserve an entry for a new miss.

        Returns ``(stall, completion_time)``: ``stall`` is the extra delay
        spent waiting for a free entry (0 if one was available), and the fill
        completes at ``now + stall + service_latency``.
        """
        heap = self._heap
        if heap and heap[0][0] <= now:
            self._prune(now)
        stall = 0.0
        if len(self._in_flight) >= self.entries:
            earliest = min(self._in_flight.values())
            stall = max(0.0, earliest - now)
            self._prune(now + stall)
        completion = now + stall + service_latency
        self._in_flight[line] = completion
        heapq.heappush(self._heap, (completion, line))
        return stall, completion

    @property
    def outstanding(self) -> int:
        return len(self._in_flight)


_times = st.sampled_from([0.0, 0.1, 0.7, 1.1, 2.5, 3.3, 7.0, 10.0, 16.0, 40.0])
_ops = st.lists(
    st.tuples(
        st.sampled_from(["lookup", "allocate", "lookup-allocate"]),
        st.integers(min_value=0, max_value=6),
        _times,
        st.sampled_from([0.0, 0.2, 1.0, 3.0, 5.3, 12.0, 30.0]),
    ),
    max_size=80,
)


class TestMshrModel:
    """The heap-free file against the heap file, on any call sequence.

    Times are drawn independently, so the clock is not monotone (the L2
    file sees its requests at bank start times).  Small files stall
    often, and that moves the prune floor ahead of later clocks.
    ``allocate`` without a ``lookup`` first re-allocates live lines.
    """

    @settings(max_examples=400, deadline=None)
    @given(st.integers(min_value=1, max_value=4), _ops)
    def test_matches_heap_file(self, entries, ops):
        fast, reference = MshrFile(entries), HeapMshrFile(entries)
        for op, line, now, latency in ops:
            if op != "allocate":
                assert fast.lookup(line, now) == reference.lookup(line, now)
            if op != "lookup":
                assert (fast.allocate(line, now, latency)
                        == reference.allocate(line, now, latency))
            assert fast.outstanding == reference.outstanding

    def test_entry_below_a_stall_floor_lives_until_its_completion(self):
        """A stall prune runs ahead of the clock; a later fill that
        completes before that prune time stays in flight until a prune
        reaches its completion."""
        mshr = MshrFile(1)
        mshr.allocate(1, now=0.0, service_latency=50.0)
        stall, _ = mshr.allocate(2, now=10.0, service_latency=100.0)
        assert stall == 40.0  # pruned at 50; line 2 completes at 150
        assert mshr.lookup(2, now=20.0) == 150.0
        mshr.lookup(2, now=200.0)  # line 2 retires
        assert mshr.allocate(3, now=20.0, service_latency=5.0) == (0.0, 25.0)
        assert mshr.lookup(3, now=21.0) == 25.0
        assert mshr.outstanding == 1
        assert mshr.lookup(3, now=25.0) is None
        assert mshr.outstanding == 0

    def test_stall_prune_that_rounds_short_retires_nothing(self):
        """``1.1 + (5.3 - 1.1)`` falls just short of 5.3, so the stall's
        prune time does not reach the entry it waited for."""
        fast, reference = MshrFile(1), HeapMshrFile(1)
        for mshr in (fast, reference):
            mshr.allocate(1, now=0.0, service_latency=5.3)
            mshr.allocate(2, now=1.1, service_latency=1.0)
        assert fast.outstanding == reference.outstanding == 2
        assert fast.lookup(1, now=1.1) == reference.lookup(1, now=1.1) == 5.3
