"""Miss Status Holding Registers.

GPU caches sustain many outstanding misses per core (64 MSHRs/core in the
paper's Table 2 baseline).  The model tracks in-flight line fills by their
completion time:

* a second miss to an in-flight line *merges* — it completes when the
  primary fill does, without issuing new downstream traffic;
* when all entries are busy, the requester *stalls* until the earliest
  in-flight fill retires (the paper notes GPU cache performance is often
  "sub-optimal due to limited per-thread cache capacity, MSHRs etc.").
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple


class MshrFile:
    """In-flight miss tracking for one cache.

    Completions live in a lazy-deletion min-heap alongside the authoritative
    ``{line: completion}`` map; :meth:`lookup` and :meth:`allocate` peek
    at the heap top and call :meth:`_prune` only when something can
    actually retire.
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
