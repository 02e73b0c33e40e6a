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

from typing import Dict, Optional, Tuple


class MshrFile:
    """In-flight miss tracking for one cache.

    An entry retires at the first *prune time* after its insertion that
    reaches its completion.  The prune times are the ``now`` of every
    :meth:`lookup` and :meth:`allocate`, plus ``now + stall`` when a full
    file stalls.  ``_floor`` is the latest prune time so far, so an entry
    inserted with a completion above the floor is live exactly while its
    completion stays above the floor — no completion heap is needed.  An
    entry inserted at or below the floor (the floor ran ahead of the
    caller's clock after a stall, or the caller's clock is not monotone)
    also goes into ``_early`` and retires at the next prune time that
    reaches it.  Dead entries stay in ``_in_flight`` until the map fills
    up to ``entries`` (:meth:`_wait_for_entry`).
    """

    __slots__ = ("entries", "_in_flight", "_early", "_floor")

    def __init__(self, entries: int) -> None:
        if entries < 1:
            raise ValueError(f"MSHR count must be >= 1, got {entries}")
        self.entries = entries
        self._in_flight: Dict[int, float] = {}
        self._early: Dict[int, float] = {}
        self._floor = float("-inf")

    def _prune_early(self, time: float) -> None:
        early = self._early
        for line in [line for line, done in early.items() if done <= time]:
            del early[line]

    def _wait_for_entry(self, now: float) -> float:
        """Make room in a full map; returns the stall.

        If the earliest completion is at or below the floor, the map holds
        dead entries, and it is filtered to the live ones.  If every entry
        is still live, the requester stalls until the earliest completes;
        that time is a prune time, and the entry it retires is dropped, so
        a file that stalls on every miss never needs the filter.
        """
        in_flight = self._in_flight
        early = self._early
        floor = self._floor
        earliest = min(in_flight.values())
        if earliest <= floor:  # dead entries, or side-map ones
            in_flight = self._in_flight = {
                key: done for key, done in in_flight.items()
                if done > floor or key in early
            }
            if len(in_flight) < self.entries:
                return 0.0
            earliest = min(in_flight.values())
        stall = max(0.0, earliest - now)
        if now + stall > floor:
            self._floor = now + stall
        if early:
            self._prune_early(now + stall)
        if earliest <= self._floor:
            # Drop the entry this prune retired.  It is usually the
            # oldest, so the first key is tried before a search.
            first = next(iter(in_flight))
            if in_flight[first] != earliest:
                first = min(in_flight, key=in_flight.__getitem__)
            if first not in early:
                del in_flight[first]
        return stall

    def lookup(self, line: int, now: float) -> Optional[float]:
        """Completion time of an in-flight fill of ``line``, if any."""
        floor = self._floor
        if now > floor:
            floor = self._floor = now
        if self._early:
            self._prune_early(now)
        completion = self._in_flight.get(line)
        if completion is not None and (completion > floor
                                       or line in self._early):
            return completion
        return None

    def allocate(self, line: int, now: float, service_latency: float) -> Tuple[float, float]:
        """Reserve an entry for a new miss.

        Returns ``(stall, completion_time)``: ``stall`` is the extra delay
        spent waiting for a free entry (0 if one was available), and the fill
        completes at ``now + stall + service_latency``.
        """
        floor = self._floor
        if now > floor:
            floor = self._floor = now
        early = self._early
        if early:
            self._prune_early(now)
        stall = 0.0
        if len(self._in_flight) >= self.entries:
            stall = self._wait_for_entry(now)
            floor = self._floor
        completion = now + stall + service_latency
        self._in_flight[line] = completion
        if completion <= floor:
            early[line] = completion
        elif early:
            early.pop(line, None)
        return stall, completion

    @property
    def outstanding(self) -> int:
        """Number of live entries."""
        floor = self._floor
        return len(self._early) + sum(
            1 for done in self._in_flight.values() if done > floor)
