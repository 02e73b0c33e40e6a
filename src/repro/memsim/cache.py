"""Set-associative cache model (the CMP$im-like substrate).

Write-back, write-allocate, true-LRU set-associative cache.  The model is
trace-driven: :meth:`SetAssociativeCache.access` performs a demand lookup and,
on a miss, fills the line and reports the evicted victim so the hierarchy can
issue writebacks.  Prefetch fills are tagged so demand hits on them can be
credited to the prefetcher (Figures 6c/6d).
"""

from __future__ import annotations

import zlib
from typing import NamedTuple, Optional, Tuple

from repro.memsim.config import CacheConfig
from repro.memsim.stats import CacheStats


class Victim(NamedTuple):
    """An evicted line: its base address and whether it needs writeback."""

    address: int
    dirty: bool


class SetAssociativeCache:
    """One cache array.

    Lines are stored per set as ``{line: [dirty, prefetched, insert_stamp]}``
    with ``line`` the address's line number (index bits included, so it is
    also the tag).  Under "lru" each set's dict is kept in recency order —
    a demand hit moves its entry to the end — so the least recently used
    line is the first key.  FIFO evicts by insertion stamp; "random" uses a
    deterministic xorshift seeded from a stable hash of the cache's name.
    Write policy: under "write-through" lines are never dirtied (the
    hierarchy forwards store traffic downstream); with
    ``write_allocate=False`` a store miss does not fill the line.
    """

    __slots__ = (
        "config", "name", "stats", "_sets", "_line_shift", "_set_mask",
        "_clock", "_writeback", "_rng_state", "_lru", "_assoc",
        "_write_allocate",
    )

    def __init__(self, config: CacheConfig, name: str = "cache") -> None:
        self.config = config
        self.name = name
        self.stats = CacheStats()
        self._sets = [dict() for _ in range(config.num_sets)]
        self._line_shift = config.line_size.bit_length() - 1
        self._set_mask = config.num_sets - 1
        self._clock = 0
        self._writeback = config.write_policy == "write-back"
        self._lru = config.replacement == "lru"
        self._assoc = config.assoc
        self._write_allocate = config.write_allocate
        # ``hash(str)`` is salted per process; CRC-32 is not.
        self._rng_state = (zlib.crc32(name.encode()) & 0xFFFF_FFFF) | 1

    # -- address helpers -----------------------------------------------------

    def line_address(self, address: int) -> int:
        """Base address of the line containing ``address``."""
        return (address >> self._line_shift) << self._line_shift

    def _index_tag(self, address: int) -> Tuple[int, int]:
        line = address >> self._line_shift
        return line & self._set_mask, line

    # -- operations ----------------------------------------------------------

    def access(self, address: int, is_store: bool = False) -> Tuple[bool, Optional[Victim]]:
        """Demand access: returns ``(hit, victim)``.

        On a miss the line is filled (write-allocate); ``victim`` is the
        evicted line if the set was full, else None.
        """
        tag = address >> self._line_shift
        lines = self._sets[tag & self._set_mask]
        stats = self.stats
        if self._lru:
            entry = lines.pop(tag, None)
            if entry is not None:
                lines[tag] = entry  # now the most recently used
        else:
            entry = lines.get(tag)
        if entry is not None:
            stats.hits += 1
            if is_store and self._writeback:
                entry[0] = True
            if entry[1]:
                stats.prefetch_hits += 1
                entry[1] = False
            return True, None
        stats.misses += 1
        if is_store and not self._write_allocate:
            return False, None  # store miss bypasses the cache
        dirty = is_store and self._writeback
        if not self._lru:
            return False, self._fill(lines, tag, dirty, prefetched=False)
        victim = None
        if len(lines) >= self._assoc:
            victim_tag = next(iter(lines))
            was_dirty = lines.pop(victim_tag)[0]
            stats.evictions += 1
            if was_dirty:
                stats.writebacks += 1
            # ``tuple.__new__`` skips the NamedTuple's Python ``__new__``.
            victim = tuple.__new__(
                Victim, (victim_tag << self._line_shift, was_dirty))
        lines[tag] = [dirty, False, 0]  # insert stamps order FIFO sets only
        return False, victim

    def prefetch_fill(self, address: int) -> Optional[Victim]:
        """Insert a prefetched line; no-op if already present."""
        tag = address >> self._line_shift
        lines = self._sets[tag & self._set_mask]
        if tag in lines:
            return None
        stats = self.stats
        stats.prefetch_fills += 1
        if not self._lru:
            return self._fill(lines, tag, dirty=False, prefetched=True)
        victim = None
        if len(lines) >= self._assoc:
            victim_tag = next(iter(lines))
            was_dirty = lines.pop(victim_tag)[0]
            stats.evictions += 1
            if was_dirty:
                stats.writebacks += 1
            victim = tuple.__new__(
                Victim, (victim_tag << self._line_shift, was_dirty))
        lines[tag] = [False, True, 0]
        return victim

    def _fill(self, lines: dict, tag: int, dirty: bool, prefetched: bool) -> Optional[Victim]:
        """Fill of a FIFO or random set (LRU sets fill inline)."""
        victim = None
        if len(lines) >= self._assoc:
            victim_tag = self._choose_victim(lines)
            was_dirty = lines.pop(victim_tag)[0]
            self.stats.evictions += 1
            if was_dirty:
                self.stats.writebacks += 1
            victim = tuple.__new__(
                Victim, (victim_tag << self._line_shift, was_dirty))
        self._clock += 1
        lines[tag] = [dirty, prefetched, self._clock]
        return victim

    def _choose_victim(self, lines: dict) -> int:
        if self.config.replacement == "fifo":
            return min(lines, key=lambda t: lines[t][2])
        # Deterministic xorshift random.
        x = self._rng_state
        x ^= (x << 13) & 0xFFFF_FFFF
        x ^= x >> 17
        x ^= (x << 5) & 0xFFFF_FFFF
        self._rng_state = x
        tags = list(lines)
        return tags[x % len(tags)]

    def contains(self, address: int) -> bool:
        """Presence probe without touching LRU state or stats."""
        index, tag = self._index_tag(address)
        return tag in self._sets[index]

    def invalidate(self, address: int) -> Optional[Victim]:
        """Remove a line if present, returning it (for inclusion policies)."""
        index, tag = self._index_tag(address)
        entry = self._sets[index].pop(tag, None)
        if entry is None:
            return None
        return Victim(tag << self._line_shift, entry[0])

    @property
    def occupied_lines(self) -> int:
        return sum(len(s) for s in self._sets)

    def flush_dirty(self) -> int:
        """Drop all lines; returns how many were dirty (end-of-run drain)."""
        dirty = 0
        for lines in self._sets:
            dirty += sum(1 for entry in lines.values() if entry[0])
            lines.clear()
        return dirty
