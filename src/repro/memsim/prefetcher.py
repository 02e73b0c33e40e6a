"""Hardware prefetcher models.

Two prefetchers mirror the paper's evaluation:

* :class:`StridePrefetcher` — a PC-indexed stride prefetcher in the spirit
  of the many-thread-aware L1 prefetcher of Lee et al. [MICRO'10] the paper
  attaches to the L1 (Figure 6c).  Each table entry tracks the last address
  and stride of one static instruction; two consecutive confirmations arm
  the entry, after which ``degree`` lines ahead are prefetched.
* :class:`StreamPrefetcher` — the L2 stream prefetcher of Figure 6d: miss
  addresses within ``stream_window`` lines of a tracked stream extend it and
  pull the next ``degree`` lines; the paper sweeps window 8/16/32 and degree
  1/2/4/8.

Prefetchers return candidate *addresses*; the hierarchy decides whether each
is already resident, fetches it, and attributes the fill.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import OrderedDict
from typing import Dict, List, Tuple

from repro.memsim.config import PrefetcherConfig


class StridePrefetcher:
    """PC-indexed stride prefetcher (L1, after Lee et al. [12])."""

    def __init__(self, config: PrefetcherConfig, line_size: int) -> None:
        if config.kind != "stride":
            raise ValueError(f"expected a stride config, got {config.kind!r}")
        self.config = config
        self.line_size = line_size
        # pc -> [last_addr, stride, confidence]
        self._table: OrderedDict[int, list] = OrderedDict()

    def observe(self, pc: int, address: int, hit: bool) -> List[int]:
        """Train on a demand access; returns addresses to prefetch."""
        if self.config.train_on_miss_only and hit:
            return []
        table = self._table
        entry = table.get(pc)
        if entry is None:
            if len(table) >= self.config.table_size:
                table.popitem(last=False)
            table[pc] = [address, 0, 0]
            return []
        last_addr, last_stride, confidence = entry
        stride = address - last_addr
        if stride == 0:
            entry[0] = address
            return []
        if stride == last_stride:
            confidence += 1
        else:
            confidence = 1
        entry[0] = address
        entry[1] = stride
        entry[2] = confidence
        table.move_to_end(pc)
        if confidence < 2:
            return []
        line = self.line_size
        seen = set()
        out = []
        for k in range(1, self.config.degree + 1):
            target = (address + stride * k) // line * line
            if target not in seen and target >= 0:
                seen.add(target)
                out.append(target)
        return out


class StreamPrefetcher:
    """Sequential stream prefetcher (L2).

    A miss within ``stream_window`` lines of a tracked stream, in its
    direction, extends the oldest such stream; a miss on a stream's last
    line is ignored; any other miss allocates a stream, evicting the oldest
    when the table is full.  Streams are kept in allocation order as
    ``seq -> [last_line, direction, confirmed]`` beside a sorted list of
    ``(last_line, seq)``, so a miss bisects to the streams whose last line
    lies in its window instead of scanning the table.
    """

    __slots__ = ("config", "line_size", "_streams", "_by_line", "_next_seq",
                 "_miss_only", "_window", "_degree", "_table_size")

    def __init__(self, config: PrefetcherConfig, line_size: int) -> None:
        if config.kind != "stream":
            raise ValueError(f"expected a stream config, got {config.kind!r}")
        self.config = config
        self.line_size = line_size
        self._streams: Dict[int, list] = {}
        self._by_line: List[Tuple[int, int]] = []
        self._next_seq = 0
        self._miss_only = config.train_on_miss_only
        self._window = config.stream_window
        self._degree = config.degree
        self._table_size = config.table_size

    def observe(self, address: int, hit: bool) -> List[int]:
        """Train on an access (typically L2 misses); returns prefetch addrs."""
        if hit and self._miss_only:
            return []
        size = self.line_size
        line = address // size
        window = self._window
        streams = self._streams
        by_line = self._by_line
        # The oldest stream (smallest seq) that the miss matches, and its
        # place in ``by_line``; every seq is below ``_next_seq``.
        next_seq = match_seq = self._next_seq
        for index in range(bisect_left(by_line, (line - window,)),
                           bisect_left(by_line, (line + window + 1,))):
            last, seq = by_line[index]
            if seq > match_seq:
                continue
            if last < line:
                if streams[seq][1] < 0:
                    continue
            elif last > line and streams[seq][1] > 0:
                continue
            match_last, match_seq, match_index = last, seq, index
        if match_seq != next_seq:
            if match_last == line:
                return []
            del by_line[match_index]
            insort(by_line, (line, match_seq))
            stream = streams[match_seq]
            stream[0] = line
            stream[2] = True
            # The next ``degree`` lines in the stream's direction, down to
            # line 0.
            if match_last < line:
                stream[1] = 1
                return list(range((line + 1) * size,
                                  (line + self._degree + 1) * size, size))
            stream[1] = -1
            lowest = line - self._degree
            if lowest < 0:
                lowest = 0
            return list(range((line - 1) * size, (lowest - 1) * size, -size))
        if len(streams) >= self._table_size:
            oldest = next(iter(streams))
            del by_line[bisect_left(by_line, (streams.pop(oldest)[0], oldest))]
        self._next_seq = next_seq + 1
        streams[next_seq] = [line, 0, False]
        insort(by_line, (line, next_seq))
        return []


def make_prefetcher(config: PrefetcherConfig, line_size: int):
    """Factory over the configured prefetcher kinds."""
    if config.kind == "stride":
        return StridePrefetcher(config, line_size)
    return StreamPrefetcher(config, line_size)
