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

    def __init__(self, config: PrefetcherConfig, line_size: int) -> None:
        if config.kind != "stream":
            raise ValueError(f"expected a stream config, got {config.kind!r}")
        self.config = config
        self.line_size = line_size
        self._streams: Dict[int, list] = {}
        self._by_line: List[Tuple[int, int]] = []
        self._next_seq = 0

    def observe(self, address: int, hit: bool) -> List[int]:
        """Train on an access (typically L2 misses); returns prefetch addrs."""
        config = self.config
        if config.train_on_miss_only and hit:
            return []
        line = address // self.line_size
        window = config.stream_window
        streams = self._streams
        by_line = self._by_line
        # The oldest stream (smallest seq) that the miss matches.
        match = None
        for index in range(bisect_left(by_line, (line - window,)),
                           bisect_left(by_line, (line + window + 1,))):
            last, seq = by_line[index]
            if match is not None and seq > match[1]:
                continue
            if last == line:
                match = (last, seq)
            elif last < line:
                if streams[seq][1] >= 0:
                    match = (last, seq)
            elif streams[seq][1] <= 0:
                match = (last, seq)
        if match is not None:
            last, seq = match
            if last == line:
                return []
            del by_line[bisect_left(by_line, match)]
            insort(by_line, (line, seq))
            direction = 1 if last < line else -1
            stream = streams[seq]
            stream[0] = line
            stream[1] = direction
            stream[2] = True
            return self._issue(line, direction)
        if len(streams) >= config.table_size:
            oldest = next(iter(streams))
            del by_line[bisect_left(by_line, (streams.pop(oldest)[0], oldest))]
        seq = self._next_seq
        self._next_seq = seq + 1
        streams[seq] = [line, 0, False]
        insort(by_line, (line, seq))
        return []

    def _issue(self, line: int, direction: int) -> List[int]:
        size = self.line_size
        out = []
        for k in range(1, self.config.degree + 1):
            target = line + direction * k
            if target >= 0:
                out.append(target * size)
        return out


def make_prefetcher(config: PrefetcherConfig, line_size: int):
    """Factory over the configured prefetcher kinds."""
    if config.kind == "stride":
        return StridePrefetcher(config, line_size)
    return StreamPrefetcher(config, line_size)
