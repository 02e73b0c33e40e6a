"""Warp-level memory coalescing model.

Implements the Fermi global-memory coalescing rules (CUDA C Programming Guide
5.5, section G.4.2, as cited in paper section 4): the per-lane requests of one
warp instruction are serviced by naturally-aligned memory transactions; the
warp issues one transaction per *distinct aligned segment* touched by its
active lanes.  With a 128-byte segment and a unit-stride float access the 32
lanes of a warp collapse into a single transaction; scattered accesses degrade
to up to 32 transactions ("only one or two memory requests are generated per
warp if requests in the warp are highly coalesced" — paper section 2.2).

The paper applies coalescing *before* the memory locality analysis (section
4), so the profiler consumes the per-warp coalesced streams produced here, and
the proxy generator re-applies the same model to synthesised lane addresses
(Algorithm 2, lines 9-10).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, List, Sequence, Tuple

from repro.core.backend import import_numpy

if TYPE_CHECKING:
    import numpy as np

#: Fermi global-memory transaction (and cache line) size in bytes.
DEFAULT_SEGMENT_SIZE = 128

#: Bit width reserved for the segment id when packing (row, segment) into a
#: single int64 sort key; segment ids are ``address >> shift`` < 2**36 for
#: every modeled memory space.
ROW_KEY_BITS = 36


def coalesce_segment_rows(segments: "np.ndarray"):
    """Vectorized Fermi coalescing of a ``(rows, lanes)`` segment-id matrix.

    Each row is one warp instruction whose lane accesses all fit a single
    aligned segment (``segments[r, l] = address >> shift``).  One global
    ``np.unique`` over packed ``(row, segment)`` keys replaces the per-row
    dict the scalar :meth:`CoalescingModel.coalesce` builds.

    Returns ``(txn_rows, txn_segments, lane_counts, txns_per_row)``: the
    first three are parallel arrays over all emitted transactions, ordered
    by row then ascending segment — exactly the scalar model's
    ``sorted(segments.items())`` emission order — and ``txns_per_row[r]``
    is the coalescing degree of row ``r``.
    """
    np = import_numpy()
    segments = np.asarray(segments, dtype=np.int64)
    n_rows = segments.shape[0]
    if n_rows == 0:
        empty = np.array([], dtype=np.int64)
        return empty, empty, empty, np.array([], dtype=np.int64)
    rows = np.arange(n_rows, dtype=np.int64)
    keys = (rows[:, None] << ROW_KEY_BITS) | segments
    uniq, lane_counts = np.unique(keys, return_counts=True)
    txn_rows = uniq >> ROW_KEY_BITS
    txn_segments = uniq & ((1 << ROW_KEY_BITS) - 1)
    txns_per_row = np.bincount(txn_rows, minlength=n_rows)
    return txn_rows, txn_segments, lane_counts, txns_per_row


@dataclass(frozen=True)
class CoalescedTransaction:
    """One memory transaction produced by coalescing a warp instruction.

    ``address`` is the segment-aligned base address, ``size`` the segment
    size, ``lanes`` the number of lanes whose requests it serves.
    """

    pc: int
    address: int
    size: int
    lanes: int
    is_store: bool = False


class CoalescingModel:
    """Merges per-lane accesses of a warp instruction into transactions.

    ``segment_size`` must be a power of two.  The model is stateless; one
    instance is shared by the executor, profiler and generator so all three
    agree on segment granularity.
    """

    def __init__(self, segment_size: int = DEFAULT_SEGMENT_SIZE) -> None:
        if segment_size <= 0 or segment_size & (segment_size - 1):
            raise ValueError(
                f"segment_size must be a positive power of two, got {segment_size}"
            )
        self.segment_size = segment_size
        self._shift = segment_size.bit_length() - 1

    def coalesce(
        self,
        pc: int,
        lane_accesses: Sequence[Tuple[int, int]],
        is_store: bool = False,
    ) -> List[CoalescedTransaction]:
        """Coalesce one warp instruction.

        ``lane_accesses`` is a sequence of ``(address, size)`` pairs, one per
        *active* lane (inactive lanes — e.g. divergent or beyond the block
        bound — are simply not listed).  Returns the transactions in
        ascending address order, as the paper's Figure 4 depicts.
        """
        shift = self._shift
        segments: dict = {}
        for address, size in lane_accesses:
            if size <= 0:
                raise ValueError(f"lane access size must be positive, got {size}")
            first = address >> shift
            last = (address + size - 1) >> shift
            for segment in range(first, last + 1):
                segments[segment] = segments.get(segment, 0) + 1
        return [
            CoalescedTransaction(
                pc=pc,
                address=segment << shift,
                size=self.segment_size,
                lanes=lanes,
                is_store=is_store,
            )
            for segment, lanes in sorted(segments.items())
        ]

    def transactions_per_warp(
        self, lane_addresses: Iterable[int], size: int = 4
    ) -> int:
        """Number of transactions a warp instruction needs — the coalescing
        degree statistic G-MAP profiles per static instruction."""
        return len(self.coalesce(0, [(a, size) for a in lane_addresses]))

    def segment_of(self, address: int) -> int:
        """Aligned segment base address containing ``address``."""
        return (address >> self._shift) << self._shift

    def efficiency(self, lane_accesses: Sequence[Tuple[int, int]]) -> float:
        """Fraction of transferred bytes actually requested by lanes.

        1.0 for perfectly coalesced unit-stride accesses; approaches
        ``size/segment_size`` for fully scattered ones.  Purely diagnostic.
        """
        if not lane_accesses:
            return 1.0
        requested = sum(size for _, size in lane_accesses)
        transactions = self.coalesce(0, lane_accesses)
        transferred = sum(t.size for t in transactions)
        return requested / transferred if transferred else 1.0
