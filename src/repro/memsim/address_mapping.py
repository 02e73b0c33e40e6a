"""DRAM address mapping schemes.

The paper's Figure 7 sweeps two interleaving schemes (named MSB-to-LSB, as in
Ramulator):

* ``RoBaRaCoCh`` — Row | Bank | Rank | Column | **Channel**: channel bits are
  the lowest, so consecutive transactions stripe across channels (high
  memory-level parallelism, rows shared by distant addresses);
* ``ChRaBaRoCo`` — **Channel** | Rank | Bank | Row | Column: column bits are
  the lowest, so consecutive transactions stay within one row of one bank of
  one channel (high row-buffer locality, low parallelism).

Addresses are decomposed at transaction granularity: the low
``log2(txn_size)`` bits are the within-transaction offset and carry no
mapping information.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.memsim.config import DramConfig

#: Row-field width of ChRaBaRoCo, capped like a real device's row address.
_ROW_BITS = 16


@dataclass(frozen=True)
class DramCoordinates:
    """Physical location of one transaction."""

    channel: int
    rank: int
    bank: int
    row: int
    column: int


def _log2(value: int, name: str) -> int:
    if value <= 0 or value & (value - 1):
        raise ValueError(f"{name} must be a positive power of two, got {value}")
    return value.bit_length() - 1


class AddressMapping:
    """Bit-slice address decomposition for a DRAM geometry."""

    def __init__(self, config: DramConfig, txn_size: int = 128) -> None:
        self.config = config
        self.txn_size = txn_size
        self._offset_bits = _log2(txn_size, "txn_size")
        self._ch_bits = _log2(config.channels, "channels")
        self._ra_bits = _log2(config.ranks, "ranks")
        self._ba_bits = _log2(config.banks, "banks")
        columns = max(1, config.row_bytes // txn_size)
        self._co_bits = _log2(columns, "columns per row")
        # (shift, mask) of each field for :meth:`coordinates`; a mask of -1
        # keeps every remaining high bit (the unbounded RoBaRaCoCh row).
        off, ch, ra, ba, co = (self._offset_bits, self._ch_bits,
                               self._ra_bits, self._ba_bits, self._co_bits)
        if config.mapping == "RoBaRaCoCh":
            shifts = (off, off + ch + co, off + ch + co + ra,
                      off + ch + co + ra + ba)
            row_mask = -1
        else:
            shifts = (off + co + _ROW_BITS + ba + ra, off + co + _ROW_BITS + ba,
                      off + co + _ROW_BITS, off + co)
            row_mask = (1 << _ROW_BITS) - 1
        (self._ch_shift, self._ra_shift, self._ba_shift,
         self._ro_shift) = shifts
        self._ch_mask = (1 << ch) - 1
        self._ra_mask = (1 << ra) - 1
        self._ba_mask = (1 << ba) - 1
        self._ro_mask = row_mask

    def coordinates(self, address: int) -> Tuple[int, int, int, int]:
        """``(channel, rank, bank, row)`` of a byte address.

        The same fields as :meth:`decompose`, sliced with precomputed shifts
        into a plain tuple — the DRAM model's per-request form.
        """
        return (
            (address >> self._ch_shift) & self._ch_mask,
            (address >> self._ra_shift) & self._ra_mask,
            (address >> self._ba_shift) & self._ba_mask,
            (address >> self._ro_shift) & self._ro_mask,
        )

    def decompose(self, address: int) -> DramCoordinates:
        """Map a byte address to (channel, rank, bank, row, column)."""
        bits = address >> self._offset_bits
        scheme = self.config.mapping
        if scheme == "RoBaRaCoCh":
            fields = ("channel", "column", "rank", "bank")
            widths = (self._ch_bits, self._co_bits, self._ra_bits, self._ba_bits)
        else:  # ChRaBaRoCo: Column lowest, Channel highest.
            fields = ("column",)
            widths = (self._co_bits,)
        values = {}
        for field, width in zip(fields, widths):
            values[field] = bits & ((1 << width) - 1) if width else 0
            bits >>= width
        if scheme == "RoBaRaCoCh":
            values["row"] = bits
        else:
            # Remaining bits: Row, then Bank, Rank, Channel at the top.  The
            # row field takes whatever is left below the fixed-top fields,
            # capped at _ROW_BITS.
            values["row"] = bits & ((1 << _ROW_BITS) - 1)
            bits >>= _ROW_BITS
            for field, width in (
                ("bank", self._ba_bits),
                ("rank", self._ra_bits),
                ("channel", self._ch_bits),
            ):
                values[field] = bits & ((1 << width) - 1) if width else 0
                bits >>= width
        return DramCoordinates(
            channel=values["channel"],
            rank=values["rank"],
            bank=values["bank"],
            row=values["row"],
            column=values["column"],
        )

    def channel_of(self, address: int) -> int:
        return self.decompose(address).channel
