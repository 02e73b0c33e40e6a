"""GDDR DRAM model (the Ramulator-like substrate).

A trace-driven timing model of a multi-channel GDDR memory system with
per-bank row buffers, FR-FCFS scheduling, and the Figure 7 metrics: row
buffer locality, memory-controller queue length, and read/write latency.

Requests arrive in global time order (the SIMT simulator issues them from a
monotonic clock).  Each request is mapped to (channel, rank, bank, row); the
row-buffer outcome decides its access timing:

* row **hit** — the open row matches: tCAS;
* row **empty** — bank closed: tRCD + tCAS (activate then read);
* row **conflict** — another row open: tRP + tRCD + tCAS (precharge first,
  and no earlier than tRAS after that row's activation).

FR-FCFS is approximated by letting row-hit requests bypass the channel's
command-queue backlog within a bounded window: a hit starts as soon as its
bank is free, while non-hits queue behind the channel's outstanding work.
This reproduces FR-FCFS's signature effects — hits observe lower latency and
streams keep rows open — without a full event-driven command scheduler.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import deque
from typing import Deque, List

from repro.memsim.address_mapping import AddressMapping
from repro.memsim.config import DramConfig
from repro.memsim.stats import DramStats


class _Bank:
    """One bank's row buffer and command timing."""

    __slots__ = ("open_row", "busy_until", "activated_at")

    def __init__(self) -> None:
        self.open_row = -1          # -1 = closed (precharged)
        self.busy_until = 0.0       # earliest next command start, core cycles
        self.activated_at = 0.0     # last ACT time, for tRAS enforcement


class _Channel:
    """A channel's bus and its queued requests' completion times.

    ``pending`` holds them in arrival order (the queue drains from the
    front); ``backlog`` is the same multiset kept sorted, so FR-FCFS reads
    its reorder bound by index instead of sorting the queue.
    """

    __slots__ = ("bus_busy_until", "pending", "backlog")

    def __init__(self) -> None:
        self.bus_busy_until = 0.0
        self.pending: Deque[float] = deque()
        self.backlog: List[float] = []


class _Rank:
    """Rank-level constraints: tFAW activation window, tWTR turnaround."""

    __slots__ = ("recent_acts", "last_write_end")

    def __init__(self) -> None:
        self.recent_acts: Deque[float] = deque(maxlen=4)
        self.last_write_end = float("-inf")  # no write issued yet


class DramModel:
    """One memory system instance; shared by all cores via the L2."""

    def __init__(
        self,
        config: DramConfig,
        txn_size: int = 128,
        core_clock_mhz: float = 1400.0,
    ) -> None:
        self.config = config
        self.mapping = AddressMapping(config, txn_size)
        self.stats = DramStats()
        # All timing is kept in core cycles; DRAM-clock parameters scale by
        # the clock ratio.
        self._scale = core_clock_mhz / config.clock_mhz
        t = config.timings
        self.t_rcd = t.t_rcd * self._scale
        self.t_cas = t.t_cas * self._scale
        self.t_rp = t.t_rp * self._scale
        self.t_ras = t.t_ras * self._scale
        self.t_faw = t.t_faw * self._scale
        self.t_wtr = t.t_wtr * self._scale
        self.t_refi = t.t_refi * self._scale
        self.t_rfc = t.t_rfc * self._scale
        # Burst: txn_size bytes over a double-data-rate bus of bus_width
        # bytes per edge -> txn/(2*width) DRAM cycles.
        self.t_burst = max(1.0, txn_size / (2 * config.bus_width)) * self._scale
        self._banks: List[List[List[_Bank]]] = [
            [[_Bank() for _ in range(config.banks)] for _ in range(config.ranks)]
            for _ in range(config.channels)
        ]
        self._channels = [_Channel() for _ in range(config.channels)]
        self._ranks: List[List[_Rank]] = [
            [_Rank() for _ in range(config.ranks)]
            for _ in range(config.channels)
        ]
        # Per-request constants: the mapping's field slices (the shifts and
        # masks of ``mapping.coordinates``), the FR-FCFS window, and the
        # row-empty and row-conflict latencies, summed left to right.
        mapping = self.mapping
        self._ch_shift, self._ch_mask = mapping._ch_shift, mapping._ch_mask
        self._ra_shift, self._ra_mask = mapping._ra_shift, mapping._ra_mask
        self._ba_shift, self._ba_mask = mapping._ba_shift, mapping._ba_mask
        self._ro_shift, self._ro_mask = mapping._ro_shift, mapping._ro_mask
        self._frfcfs_window = config.frfcfs_window
        self._t_empty = self.t_rcd + self.t_cas
        self._t_conflict = self.t_rp + self.t_rcd + self.t_cas
        self._refresh = self.t_refi > 0 and self.t_rfc > 0

    def access(self, now: float, address: int, is_write: bool = False) -> float:
        """Service one transaction arriving at ``now``; returns its latency."""
        channel_id = (address >> self._ch_shift) & self._ch_mask
        rank_id = (address >> self._ra_shift) & self._ra_mask
        row = (address >> self._ro_shift) & self._ro_mask
        bank = self._banks[channel_id][rank_id][
            (address >> self._ba_shift) & self._ba_mask]
        channel = self._channels[channel_id]
        stats = self.stats

        pending = channel.pending
        backlog = channel.backlog
        while pending and pending[0] <= now:
            del backlog[bisect_left(backlog, pending.popleft())]
        stats.queue_len_sum += len(pending)
        stats.queue_samples += 1

        open_row = bank.open_row
        if open_row == row:
            kind_latency = self.t_cas
            stats.row_hits += 1
            row_hit = True
        elif open_row < 0:
            kind_latency = self._t_empty
            stats.row_empties += 1
            row_hit = False
        else:
            # Precharge may not begin before tRAS after the activation.
            ras_ready = bank.activated_at + self.t_ras
            kind_latency = self._t_conflict
            kind_latency += max(0.0, ras_ready - max(now, bank.busy_until))
            stats.row_conflicts += 1
            row_hit = False

        start = max(now, bank.busy_until)
        if row_hit:
            # FR-FCFS: promote row hits past the backlog, bounded by the
            # reorder window (older requests beyond it still block the bus).
            window = self._frfcfs_window
            if len(pending) > window:
                backlog_release = backlog[len(pending) - window - 1]
                start = max(start, backlog_release)
        else:
            start = max(start, channel.bus_busy_until)

        rank = self._ranks[channel_id][rank_id]
        if not row_hit and self.t_faw > 0 and len(rank.recent_acts) == 4:
            # Four-activate window: a fifth ACT waits for the oldest + tFAW.
            start = max(start, rank.recent_acts[0] + self.t_faw)
        if not is_write and self.t_wtr > 0:
            # Write-to-read turnaround on the rank's shared data path.
            start = max(start, rank.last_write_end + self.t_wtr)
        if self._refresh:
            # Periodic all-bank refresh: commands inside the blackout slide
            # to its end.
            phase = start % self.t_refi
            if phase < self.t_rfc:
                start += self.t_rfc - phase

        if open_row != row:
            bank.activated_at = start + (self.t_rp if open_row >= 0 else 0.0)
            rank.recent_acts.append(bank.activated_at)
        finish = start + kind_latency + self.t_burst
        if is_write:
            rank.last_write_end = max(rank.last_write_end, finish)
        bank.open_row = row
        bank.busy_until = finish
        channel.bus_busy_until = max(channel.bus_busy_until, finish)
        pending.append(finish)
        insort(backlog, finish)

        latency = finish - now
        if is_write:
            stats.writes += 1
            stats.write_latency_sum += latency
        else:
            stats.reads += 1
            stats.read_latency_sum += latency
        return latency

    # -- diagnostics -----------------------------------------------------------

    @property
    def open_rows(self) -> int:
        return sum(
            1
            for channel in self._banks
            for rank in channel
            for bank in rank
            if bank.open_row >= 0
        )

    def describe(self) -> str:
        return self.config.describe()
