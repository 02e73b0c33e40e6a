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
from typing import Deque, Dict, List

from repro.memsim.address_mapping import AddressMapping
from repro.memsim.config import DramConfig
from repro.memsim.stats import DramStats


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

    __slots__ = ("recent_acts", "read_ready")

    def __init__(self) -> None:
        self.recent_acts: Deque[float] = deque(maxlen=4)
        # The latest write end plus tWTR: no read starts before it.  It
        # stays -inf with no write issued, or with tWTR off.
        self.read_ready = float("-inf")


class _Bank:
    """One bank's row buffer and command timing, and its channel and rank."""

    __slots__ = ("open_row", "busy_until", "activated_at", "channel", "rank")

    def __init__(self, channel: _Channel, rank: _Rank) -> None:
        self.open_row = -1          # -1 = closed (precharged)
        self.busy_until = 0.0       # earliest next command start, core cycles
        self.activated_at = 0.0     # last ACT time, for tRAS enforcement
        self.channel = channel
        self.rank = rank


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
        self._channels = [_Channel() for _ in range(config.channels)]
        # Each bank is keyed by its address's channel, rank and bank bits
        # (the mapping's field slices, unshifted), so one mask and one dict
        # lookup find it, its channel and its rank.
        mapping = self.mapping
        ch_shift, ra_shift, ba_shift = (
            mapping._ch_shift, mapping._ra_shift, mapping._ba_shift)
        self._bank_bits = ((mapping._ch_mask << ch_shift)
                           | (mapping._ra_mask << ra_shift)
                           | (mapping._ba_mask << ba_shift))
        self._banks: Dict[int, _Bank] = {}
        for channel_id, channel in enumerate(self._channels):
            for rank_id in range(config.ranks):
                rank = _Rank()
                for bank_id in range(config.banks):
                    key = ((channel_id << ch_shift) | (rank_id << ra_shift)
                           | (bank_id << ba_shift))
                    self._banks[key] = _Bank(channel, rank)
        # Per-request constants: the row slice, the FR-FCFS window, the
        # row-empty and row-conflict latencies (summed left to right), and
        # which secondary timings are on.
        self._ro_shift, self._ro_mask = mapping._ro_shift, mapping._ro_mask
        self._frfcfs_window = config.frfcfs_window
        self._t_empty = self.t_rcd + self.t_cas
        self._t_conflict = self.t_rp + self.t_rcd + self.t_cas
        self._faw = self.t_faw > 0
        self._wtr = self.t_wtr > 0
        self._refresh = self.t_refi > 0 and self.t_rfc > 0

    def access(self, now: float, address: int, is_write: bool = False) -> float:
        """Service one transaction arriving at ``now``; returns its latency."""
        bank = self._banks[address & self._bank_bits]
        row = (address >> self._ro_shift) & self._ro_mask
        channel = bank.channel
        stats = self.stats

        pending = channel.pending
        if pending and pending[0] <= now:
            backlog = channel.backlog
            while pending and pending[0] <= now:
                del backlog[bisect_left(backlog, pending.popleft())]
        queued = len(pending)
        stats.queue_len_sum += queued

        # Each ``if x > start: start = x`` below is ``max(start, x)``.
        start = now
        busy = bank.busy_until
        if busy > start:
            start = busy
        rank = bank.rank
        open_row = bank.open_row
        if open_row == row:
            stats.row_hits += 1
            kind_latency = self.t_cas
            precharge = None  # the row stays open: no activation
            # FR-FCFS: promote row hits past the backlog, bounded by the
            # reorder window (older requests beyond it still block the bus).
            window = self._frfcfs_window
            if queued > window:
                release = channel.backlog[queued - window - 1]
                if release > start:
                    start = release
        else:
            if open_row < 0:
                stats.row_empties += 1
                kind_latency = self._t_empty
                precharge = 0.0
            else:
                stats.row_conflicts += 1
                kind_latency = self._t_conflict
                precharge = self.t_rp
                # Precharge may not begin before tRAS after the activation.
                ras_wait = bank.activated_at + self.t_ras - start
                if ras_wait > 0.0:
                    kind_latency += ras_wait
            bus = channel.bus_busy_until
            if bus > start:
                start = bus
            if self._faw:
                recent_acts = rank.recent_acts
                if len(recent_acts) == 4:
                    # Four-activate window: a fifth ACT waits for the
                    # oldest + tFAW.
                    ready = recent_acts[0] + self.t_faw
                    if ready > start:
                        start = ready
        if not is_write:
            # Write-to-read turnaround on the rank's shared data path.
            ready = rank.read_ready
            if ready > start:
                start = ready
        if self._refresh:
            # Periodic all-bank refresh: commands inside the blackout slide
            # to its end.
            phase = start % self.t_refi
            if phase < self.t_rfc:
                start += self.t_rfc - phase

        if precharge is not None:
            activated = bank.activated_at = start + precharge
            rank.recent_acts.append(activated)
        finish = start + kind_latency + self.t_burst
        bank.open_row = row
        bank.busy_until = finish
        if finish > channel.bus_busy_until:
            channel.bus_busy_until = finish
        pending.append(finish)
        insort(channel.backlog, finish)

        latency = finish - now
        if is_write:
            if self._wtr:
                # The latest write end plus tWTR, rounded as before.
                ready = finish + self.t_wtr
                if ready > rank.read_ready:
                    rank.read_ready = ready
            stats.writes += 1
            stats.write_latency_sum += latency
        else:
            stats.reads += 1
            stats.read_latency_sum += latency
        return latency

    # -- diagnostics -----------------------------------------------------------

    @property
    def open_rows(self) -> int:
        return sum(1 for bank in self._banks.values() if bank.open_row >= 0)

    def describe(self) -> str:
        return self.config.describe()
