"""Tests for the GDDR DRAM timing model."""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import deque
from dataclasses import asdict
from typing import Deque, List

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.memsim.address_mapping import AddressMapping
from repro.memsim.config import DramConfig, DramTimings
from repro.memsim.dram import DramModel
from repro.memsim.stats import DramStats


def make_dram(**kwargs) -> DramModel:
    return DramModel(DramConfig(**kwargs), txn_size=128, core_clock_mhz=1400.0)


class TestTimingsValidation:
    def test_positive_timings(self):
        with pytest.raises(ValueError):
            DramTimings(t_rcd=0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DramConfig(mapping="RowFirst")
        with pytest.raises(ValueError):
            DramConfig(channels=3)
        with pytest.raises(ValueError):
            DramConfig(frfcfs_window=0)


class TestRowBufferOutcomes:
    def test_first_access_is_row_empty(self):
        dram = make_dram()
        dram.access(0.0, 0x1000)
        assert dram.stats.row_empties == 1
        assert dram.stats.row_hits == 0

    def test_same_row_hit(self):
        dram = make_dram(mapping="ChRaBaRoCo")  # sequential stays in a row
        dram.access(0.0, 0)
        dram.access(1000.0, 128)
        assert dram.stats.row_hits == 1

    def test_conflict_on_different_row_same_bank(self):
        dram = make_dram(mapping="ChRaBaRoCo")
        dram.access(0.0, 0)
        dram.access(1000.0, 4096)  # row 2 of bank 0
        assert dram.stats.row_conflicts == 1

    def test_latency_ordering_hit_lt_empty_lt_conflict(self):
        """tCAS < tRCD+tCAS < tRP+tRCD+tCAS, all issued in isolation.

        Issue times are chosen outside the periodic refresh blackout
        windows so only the row-buffer outcome differs.
        """
        base = dict(mapping="ChRaBaRoCo")
        empty = make_dram(**base).access(1000.0, 0)

        dram = make_dram(**base)
        dram.access(1000.0, 0)
        hit = dram.access(10_000.0, 128)

        dram = make_dram(**base)
        dram.access(1000.0, 0)
        conflict = dram.access(10_000.0, 4096)

        assert hit < empty < conflict

    def test_row_buffer_locality_metric(self):
        dram = make_dram(mapping="ChRaBaRoCo")
        for i in range(16):  # 16 txns = one full 2KB row
            dram.access(i * 1000.0, i * 128)
        assert dram.stats.row_buffer_locality == pytest.approx(15 / 16)


class TestMappingEffects:
    def test_chrabarooco_has_higher_rbl_on_interleaved_streams(self):
        """Figure 7 mechanism: with multiple distant sequential streams,
        ChRaBaRoCo isolates each stream in its own bank (rows stay open)
        while RoBaRaCoCh folds them onto the same banks (row ping-pong)."""
        spacing = 1 << 27  # beyond the row field: distinct banks under Ch
        ro = make_dram(mapping="RoBaRaCoCh")
        ch = make_dram(mapping="ChRaBaRoCo")
        t = 0.0
        for i in range(64):
            for stream in range(8):
                address = stream * spacing + i * 128
                ro.access(t, address)
                ch.access(t, address)
                t += 500.0
        assert ch.stats.row_buffer_locality > ro.stats.row_buffer_locality

    def test_robaracoch_spreads_load_across_channels(self):
        dram = make_dram(mapping="RoBaRaCoCh")
        seq = [i * 128 for i in range(64)]
        lat_interleaved = [dram.access(0.0, a) for a in seq]
        dram2 = make_dram(mapping="ChRaBaRoCo")
        lat_single = [dram2.access(0.0, a) for a in seq]
        # All 64 requests at t=0: channel striping drains 8x faster.
        assert max(lat_interleaved) < max(lat_single)


class TestContentionAndQueue:
    def test_bank_busy_serialises(self):
        dram = make_dram(mapping="ChRaBaRoCo")
        first = dram.access(0.0, 0)
        second = dram.access(0.0, 128)  # same bank, same instant
        assert second > first  # had to wait for the bank

    def test_queue_length_grows_under_burst(self):
        dram = make_dram(mapping="ChRaBaRoCo")
        for _ in range(32):
            dram.access(0.0, 0)
        assert dram.stats.avg_queue_length > 1.0

    def test_queue_drains_over_time(self):
        dram = make_dram()
        dram.access(0.0, 0)
        dram.access(1e9, 128)  # long after: queue should be empty again
        assert dram.stats.queue_samples == 2

    def test_writes_tracked_separately(self):
        dram = make_dram()
        dram.access(0.0, 0, is_write=True)
        dram.access(0.0, 1 << 20, is_write=False)
        assert dram.stats.writes == 1
        assert dram.stats.reads == 1
        assert dram.stats.avg_write_latency > 0
        assert dram.stats.avg_read_latency > 0


class TestBusWidth:
    def test_wider_bus_shorter_burst(self):
        narrow = make_dram(bus_width=4)
        wide = make_dram(bus_width=16)
        assert narrow.access(0.0, 0) > wide.access(0.0, 0)


class TestSecondaryTimings:
    def test_tfaw_throttles_activation_bursts(self):
        """A fifth row activation in the window waits for tFAW."""
        from repro.memsim.config import DramTimings
        # 5 conflicting activates to distinct rows of distinct banks on one
        # rank, issued back to back outside the refresh blackout.
        fast = make_dram(mapping="ChRaBaRoCo",
                         timings=DramTimings(t_faw=0, t_refi=0))
        slow = make_dram(mapping="ChRaBaRoCo",
                         timings=DramTimings(t_faw=200, t_refi=0))
        bank_stride = 2048 * (1 << 16)  # next bank under ChRaBaRoCo
        latencies_fast = [fast.access(1000.0, k * bank_stride) for k in range(5)]
        latencies_slow = [slow.access(1000.0, k * bank_stride) for k in range(5)]
        assert latencies_slow[4] > latencies_fast[4]

    def test_twtr_penalises_read_after_write(self):
        from repro.memsim.config import DramTimings
        no_wtr = make_dram(timings=DramTimings(t_wtr=0, t_refi=0))
        wtr = make_dram(timings=DramTimings(t_wtr=50, t_refi=0))
        for dram in (no_wtr, wtr):
            dram.access(1000.0, 0, is_write=True)
        # Read on the same rank right after the write completes.
        read_plain = no_wtr.access(1001.0, 1 << 22)
        read_wtr = wtr.access(1001.0, 1 << 22)
        assert read_wtr > read_plain

    def test_refresh_blackout_delays(self):
        from repro.memsim.config import DramTimings
        dram = make_dram(timings=DramTimings(t_refi=1000, t_rfc=100))
        # t=0 falls inside the blackout (phase 0 < t_rfc scaled).
        in_blackout = dram.access(0.0, 0)
        fresh = make_dram(timings=DramTimings(t_refi=1000, t_rfc=100))
        outside = fresh.access(500.0, 0)
        assert in_blackout > outside

    def test_refresh_disabled(self):
        from repro.memsim.config import DramTimings
        dram = make_dram(timings=DramTimings(t_refi=0))
        a = dram.access(0.0, 0)
        fresh = make_dram(timings=DramTimings(t_refi=0))
        b = fresh.access(500.0, 0)
        assert a == pytest.approx(b)

    def test_timings_validation(self):
        from repro.memsim.config import DramTimings
        with pytest.raises(ValueError):
            DramTimings(t_faw=-1)


class TestDiagnostics:
    def test_open_rows(self):
        dram = make_dram(mapping="RoBaRaCoCh")
        assert dram.open_rows == 0
        dram.access(0.0, 0)
        dram.access(0.0, 128)
        assert dram.open_rows == 2

    def test_describe(self):
        assert "RoBaRaCoCh" in make_dram().describe()


# The DRAM model before its per-request work was rewritten, kept verbatim
# (but for the class names) as the model of the rewritten one.
class _RefBank:
    """One bank's row buffer and command timing."""

    __slots__ = ("open_row", "busy_until", "activated_at")

    def __init__(self) -> None:
        self.open_row = -1          # -1 = closed (precharged)
        self.busy_until = 0.0       # earliest next command start, core cycles
        self.activated_at = 0.0     # last ACT time, for tRAS enforcement


class _RefChannel:
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


class _RefRank:
    """Rank-level constraints: tFAW activation window, tWTR turnaround."""

    __slots__ = ("recent_acts", "last_write_end")

    def __init__(self) -> None:
        self.recent_acts: Deque[float] = deque(maxlen=4)
        self.last_write_end = float("-inf")  # no write issued yet


class ReferenceDramModel:
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
        self.queue_samples = 0
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
        self._banks: List[List[List[_RefBank]]] = [
            [[_RefBank() for _ in range(config.banks)] for _ in range(config.ranks)]
            for _ in range(config.channels)
        ]
        self._channels = [_RefChannel() for _ in range(config.channels)]
        self._ranks: List[List[_RefRank]] = [
            [_RefRank() for _ in range(config.ranks)]
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
        self.queue_samples += 1

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


_TIMINGS = st.builds(
    DramTimings,
    t_faw=st.sampled_from([0, 8, 32, 200]),
    t_wtr=st.sampled_from([0, 6, 40]),
    t_refi=st.sampled_from([0, 200, 3900]),
    t_rfc=st.sampled_from([0, 20, 160]),
)
#: Gaps between arrivals: bursts, steady traffic, idle spells that drain
#: every queue, and a few steps back in time (posted writebacks arrive at
#: their issuer's clock, which can trail the last demand access).
_GAPS = st.one_of(st.just(0.0), st.floats(0.0, 40.0), st.just(5000.0),
                  st.floats(-30.0, 0.0))
#: Addresses: a few hundred lines under 16 values of bits 27-30, which
#: are bank, rank and channel bits under ChRaBaRoCo and row bits under
#: RoBaRaCoCh, so rows hit, conflict and spread over banks under both
#: mappings; and, now and then, any address at all.
_ADDRESSES = st.one_of(
    st.tuples(st.integers(0, 15), st.integers(0, 511)).map(
        lambda high_line: (high_line[0] << 27) | (high_line[1] << 7)),
    st.integers(0, (1 << 34) - 1),
)


class TestRewrittenAccessModel:
    """``DramModel.access`` against the reference model, request by request."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.tuples(_ADDRESSES, _GAPS, st.booleans()),
                 min_size=1, max_size=150),
        st.sampled_from(["RoBaRaCoCh", "ChRaBaRoCo"]),
        st.sampled_from([1, 2]),
        st.sampled_from([1, 2, 4]),
        st.sampled_from([1, 2, 8]),
        st.sampled_from([1, 4, 16]),
        _TIMINGS,
        st.sampled_from([64, 128]),
    )
    # tWTR off: a read that hits bank 1's open row while a write to bank 0
    # of the same rank is still in flight starts at once, not when the
    # write ends.
    @example(
        stream=[(1 << 27, 0.0, False), (0, 5000.0, True), (1 << 27, 0.0, False)],
        mapping="ChRaBaRoCo", ranks=1, channels=1, banks=2, window=4,
        timings=DramTimings(t_faw=0, t_wtr=0, t_refi=0, t_rfc=0), txn=128,
    )
    def test_matches_reference(self, stream, mapping, ranks, channels, banks,
                               window, timings, txn):
        config = DramConfig(channels=channels, ranks=ranks, banks=banks,
                            mapping=mapping, frfcfs_window=window,
                            timings=timings)
        fast = DramModel(config, txn_size=txn)
        model = ReferenceDramModel(config, txn_size=txn)
        now = 1000.0
        for address, gap, is_write in stream:
            now += gap
            assert fast.access(now, address, is_write) == model.access(
                now, address, is_write)
            assert asdict(fast.stats) == asdict(model.stats)
            assert fast.stats.queue_samples == model.queue_samples
