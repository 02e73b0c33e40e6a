"""Multi-core, multi-level cache + DRAM hierarchy.

Per-core private L1 data caches with MSHRs, a shared banked L2, and the GDDR
DRAM model behind it — the paper's validated "SIMT-aware multi-core,
multi-level cache and memory simulator" substrate (section 5): the cache
layer follows CMP$im's trace-driven approach, the memory layer Ramulator's
bank/row/channel timing.

All latencies are in core cycles.  Writebacks and prefetch fetches are
*posted* (they consume bandwidth and affect state, but the issuing warp does
not wait on them); demand accesses return the latency the warp is delayed by,
which feeds the warp-queue scheduling model.
"""

from __future__ import annotations

from typing import List, Optional

from repro.gpu.memspace import SHARED_BASE, MemorySpace, space_of
from repro.memsim.cache import SetAssociativeCache
from repro.memsim.config import SimConfig
from repro.memsim.dram import DramModel
from repro.memsim.mshr import MshrFile
from repro.memsim.prefetcher import StridePrefetcher, StreamPrefetcher, make_prefetcher
from repro.memsim.stats import CacheStats, DramStats


class MemoryHierarchy:
    """One instantiated memory system shared by ``num_cores`` cores."""

    def __init__(self, config: SimConfig) -> None:
        self.config = config
        self.l1s = [
            SetAssociativeCache(config.l1, name=f"L1[{core}]")
            for core in range(config.num_cores)
        ]
        self.l1_mshrs = [MshrFile(config.l1.mshrs) for _ in range(config.num_cores)]
        self.l2 = SetAssociativeCache(config.l2, name="L2")
        self.l2_mshr = MshrFile(max(config.l2.mshrs, config.num_cores * 8))
        self.dram = DramModel(
            config.dram,
            txn_size=config.l2.line_size,
            core_clock_mhz=config.core_clock_mhz,
        )
        self._l2_bank_busy = [0.0] * config.l2.banks
        self._l2_bank_shift = config.l2.line_size.bit_length() - 1
        self._l2_bank_mask = config.l2.banks - 1
        self.l1_prefetchers: List[Optional[StridePrefetcher]] = [
            make_prefetcher(config.l1_prefetcher, config.l1.line_size)
            if config.l1_prefetcher
            else None
            for _ in range(config.num_cores)
        ]
        # Each core's L1, its MSHR file and its prefetcher, in one lookup.
        self._l1_units = list(zip(self.l1s, self.l1_mshrs,
                                  self.l1_prefetchers))
        self.l2_prefetcher: Optional[StreamPrefetcher] = (
            make_prefetcher(config.l2_prefetcher, config.l2.line_size)
            if config.l2_prefetcher
            else None
        )
        self.texture_caches = [
            SetAssociativeCache(config.texture_cache, name=f"TEX[{core}]")
            if config.texture_cache else None
            for core in range(config.num_cores)
        ]
        self.constant_caches = [
            SetAssociativeCache(config.constant_cache, name=f"CONST[{core}]")
            if config.constant_cache else None
            for core in range(config.num_cores)
        ]
        self.shared_accesses = 0
        # Per-access constants, read once here instead of through the config.
        l1_config, l2_config = config.l1, config.l2
        self._l1_line = l1_config.line_size
        self._l1_hit = float(l1_config.hit_latency)
        self._l1_write_through = l1_config.write_policy == "write-through"
        self._l1_write_allocate = l1_config.write_allocate
        self._l2_line = l2_config.line_size
        self._l2_hit = float(l2_config.hit_latency)
        self._l2_write_through = l2_config.write_policy == "write-through"
        self._l1_fits_l2 = l2_config.line_size >= l1_config.line_size
        self._noc = config.noc_latency
        # An inclusive L2's victim back-invalidates the L1 lines it covers.
        self._inclusive = config.l2_inclusion == "inclusive"
        self._victim_span = max(l2_config.line_size, l1_config.line_size)
        # The L2's own set layout, for the residency probe of prefetch
        # candidates (``SetAssociativeCache.contains``, inline).
        self._l2_sets = self.l2._sets
        self._l2_tag_shift = self.l2._line_shift
        self._l2_set_mask = self.l2._set_mask

    # -- public entry ---------------------------------------------------------

    def access(
        self,
        core: int,
        now: float,
        pc: int,
        address: int,
        size: int,
        is_store: bool,
    ) -> float:
        """Demand access from one warp; returns the warp's stall latency.

        The address's memory space selects the path: shared memory is a
        fixed-latency scratchpad (bank conflicts already serialised into
        extra trace records by the front end), texture/constant go through
        their per-SM read-only caches and fall back to the L2, and global
        accesses take the L1 path.  Transactions wider than the L1 line are
        split into line-sized sectors issued in parallel, each one a nested
        call of this method; the warp waits for the slowest.
        """
        if address >= SHARED_BASE:  # below it everything is GLOBAL
            space = space_of(address)
            if space is MemorySpace.SHARED:
                self.shared_accesses += 1
                return self.config.shared_latency
            if space is MemorySpace.TEXTURE:
                cache = self.texture_caches[core]
                if cache is not None:
                    return self._read_only_access(cache, now, address)
            elif space is MemorySpace.CONSTANT:
                cache = self.constant_caches[core]
                if cache is not None:
                    return self._read_only_access(cache, now, address)
        line_size = self._l1_line
        if size > line_size:
            latency = 0.0
            end = address + size
            sector = (address // line_size) * line_size
            while sector < end:
                latency = max(latency, self.access(
                    core, now, pc, sector, line_size, is_store))
                sector += line_size
            return latency
        # The L1 level: one line-sized access.
        l1, mshr, prefetcher = self._l1_units[core]
        hit, victim = l1.access(address, is_store)
        latency = self._l1_hit
        fetch = not hit
        if is_store and self._l1_write_through:
            # Stores forward downstream immediately (posted).  A
            # no-allocate miss does not fetch the line at all: the store is
            # buffered and the warp has nothing to wait for.
            self._writeback_to_l2(now, l1.line_address(address))
            fetch = fetch and self._l1_write_allocate
        if fetch:
            line = address - address % line_size
            inflight = mshr.lookup(line, now)
            if inflight is not None:
                l1.stats.mshr_merges += 1
                latency = max(latency, inflight - now)
            else:
                # An L1 line narrower than the L2 line fits in one L2 access;
                # a wider one (the paper's 64B-L2 / 128B-L1 points) is fetched
                # as parallel L2-line-sized chunks and waits for the slowest.
                if self._l1_fits_l2:
                    l2_latency = self._access_l2(now + latency, line, False)
                else:
                    l2_line = self._l2_line
                    l2_latency = 0.0
                    chunk = line
                    while chunk < line + line_size:
                        l2_latency = max(
                            l2_latency,
                            self._access_l2(now + latency, chunk, False),
                        )
                        chunk += l2_line
                stall, completion = mshr.allocate(
                    line, now, latency + l2_latency
                )
                if stall > 0:
                    l1.stats.mshr_stalls += 1
                latency = completion - now
            if victim is not None and victim.dirty:
                self._writeback_to_l2(now, victim.address)
        if prefetcher is not None:
            for candidate in prefetcher.observe(pc, address, hit):
                self._l1_prefetch(core, now, candidate)
        return latency

    # -- L1 level ---------------------------------------------------------------

    def _l1_prefetch(self, core: int, now: float, address: int) -> None:
        l1 = self.l1s[core]
        l1.stats.prefetch_issued += 1
        if l1.contains(address):
            return
        # Fetch through L2 untimed (posted): state and bandwidth effects only.
        line = self.l2.line_address(address)
        if not self.l2.contains(line):
            victim = self.l2.prefetch_fill(line)
            self.dram.access(now, line, is_write=False)
            self._handle_l2_victim(now, victim)
        victim = l1.prefetch_fill(address)
        if victim is not None and victim.dirty:
            self._writeback_to_l2(now, victim.address)

    def _read_only_access(
        self, cache: SetAssociativeCache, now: float, address: int
    ) -> float:
        """Texture/constant path: per-SM read-only cache, L2 behind it."""
        hit, _ = cache.access(address, is_store=False)
        if hit:
            return float(cache.config.hit_latency)
        l2_latency = self._access_l2(
            now + cache.config.hit_latency, address, is_store=False
        )
        return cache.config.hit_latency + l2_latency

    # -- L2 level ---------------------------------------------------------------

    def _handle_l2_victim(self, now: float, victim) -> None:
        """Writeback a dirty L2 victim; back-invalidate L1s if inclusive.

        A clean victim of a non-inclusive L2 needs nothing, so the hot
        callers skip the call for it.
        """
        if victim is None:
            return
        if victim.dirty:
            self.dram.access(now, victim.address, is_write=True)
        if self._inclusive:
            l1_line = self._l1_line
            end = victim.address + self._victim_span
            for l1 in self.l1s:
                address = victim.address
                while address < end:
                    invalidated = l1.invalidate(address)
                    if invalidated is not None and invalidated.dirty:
                        # The L1's fresher copy can no longer retire via the
                        # L2; flush it straight to memory.
                        self.dram.access(now, invalidated.address, is_write=True)
                    address += l1_line

    def _access_l2(self, now: float, address: int, is_store: bool) -> float:
        noc = self._noc  # SM -> L2 partition traversal
        arrival = now + noc
        hit_latency = self._l2_hit
        bank = (address >> self._l2_bank_shift) & self._l2_bank_mask
        bank_busy = self._l2_bank_busy
        start = bank_busy[bank]
        if start < arrival:
            start = arrival
        bank_busy[bank] = start + hit_latency
        hit, victim = self.l2.access(address, is_store)
        if hit:
            service = hit_latency
        else:
            line = address - address % self._l2_line
            inflight = self.l2_mshr.lookup(line, start)
            if inflight is not None:
                self.l2.stats.mshr_merges += 1
                service = max(hit_latency, inflight - start)
            else:
                service = hit_latency + self.dram.access(
                    start + hit_latency, line, False)
                self.l2_mshr.allocate(line, start, service)
            if victim is not None and (victim.dirty or self._inclusive):
                self._handle_l2_victim(start, victim)
        if self.l2_prefetcher is not None:
            candidates = self.l2_prefetcher.observe(address, hit)
            if candidates:
                self._l2_prefetch(start, candidates)
        return noc + (start - arrival) + service

    def _l2_prefetch(self, now: float, candidates: List[int]) -> None:
        """Issue the stream prefetcher's candidates; fill the absent ones.

        Most candidates are already resident, so residency is probed on
        the L2's sets directly (what ``contains`` does) before a fill.
        """
        l2 = self.l2
        l2.stats.prefetch_issued += len(candidates)
        sets = self._l2_sets
        shift = self._l2_tag_shift
        mask = self._l2_set_mask
        for address in candidates:
            tag = address >> shift
            if tag not in sets[tag & mask]:
                victim = l2.prefetch_fill(address)
                self.dram.access(now, tag << shift, is_write=False)
                if victim is not None and (victim.dirty or self._inclusive):
                    self._handle_l2_victim(now, victim)

    def _writeback_to_l2(self, now: float, address: int) -> None:
        """Posted write of a dirty L1 victim into the L2 (chunked if the
        L2 line is narrower than the L1 line)."""
        l2_line = self._l2_line
        l2_write_through = self._l2_write_through
        chunk = address
        end = address + max(self._l1_line, l2_line)
        while chunk < end:
            hit, victim = self.l2.access(chunk, is_store=True)
            if not hit:
                self._handle_l2_victim(now, victim)
            if l2_write_through:
                self.dram.access(now, self.l2.line_address(chunk), is_write=True)
            chunk += l2_line

    # -- aggregation ------------------------------------------------------------

    def l1_stats(self) -> CacheStats:
        total = CacheStats()
        for l1 in self.l1s:
            total.merge(l1.stats)
        return total

    def texture_stats(self) -> CacheStats:
        total = CacheStats()
        for cache in self.texture_caches:
            if cache is not None:
                total.merge(cache.stats)
        return total

    def constant_stats(self) -> CacheStats:
        total = CacheStats()
        for cache in self.constant_caches:
            if cache is not None:
                total.merge(cache.stats)
        return total

    def l2_stats(self) -> CacheStats:
        return self.l2.stats

    def dram_stats(self) -> DramStats:
        return self.dram.stats
