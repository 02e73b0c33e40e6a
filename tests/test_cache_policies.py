"""Tests for cache write and replacement policies."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.memsim.cache import SetAssociativeCache
from repro.memsim.config import CacheConfig, DramConfig, SimConfig
from repro.memsim.hierarchy import MemoryHierarchy


def make_cache(policy="write-back", allocate=True, replacement="lru",
               size=256, assoc=2, line=64):
    return SetAssociativeCache(
        CacheConfig(size=size, assoc=assoc, line_size=line,
                    write_policy=policy, write_allocate=allocate,
                    replacement=replacement)
    )


class TestConfigValidation:
    def test_write_policy(self):
        with pytest.raises(ValueError, match="write_policy"):
            CacheConfig(size=1024, assoc=2, line_size=64,
                        write_policy="write-once")

    def test_replacement(self):
        with pytest.raises(ValueError, match="replacement"):
            CacheConfig(size=1024, assoc=2, line_size=64, replacement="plru")


class TestWriteThrough:
    def test_store_hit_does_not_dirty(self):
        cache = make_cache(policy="write-through")  # 2 sets of 2 ways
        cache.access(0)
        cache.access(0, is_store=True)
        cache.access(128)                # same set as 0
        _, victim = cache.access(256)    # evicts line 0 (LRU in set 0)
        assert victim is not None and not victim.dirty
        assert cache.stats.writebacks == 0

    def test_store_miss_no_allocate_bypasses(self):
        cache = make_cache(policy="write-through", allocate=False)
        hit, victim = cache.access(0, is_store=True)
        assert not hit and victim is None
        assert not cache.contains(0)
        assert cache.stats.misses == 1

    def test_load_miss_still_allocates(self):
        cache = make_cache(policy="write-through", allocate=False)
        cache.access(0, is_store=False)
        assert cache.contains(0)


class TestReplacementPolicies:
    def _fill_then_touch_first(self, cache):
        """Fill a 2-way set, re-touch the first line, insert a third."""
        cache.access(0)
        cache.access(256)   # same set (4 sets x 64B: 0 and 256 -> set 0)
        cache.access(0)     # refresh line 0 under LRU; FIFO ignores
        _, victim = cache.access(512)
        return victim

    def test_lru_evicts_least_recently_used(self):
        victim = self._fill_then_touch_first(make_cache(replacement="lru"))
        assert victim.address == 256

    def test_fifo_evicts_oldest_insertion(self):
        victim = self._fill_then_touch_first(make_cache(replacement="fifo"))
        assert victim.address == 0

    def test_random_is_deterministic_per_cache(self):
        a = make_cache(replacement="random")
        b = make_cache(replacement="random")
        va = self._fill_then_touch_first(a)
        vb = self._fill_then_touch_first(b)
        assert va.address == vb.address  # same name -> same seed

    def test_random_is_deterministic_across_processes(self):
        """The seed must not depend on the per-process ``str`` hash salt."""
        script = (
            "import random\n"
            "from repro.memsim.cache import SetAssociativeCache\n"
            "from repro.memsim.config import CacheConfig\n"
            "cache = SetAssociativeCache(CacheConfig(\n"
            "    size=1024, assoc=4, line_size=64, replacement='random'),\n"
            "    name='L1[0]')\n"
            "rng = random.Random(7)\n"
            "for _ in range(5000):\n"
            "    cache.access(rng.randrange(1 << 16))\n"
            "print(cache.stats.to_dict())\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        outputs = set()
        for hash_seed in ("1", "2", "3"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
            outputs.add(subprocess.run(
                [sys.executable, "-c", script], env=env, check=True,
                capture_output=True, text=True,
            ).stdout)
        assert len(outputs) == 1

    def test_random_eventually_varies(self):
        cache = make_cache(replacement="random", size=512, assoc=8, line=64)
        victims = set()
        for i in range(50):
            _, victim = cache.access(i * 512)  # all map to set 0
            if victim:
                victims.add(victim.address)
        assert len(victims) > 3  # not stuck on one way


class TestHierarchyWritePolicies:
    def _config(self, l1_policy, allocate=True, l2_policy="write-back"):
        return SimConfig(
            num_cores=1,
            l1=CacheConfig(size=8 * 1024, assoc=4, line_size=128,
                           write_policy=l1_policy, write_allocate=allocate),
            l2=CacheConfig(size=128 * 1024, assoc=8, line_size=128,
                           hit_latency=30, banks=4, write_policy=l2_policy),
            dram=DramConfig(channels=2),
        )

    def test_write_through_l1_forwards_stores_to_l2(self):
        h = MemoryHierarchy(self._config("write-through"))
        h.access(0, 0.0, 1, 0x1000, 128, True)
        assert h.l2.stats.accesses >= 1

    def test_write_back_l1_defers_store_traffic(self):
        h = MemoryHierarchy(self._config("write-back"))
        h.access(0, 0.0, 1, 0x1000, 128, True)
        # The store miss fetched the line (1 L2 read); no store forwarded.
        l2_after_one_store = h.l2.stats.accesses
        h.access(0, 1.0, 1, 0x1000, 128, True)  # hit: dirty in place
        assert h.l2.stats.accesses == l2_after_one_store

    def test_write_evict_l1_store_latency_is_cheap(self):
        h = MemoryHierarchy(self._config("write-through", allocate=False))
        latency = h.access(0, 0.0, 1, 0x2000, 128, True)
        assert latency == h.config.l1.hit_latency
        assert not h.l1s[0].contains(0x2000)

    def test_write_through_l2_reaches_dram(self):
        h = MemoryHierarchy(self._config("write-through",
                                         l2_policy="write-through"))
        writes_before = h.dram.stats.writes
        h.access(0, 0.0, 1, 0x3000, 128, True)
        assert h.dram.stats.writes > writes_before

    def test_policies_change_miss_rates(self):
        """Write-allocate vs no-allocate is an observable design axis."""
        streams = [(i * 128, True) for i in range(64)] + \
                  [(i * 128, False) for i in range(64)]
        results = {}
        for allocate in (True, False):
            h = MemoryHierarchy(self._config("write-through", allocate))
            for t, (addr, st) in enumerate(streams):
                h.access(0, float(t), 1, addr, 128, st)
            results[allocate] = h.l1s[0].stats.miss_rate
        # With allocation the later loads hit; without, they all miss.
        assert results[True] < results[False]