"""Golden results of the scalar SIMT loop, and model tests of its structures.

``GOLDEN`` pins a digest of the full :class:`SimResult` of the
latency-feedback loop (:meth:`SimtSimulator.run`) for configurations the
benchmark never runs: every scheduling policy, non-LRU replacement, the
write policies, an inclusive L2, both prefetchers (the stream prefetcher
also with a two-entry table, trained on misses only, under a FIFO L2 and
under an inclusive L2), 64 B L2 lines under a 128 B L1, DRAM without
tFAW, tWTR and refresh, L1 lines narrower than a transaction (32 B, and
64 B write-through no-allocate with the stride prefetcher), the
texture/constant/shared paths, a barrier-heavy kernel, ``max_requests``
(also stopping one core of a barrier kernel while another is suspended)
and a multi-kernel application.
Any change to the loop or the hierarchy behind it must keep every digest.

The hypothesis tests check the fast structures of the loop against their
brute-force definitions: the per-core issue loop with its warp queue, the
DRAM channel's sorted backlog and the tuple form of the DRAM address
mapping.

Print the digests of the current code with
``PYTHONPATH=src python tests/test_simt_golden.py``.
"""

from __future__ import annotations

import hashlib
import json
import random
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.app_pipeline import execute_application, simulate_application
from repro.gpu.executor import CoreAssignment, WarpTrace, execute_kernel
from repro.gpu.instructions import pack, sync_marker
from repro.memsim.address_mapping import AddressMapping
from repro.memsim.config import (
    CacheConfig,
    DramConfig,
    DramTimings,
    PrefetcherConfig,
    SimConfig,
)
from repro.memsim.dram import DramModel
from repro.memsim.hierarchy import MemoryHierarchy
from repro.memsim.simulator import SimtSimulator
from repro.workloads import suite
from repro.workloads.applications import make_application
from tests.test_perf_determinism import assert_results_identical, reference_run

BASE = SimConfig(
    num_cores=4,
    l1=CacheConfig(size=4 * 1024, assoc=4, line_size=128),
    l2=CacheConfig(size=32 * 1024, assoc=8, line_size=128,
                   hit_latency=30, banks=4),
    dram=DramConfig(channels=2),
)

_SMALL_L1 = CacheConfig(size=2 * 1024, assoc=4, line_size=128)

#: name -> (workload, config changes, max_requests)
CASES = {
    "sched-lrr": ("kmeans", {"scheduler": "lrr"}, None),
    "sched-gto": ("kmeans", {"scheduler": "gto"}, None),
    "sched-schedpself": ("kmeans", {"scheduler": "schedpself",
                                    "sched_p_self": 0.7,
                                    "scheduler_seed": 3}, None),
    # One core holds enough warps for several two-level fetch groups.
    "sched-twolevel": ("kmeans", {"scheduler": "twolevel", "num_cores": 1},
                       None),
    "repl-fifo": ("backprop", {"l1": CacheConfig(
        size=2 * 1024, assoc=4, line_size=128, replacement="fifo")}, None),
    "repl-random": ("backprop", {"l1": CacheConfig(
        size=2 * 1024, assoc=4, line_size=128, replacement="random")}, None),
    "l1-write-through": ("srad", {"l1": CacheConfig(
        size=2 * 1024, assoc=4, line_size=128,
        write_policy="write-through")}, None),
    "l1-write-through-no-allocate": ("srad", {"l1": CacheConfig(
        size=2 * 1024, assoc=4, line_size=128,
        write_policy="write-through", write_allocate=False)}, None),
    "l1-write-back-no-allocate": ("srad", {"l1": CacheConfig(
        size=2 * 1024, assoc=4, line_size=128,
        write_allocate=False)}, None),
    "l2-write-through": ("srad", {"l2": CacheConfig(
        size=32 * 1024, assoc=8, line_size=128, hit_latency=30, banks=4,
        write_policy="write-through")}, None),
    "l2-inclusive": ("srad", {
        "l1": _SMALL_L1,
        "l2": CacheConfig(size=4 * 1024, assoc=2, line_size=128,
                          hit_latency=30, banks=2),
        "l2_inclusion": "inclusive"}, None),
    "l1-stride-prefetch": ("backprop", {
        "l1_prefetcher": PrefetcherConfig(kind="stride", degree=2)}, None),
    "l2-stream-prefetch": ("srad", {
        "l1": _SMALL_L1,
        "l2_prefetcher": PrefetcherConfig(kind="stream", degree=4)}, None),
    # Two streams: FIFO eviction of the stream table on every new region.
    "l2-stream-prefetch-table2": ("bfs", {
        "l1": _SMALL_L1,
        "l2_prefetcher": PrefetcherConfig(kind="stream", degree=4,
                                          stream_window=8, table_size=2)},
        None),
    "l2-stream-prefetch-miss-only": ("srad", {
        "l1": _SMALL_L1,
        "l2_prefetcher": PrefetcherConfig(kind="stream", degree=2,
                                          stream_window=32,
                                          train_on_miss_only=True)}, None),
    # A FIFO L2 takes the non-LRU fill path for prefetched lines.
    "l2-stream-prefetch-fifo": ("srad", {
        "l1": _SMALL_L1,
        "l2": CacheConfig(size=32 * 1024, assoc=8, line_size=128,
                          hit_latency=30, banks=4, replacement="fifo"),
        "l2_prefetcher": PrefetcherConfig(kind="stream", degree=4)}, None),
    # An inclusive L2 small enough that prefetch victims back-invalidate
    # L1 lines.
    "l2-stream-prefetch-inclusive": ("srad", {
        "l1": _SMALL_L1,
        "l2": CacheConfig(size=4 * 1024, assoc=2, line_size=128,
                          hit_latency=30, banks=2),
        "l2_inclusion": "inclusive",
        "l2_prefetcher": PrefetcherConfig(kind="stream", degree=4)}, None),
    "l2-64B-under-l1-128B": ("kmeans", {"l2": CacheConfig(
        size=32 * 1024, assoc=8, line_size=64, hit_latency=30,
        banks=4)}, None),
    "dram-chrabaroco-2rank": ("srad", {"l1": _SMALL_L1, "dram": DramConfig(
        channels=2, ranks=2, mapping="ChRaBaRoCo", frfcfs_window=4)},
        None),
    # No four-activate window, no write-to-read turnaround, no refresh.
    "dram-quiet-timings": ("srad", {"l1": _SMALL_L1, "dram": DramConfig(
        channels=2, timings=DramTimings(t_faw=0, t_wtr=0, t_refi=0))},
        None),
    "texture-constant": ("convolution_texture", {}, None),
    "shared-barriers": ("matmul_shared", {}, None),
    "shared-histogram": ("histogram_shared", {}, None),
    "barrier-heavy": ("reduction", {"scheduler": "gto"}, None),
    "max-requests": ("kmeans", {}, 500),
    # 32 B L1 lines: every 128 B transaction splits into four sectors.
    "l1-32B-sectors": ("bfs", {"l1": CacheConfig(
        size=4 * 1024, assoc=4, line_size=32)}, None),
    # Two sectors per transaction, stores forwarded without a fill, and
    # the stride prefetcher trained on every sector.
    "l1-64B-write-through-no-allocate-stride": ("bfs", {
        "l1": CacheConfig(size=2 * 1024, assoc=4, line_size=64,
                          write_policy="write-through",
                          write_allocate=False),
        "l1_prefetcher": PrefetcherConfig(kind="stride", degree=2)}, None),
    # The budget runs out on one core while the other is suspended
    # mid-kernel, between barriers; ``cycles`` reads both clocks.
    "max-requests-barrier": ("reduction", {}, 150),
}

#: Digests recorded before the loop's data structures were rewritten (with
#: random replacement already seeded from a stable hash of the cache name);
#: the two extra stream-prefetcher cases were recorded before the stream
#: table was indexed; the FIFO and inclusive stream-prefetcher cases and the
#: quiet-timings DRAM case before the memory side's per-request work was
#: rewritten; the sectored L1 cases and the barrier-kernel budget stop
#: before the core side's per-request work was rewritten.
GOLDEN = {
    "application-srad": "6d88e0143ea4e379",
    "barrier-heavy": "74179dbe1c92b337",
    "dram-chrabaroco-2rank": "794e6d0d8987ef40",
    "dram-quiet-timings": "35e61ed1f29ffa0c",
    "l1-32B-sectors": "2abe0d99a9ef3317",
    "l1-64B-write-through-no-allocate-stride": "6e9b8f25602f0743",
    "l1-stride-prefetch": "3cba3d76d263ef73",
    "l1-write-back-no-allocate": "fb336ac773b8f39e",
    "l1-write-through": "964ddd8ca5364e98",
    "l1-write-through-no-allocate": "98597fdc6130beb8",
    "l2-64B-under-l1-128B": "4236c7f869cad0cd",
    "l2-inclusive": "34291e0c7e0bdcc2",
    "l2-stream-prefetch": "9bb173637421c5b8",
    "l2-stream-prefetch-fifo": "f3be85ce15190ce2",
    "l2-stream-prefetch-inclusive": "2f2ab34ff5e25a41",
    "l2-stream-prefetch-miss-only": "adf0f9271d7eb24c",
    "l2-stream-prefetch-table2": "b8016e78c50d892e",
    "l2-write-through": "59bcb5a8e18f8043",
    "max-requests": "adb68abe338f9451",
    "max-requests-barrier": "b5135215d67b9934",
    "repl-fifo": "f20b07ec2ad39cd9",
    "repl-random": "b68c45e4c8a4a6b0",
    "sched-gto": "97802a34ebccfe5f",
    "sched-lrr": "e4e934b64a239815",
    "sched-schedpself": "42543222c16f83cd",
    "sched-twolevel": "f719955c8a2dd307",
    "shared-barriers": "50e2c418015e90d2",
    "shared-histogram": "0f04c348020fe57a",
    "texture-constant": "f190ec319b300821",
}


@lru_cache(maxsize=None)
def _assignments(workload: str, num_cores: int):
    return execute_kernel(suite.make(workload, scale="tiny"), num_cores,
                          BASE.max_blocks_per_core)


def _full_dict(result) -> dict:
    """``to_dict()`` plus the fields it leaves out."""
    out = result.to_dict()
    out["texture"] = result.texture.to_dict()
    out["constant"] = result.constant.to_dict()
    out["shared_accesses"] = result.shared_accesses
    out["barriers_crossed"] = result.barriers_crossed
    out["per_core_l1"] = [stats.to_dict() for stats in result.per_core_l1]
    return out


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_case(name: str) -> str:
    """Digest of one named case's result on the current code."""
    if name == "application-srad":
        app = make_application("srad_app", scale="tiny")
        result = simulate_application(
            execute_application(app, BASE.num_cores), BASE)
        return _digest({
            "combined": _full_dict(result.combined),
            "per_kernel": [_full_dict(r) for r in result.per_kernel],
        })
    workload, changes, max_requests = CASES[name]
    config = BASE.with_(**changes)
    assignments = _assignments(workload, config.num_cores)
    result = SimtSimulator(config).run(assignments, max_requests=max_requests)
    return _digest(_full_dict(result))


ALL_CASES = sorted(CASES) + ["application-srad"]


@pytest.mark.parametrize("name", ALL_CASES)
def test_golden_result(name):
    assert run_case(name) == GOLDEN[name]


def test_every_case_recorded():
    assert sorted(GOLDEN) == sorted(ALL_CASES)


# -- model tests of the loop's structures -----------------------------------

class _StubHierarchy(MemoryHierarchy):
    """A hierarchy whose demand latency is a seeded random draw.

    It logs every access, so two loops that issue the same requests in
    the same order at the same times draw the same latencies.
    """

    LATENCIES = (0.0, 1.0, 2.5, 4.0, 9.0, 30.0, 200.0)

    def __init__(self, config, seed):
        super().__init__(config)
        self.rng = random.Random(seed)
        self.log = []

    def access(self, core, now, pc, address, size, is_store):
        self.log.append((core, now, pc, address, size, is_store))
        return self.rng.choice(self.LATENCIES)


_SYNC = sync_marker()
_records = st.lists(
    st.one_of(
        st.just(_SYNC),
        st.builds(pack, st.integers(0, 3), st.integers(0, 63).map(
            lambda line: 128 * line), st.just(4), st.booleans()),
    ),
    max_size=6,
)
# A wave: up to five warps (ids unique in the wave, reused across waves)
# in up to two threadblocks.
_waves = st.lists(
    st.lists(st.tuples(st.integers(0, 1), _records), max_size=5),
    min_size=1, max_size=3,
)


def _assignments_of(cores):
    return [
        CoreAssignment(core_id, [
            [WarpTrace(warp_id=warp, block=block, transactions=list(records))
             for warp, (block, records) in enumerate(wave)]
            for wave in waves
        ])
        for core_id, waves in enumerate(cores)
    ]


class TestWarpQueueModel:
    """The per-core issue loop against the brute-force reference.

    The warp queue lives in locals of the ``_CoreState.issue`` generator,
    bound once per run and kept across the core's turns: an ascending
    ready list, a heap of ``(ready time, warp)`` for the others, and a
    reversed transaction stack per queued warp.
    ``reference_run`` (tests/test_perf_determinism.py) recomputes the
    ready set from the map on every step and scans the cores with
    ``min()``.  Both drive a stub hierarchy with seeded random latencies,
    so any difference in which warp issues when shows up in its log.
    """

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(_waves, min_size=1, max_size=3),
        st.sampled_from(["lrr", "gto", "schedpself", "twolevel"]),
        st.one_of(st.none(), st.integers(0, 25)),
        st.integers(0, 2**16),
    )
    def test_matches_brute_force(self, cores, policy, max_requests, seed):
        config = BASE.with_(num_cores=len(cores), scheduler=policy,
                            sched_p_self=0.6, scheduler_seed=seed)
        simulator = SimtSimulator(config)
        simulator.hierarchy = fast = _StubHierarchy(config, seed)
        assignments = _assignments_of(cores)
        result = simulator.run(assignments, max_requests=max_requests)
        # The loop pops copies: a sweep replays the same traces per config.
        assert assignments == _assignments_of(cores)
        slow = _StubHierarchy(config, seed)
        expected = reference_run(config, _assignments_of(cores),
                                 max_requests=max_requests, hierarchy=slow)
        assert fast.log == slow.log
        assert result.requests_issued == expected.requests_issued
        assert result.cycles == expected.cycles
        assert result.barriers_crossed == expected.barriers_crossed
        assert result.measured_p_self == expected.measured_p_self

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 9), min_size=1, max_size=12),
           st.integers(1, 40), st.integers(0, 2**16))
    def test_monotone_issue_loop(self, lengths, scale, seed):
        """Real hierarchy, one wave of plain loads: the loop and the
        reference see the same requests and return the same result."""
        traces = [[pack(0, 128 * (scale * warp + i)) for i in range(n)]
                  for warp, n in enumerate(lengths)]
        config = BASE.with_(num_cores=1, scheduler_seed=seed)
        assignments = [CoreAssignment(0, [[
            WarpTrace(warp_id=warp, block=0, transactions=records)
            for warp, records in enumerate(traces)]])]
        assert_results_identical(
            SimtSimulator(config).run(assignments),
            reference_run(config, assignments))


class TestDramBacklogModel:
    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(0, (1 << 22) - 1),
                           st.floats(0.0, 4.0), st.booleans()),
                 min_size=1, max_size=200),
        st.sampled_from([1, 2, 4, 16]),
    )
    def test_sorted_twin_matches_pending(self, stream, window):
        """Each channel's sorted backlog equals ``sorted(pending)``."""
        dram = DramModel(DramConfig(channels=2, banks=2,
                                    frfcfs_window=window))
        now = 0.0
        for address, gap, is_write in stream:
            now += gap
            dram.access(now, address * 128, is_write=is_write)
            for channel in dram._channels:
                assert channel.backlog == sorted(channel.pending)


class TestCoordinatesModel:
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=0, max_value=(1 << 40) - 1),
        st.sampled_from(["RoBaRaCoCh", "ChRaBaRoCo"]),
        st.sampled_from([1, 2, 8]),
        st.sampled_from([1, 2]),
        st.sampled_from([1, 4, 16]),
        st.sampled_from([64, 128]),
    )
    def test_coordinates_match_decompose(self, address, mapping, channels,
                                         ranks, banks, txn):
        mapping = AddressMapping(
            DramConfig(channels=channels, ranks=ranks, banks=banks,
                       mapping=mapping), txn)
        full = mapping.decompose(address)
        assert mapping.coordinates(address) == (
            full.channel, full.rank, full.bank, full.row)


if __name__ == "__main__":
    print(json.dumps({name: run_case(name) for name in ALL_CASES}, indent=4))
