"""Golden results of the scalar SIMT loop, and model tests of its structures.

``GOLDEN`` pins a digest of the full :class:`SimResult` of the
latency-feedback loop (:meth:`SimtSimulator.run`) for configurations the
benchmark never runs: every scheduling policy, non-LRU replacement, the
write policies, an inclusive L2, both prefetchers, 64 B L2 lines under a
128 B L1, the texture/constant/shared paths, a barrier-heavy kernel,
``max_requests`` and a multi-kernel application.  Any change to the loop or
the hierarchy behind it must keep every digest.

The hypothesis tests check the fast structures of the loop against their
brute-force definitions: the incremental warp queue, the DRAM channel's
sorted backlog and the tuple form of the DRAM address mapping.

Print the digests of the current code with
``PYTHONPATH=src python tests/test_simt_golden.py``.
"""

from __future__ import annotations

import hashlib
import json
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.app_pipeline import execute_application, simulate_application
from repro.gpu.executor import execute_kernel
from repro.gpu.scheduler import WarpQueue
from repro.memsim.address_mapping import AddressMapping
from repro.memsim.config import (
    CacheConfig,
    DramConfig,
    PrefetcherConfig,
    SimConfig,
)
from repro.memsim.dram import DramModel
from repro.memsim.simulator import SimtSimulator
from repro.workloads import suite
from repro.workloads.applications import make_application

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
    "l2-64B-under-l1-128B": ("kmeans", {"l2": CacheConfig(
        size=32 * 1024, assoc=8, line_size=64, hit_latency=30,
        banks=4)}, None),
    "dram-chrabaroco-2rank": ("srad", {"l1": _SMALL_L1, "dram": DramConfig(
        channels=2, ranks=2, mapping="ChRaBaRoCo", frfcfs_window=4)},
        None),
    "texture-constant": ("convolution_texture", {}, None),
    "shared-barriers": ("matmul_shared", {}, None),
    "shared-histogram": ("histogram_shared", {}, None),
    "barrier-heavy": ("reduction", {"scheduler": "gto"}, None),
    "max-requests": ("kmeans", {}, 500),
}

#: Digests recorded before the loop's data structures were rewritten (with
#: random replacement already seeded from a stable hash of the cache name).
GOLDEN = {
    "application-srad": "6d88e0143ea4e379",
    "barrier-heavy": "74179dbe1c92b337",
    "dram-chrabaroco-2rank": "794e6d0d8987ef40",
    "l1-stride-prefetch": "3cba3d76d263ef73",
    "l1-write-back-no-allocate": "fb336ac773b8f39e",
    "l1-write-through": "964ddd8ca5364e98",
    "l1-write-through-no-allocate": "98597fdc6130beb8",
    "l2-64B-under-l1-128B": "4236c7f869cad0cd",
    "l2-inclusive": "34291e0c7e0bdcc2",
    "l2-stream-prefetch": "9bb173637421c5b8",
    "l2-write-through": "59bcb5a8e18f8043",
    "max-requests": "adb68abe338f9451",
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

_times = st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, 7.5, 10.0, float("inf")])
_warps = st.integers(min_value=0, max_value=9)
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("add"), _warps, _times),
        st.tuples(st.just("delay"), _warps, _times),
        st.tuples(st.just("retire"), _warps, _times),
        st.tuples(st.just("ready_at"), _warps, _times),
        st.tuples(st.just("next_event"), _warps, _times),
    ),
    max_size=80,
)


class TestWarpQueueModel:
    @settings(max_examples=300, deadline=None)
    @given(_ops)
    def test_matches_brute_force(self, ops):
        queue = WarpQueue()
        model = {}
        for op, warp, time in ops:
            if op == "add":
                if warp in model:
                    with pytest.raises(ValueError):
                        queue.add(warp, time)
                else:
                    queue.add(warp, time)
                    model[warp] = time
            elif op == "delay":
                if warp in model:
                    queue.delay(warp, time)
                    model[warp] = time
                else:
                    with pytest.raises(KeyError):
                        queue.delay(warp, time)
            elif op == "retire":
                queue.retire(warp)
                model.pop(warp, None)
            elif op == "ready_at":
                assert queue.ready_at(time) == sorted(
                    w for w, t in model.items() if t <= time)
            else:
                assert queue.next_event() == min(model.values(), default=None)
            assert len(queue) == len(model)
            assert (warp in queue) == (warp in model)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(_warps, st.floats(0.0, 50.0)), max_size=60))
    def test_monotone_issue_loop(self, delays):
        """The simulator's pattern: ready_at at a rising clock, then delay."""
        queue = WarpQueue()
        model = {w: 0.0 for w in range(10)}
        for w in model:
            queue.add(w)
        now = 0.0
        for warp, latency in delays:
            expected = sorted(w for w, t in model.items() if t <= now)
            assert queue.ready_at(now) == expected
            if warp in model:
                queue.delay(warp, now + latency)
                model[warp] = now + latency
            now += 1.0


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
