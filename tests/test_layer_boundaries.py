"""The SIMT loop's traced layer boundaries keep their call counts.

The benchmark's per-layer trace (``bench/tracing.py``) wraps these methods
from outside the program: the warp schedulers' ``select``,
``MemoryHierarchy.access``, ``SetAssociativeCache.access``,
``MshrFile.lookup``/``allocate``, both prefetchers' ``observe``,
``DramModel.access`` and ``SimtSimulator.run``.  A speed-up that inlined
one of them into its caller would leave results bit-identical but silently
move time and counts out of a layer.  Here every one of them is wrapped
with a counter, and the counts of a fig6a-style sweep point and of two
stream-prefetcher + DRAM points must equal the ones recorded before the
loop's untraced glue was trimmed.

Print the counts of the current code with
``PYTHONPATH=src python tests/test_layer_boundaries.py``.
"""

from __future__ import annotations

import json
from collections import Counter
from functools import lru_cache, wraps

import pytest

from repro.gpu import scheduler
from repro.gpu.executor import execute_kernel
from repro.memsim.cache import SetAssociativeCache
from repro.memsim.config import (
    PAPER_BASELINE,
    CacheConfig,
    DramConfig,
    PrefetcherConfig,
)
from repro.memsim.dram import DramModel
from repro.memsim.hierarchy import MemoryHierarchy
from repro.memsim.mshr import MshrFile
from repro.memsim.prefetcher import StreamPrefetcher, StridePrefetcher
from repro.memsim.simulator import SimtSimulator
from repro.workloads import suite

KB = 1024
NUM_CORES = 8
KERNELS = ("srad", "streamcluster")

_STREAM_L2 = CacheConfig(size=512 * KB, assoc=4, line_size=128,
                         hit_latency=30, banks=8)

CONFIGS = {
    "fig6a-l1-16KB-4way": PAPER_BASELINE.with_(
        num_cores=NUM_CORES,
        l1=CacheConfig(size=16 * KB, assoc=4, line_size=128)),
    "stream-w8-d8-chrabaroco": PAPER_BASELINE.with_(
        num_cores=NUM_CORES, l2=_STREAM_L2,
        l2_prefetcher=PrefetcherConfig(kind="stream", degree=8,
                                       stream_window=8),
        dram=DramConfig(bus_width=8, channels=4, mapping="ChRaBaRoCo")),
    # 64 B L2 lines under the 128 B L1: the chunked L1-miss path.
    "stream-w32-d2-l2-64B": PAPER_BASELINE.with_(
        num_cores=NUM_CORES,
        l2=CacheConfig(size=512 * KB, assoc=4, line_size=64,
                       hit_latency=30, banks=8),
        l2_prefetcher=PrefetcherConfig(kind="stream", degree=2,
                                       stream_window=32),
        dram=DramConfig(bus_width=16, channels=8)),
}

#: ``(owner, method, label)``: the memsim layers the benchmark traces.
LAYERS = (
    *((policy, "select", "scheduler.select")
      for policy in (scheduler.LrrScheduler, scheduler.GtoScheduler,
                     scheduler.SchedPselfScheduler,
                     scheduler.TwoLevelScheduler)),
    (MemoryHierarchy, "access", "hierarchy.access"),
    (SetAssociativeCache, "access", "cache.access"),
    (MshrFile, "lookup", "mshr.lookup"),
    (MshrFile, "allocate", "mshr.allocate"),
    (StridePrefetcher, "observe", "prefetcher.observe"),
    (StreamPrefetcher, "observe", "prefetcher.observe"),
    (DramModel, "access", "dram.access"),
    (SimtSimulator, "run", "simulator.run"),
)

#: Outermost calls per layer, recorded before the glue was trimmed.
RECORDED = {
    "fig6a-l1-16KB-4way/srad": {
        "dram.access": 9740,
        "hierarchy.access": 19968,
        "l1.access": 19968,
        "l2.access": 20854,
        "mshr.allocate": 28742,
        "mshr.lookup": 28742,
        "scheduler.select": 19968,
        "simulator.run": 1,
    },
    "fig6a-l1-16KB-4way/streamcluster": {
        "dram.access": 266,
        "hierarchy.access": 4544,
        "l1.access": 4544,
        "l2.access": 367,
        "mshr.allocate": 633,
        "mshr.lookup": 633,
        "scheduler.select": 4544,
        "simulator.run": 1,
    },
    "stream-w32-d2-l2-64B/srad": {
        "dram.access": 56589,
        "hierarchy.access": 19968,
        "l1.access": 19968,
        "l2.access": 42888,
        "mshr.allocate": 35720,
        "mshr.lookup": 35720,
        "prefetcher.observe": 39816,
        "scheduler.select": 19968,
        "simulator.run": 1,
    },
    "stream-w32-d2-l2-64B/streamcluster": {
        "dram.access": 538,
        "hierarchy.access": 4544,
        "l1.access": 4544,
        "l2.access": 690,
        "mshr.allocate": 366,
        "mshr.lookup": 366,
        "prefetcher.observe": 690,
        "scheduler.select": 4544,
        "simulator.run": 1,
    },
    "stream-w8-d8-chrabaroco/srad": {
        "dram.access": 45490,
        "hierarchy.access": 19968,
        "l1.access": 19968,
        "l2.access": 21235,
        "mshr.allocate": 20459,
        "mshr.lookup": 20461,
        "prefetcher.observe": 19699,
        "scheduler.select": 19968,
        "simulator.run": 1,
    },
    "stream-w8-d8-chrabaroco/streamcluster": {
        "dram.access": 282,
        "hierarchy.access": 4544,
        "l1.access": 4544,
        "l2.access": 294,
        "mshr.allocate": 328,
        "mshr.lookup": 328,
        "prefetcher.observe": 294,
        "scheduler.select": 4544,
        "simulator.run": 1,
    },
}


def _label(label: str, owner: object) -> str:
    if label != "cache.access":
        return label
    name = owner.name  # type: ignore[attr-defined]
    if name.startswith("L1"):
        return "l1.access"
    return "l2.access" if name == "L2" else label


def _counting(fn, label, counts, depth):
    @wraps(fn)
    def wrapper(self, *args, **kwargs):
        call = _label(label, self)
        # A policy delegating to another (SchedP_self -> LRR) counts once.
        if not depth[call]:
            counts[call] += 1
        depth[call] += 1
        try:
            return fn(self, *args, **kwargs)
        finally:
            depth[call] -= 1

    return wrapper


@lru_cache(maxsize=None)
def _assignments(kernel: str):
    return execute_kernel(suite.make(kernel, scale="tiny"), NUM_CORES)


def layer_counts(config_name: str, kernel: str, patch) -> dict:
    """Outermost calls of every traced layer in one simulation."""
    counts: Counter = Counter()
    depth: Counter = Counter()
    for owner, attr, label in LAYERS:
        patch(owner, attr,
              _counting(owner.__dict__[attr], label, counts, depth))
    SimtSimulator(CONFIGS[config_name]).run(_assignments(kernel))
    return dict(sorted(counts.items()))


@pytest.mark.parametrize("case", sorted(RECORDED))
def test_layer_call_counts_unchanged(monkeypatch, case):
    config_name, kernel = case.split("/")
    assert layer_counts(config_name, kernel, monkeypatch.setattr) == (
        RECORDED[case])


def test_every_case_recorded():
    assert sorted(RECORDED) == sorted(
        f"{config}/{kernel}" for config in CONFIGS for kernel in KERNELS)


if __name__ == "__main__":
    out = {}
    for case in sorted(RECORDED):
        with pytest.MonkeyPatch.context() as mp:
            out[case] = layer_counts(*case.split("/"), mp.setattr)
    print(json.dumps(out, indent=4))
