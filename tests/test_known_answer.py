"""Known-answer tests: a cyclic sweep whose L1 misses follow from LRU alone.

One core reads ``K`` consecutive 128 B lines ``R`` times into an ``S``-set,
``a``-way L1.  Each set then cycles through the same ``K/S`` lines, so every
reuse sits at per-set stack distance ``K/S - 1``: an LRU set of ``a >= K/S``
ways keeps them all (``K`` cold misses only), and a smaller one evicts each
line just before its reuse (``K * R`` misses).  The engines are otherwise
checked against each other; this pins them to a count derived by hand, so
an assumption they share cannot hide.
"""

from __future__ import annotations

import pytest

from repro.analytical.analytic import AnalyticCacheModel, _SetDistanceScan
from repro.core.backend import numpy_available
from repro.core.reuse import COLD_MISS, set_stack_distances
from repro.gpu.executor import CoreAssignment, WarpTrace
from repro.gpu.memspace import GLOBAL_BASE
from repro.memsim.config import PAPER_BASELINE, CacheConfig
from repro.memsim.simulator import SimtSimulator
from repro.memsim.vectorized import simulate_flat_runs

LINES, ROUNDS, SETS, LINE_SIZE = 64, 5, 8, 128
DISTANCE = LINES // SETS - 1

LINE_STREAM = [line for _ in range(ROUNDS) for line in range(LINES)]
TRACE = [(0, GLOBAL_BASE + line * LINE_SIZE, LINE_SIZE, 0)
         for line in LINE_STREAM]

needs_numpy = pytest.mark.skipif(
    not numpy_available(), reason="the array path needs numpy")
BACKENDS = ["python", pytest.param("numpy", marks=needs_numpy)]


def expected_misses(assoc: int) -> int:
    """``K`` cold misses if a set holds its ``K/S`` lines, else all."""
    return LINES if assoc >= LINES // SETS else LINES * ROUNDS


def l1_config(assoc: int):
    return PAPER_BASELINE.with_(num_cores=1, l1=CacheConfig(
        size=SETS * assoc * LINE_SIZE, assoc=assoc, line_size=LINE_SIZE))


#: 7 and 8 straddle the boundary: one way short of ``K/S`` thrashes.
ASSOCS = pytest.mark.parametrize("assoc", [4, 7, 8, 16])


def test_scalar_scan_distances():
    scan = _SetDistanceScan(LINE_STREAM, SETS, set())
    assert scan.colds == LINES
    assert scan.histogram == {DISTANCE: LINES * (ROUNDS - 1)}


@needs_numpy
def test_array_scan_distances():
    _order, distances, last = set_stack_distances(LINE_STREAM, SETS)
    assert sorted(distances.tolist()) == (
        [COLD_MISS] * LINES + [DISTANCE] * (LINES * (ROUNDS - 1)))
    assert int(last.sum()) == LINES


@ASSOCS
@pytest.mark.parametrize("backend", BACKENDS)
def test_analytic_predict(assoc, backend):
    model = AnalyticCacheModel.from_flat([TRACE], backend)
    assert model.predict(l1_config(assoc)).l1.misses == expected_misses(assoc)


@ASSOCS
@pytest.mark.parametrize("backend", BACKENDS)
def test_flat_replay(assoc, backend):
    [(_, result, _)] = simulate_flat_runs([TRACE], [l1_config(assoc)], backend)
    assert result.l1.accesses == len(TRACE)
    assert result.l1.misses == expected_misses(assoc)


@ASSOCS
def test_one_warp_simt_run(assoc):
    warp = WarpTrace(warp_id=0, block=0, transactions=list(TRACE))
    result = SimtSimulator(l1_config(assoc)).run(
        [CoreAssignment(core_id=0, waves=[[warp]])])
    assert result.l1.accesses == len(TRACE)
    assert result.l1.misses == expected_misses(assoc)
