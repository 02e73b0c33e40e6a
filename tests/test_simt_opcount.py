"""Smoke test of ``scripts/simt_opcount.py``, the opcode attribution tool."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "simt_opcount.py"


@pytest.fixture(scope="module")
def opcount():
    spec = importlib.util.spec_from_file_location("simt_opcount", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_layer_counts_sum_to_total(opcount):
    counter, requests = opcount.count_point(
        "fig6a-l1-16KB-4way", "srad", max_requests=150)
    assert requests == 150
    layers = counter.per_layer()
    assert sum(layers.values()) == counter.total
    assert sum(counter.opcodes.values()) == counter.total
    for layer in ("loop", "scheduler", "hierarchy", "cache", "mshr", "dram"):
        assert layers[layer] > 0, layer
    # srad has no barriers: one select and one hierarchy access per request.
    assert counter.calls[("scheduler", "LrrScheduler.select")] == requests
    assert counter.calls[("hierarchy", "MemoryHierarchy.access")] == requests
    table = opcount.report(counter, requests, top=5)
    assert table.splitlines()[-1].startswith("all")


def test_layer_of_maps_sources(opcount):
    assert opcount.layer_of("/x/src/repro/memsim/mshr.py") == "mshr"
    assert opcount.layer_of("/x/src/repro/memsim/address_mapping.py") == "dram"
    assert opcount.layer_of("/usr/lib/python3/heapq.py") == "other"
