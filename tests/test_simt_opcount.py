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


def test_any_suite_kernel(opcount, capsys):
    """``--kernel`` takes kernels beyond the layer test's two."""
    assert opcount.main(["--point", "stream-w8-d8-chrabaroco",
                         "--kernel", "bfs", "--max-requests", "120",
                         "--top", "3"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("== stream-w8-d8-chrabaroco / bfs\n")
    assert "(requests: 120)" in out
    assert "prefetcher  (layer total)" in out


def test_unknown_kernel_is_refused(opcount):
    with pytest.raises(SystemExit) as exit_info:
        opcount.main(["--kernel", "no-such-kernel"])
    assert exit_info.value.code == 2


def test_layer_of_maps_sources(opcount):
    assert opcount.layer_of("/x/src/repro/memsim/mshr.py") == "mshr"
    assert opcount.layer_of("/x/src/repro/memsim/address_mapping.py") == "dram"
    assert opcount.layer_of("/usr/lib/python3/heapq.py") == "other"


def test_lines_attribute_a_function_per_source_line(opcount, capsys):
    """``--lines FUNC`` splits FUNC's opcodes over its source lines."""
    counter, requests = opcount.count_point(
        "fig6a-l1-16KB-4way", "srad", max_requests=100,
        lines_of=["MemoryHierarchy.access"])
    key = ("hierarchy", "MemoryHierarchy.access")
    per_line = {line: count for (name, _, line), count
                in counter.lines.items()}
    assert {name for name, _, _ in counter.lines} == {key[1]}
    assert sum(per_line.values()) == counter.opcodes[key]
    table = opcount.line_report(counter, requests, key[1])
    assert "l1.access(address, is_store)" in table
    assert opcount.line_report(counter, requests, "no.such").endswith(
        "no opcodes executed")

    assert opcount.main(["--point", "fig6a-l1-16KB-4way", "--kernel", "srad",
                         "--max-requests", "50", "--top", "1",
                         "--lines", "_CoreState.issue"]) == 0
    out = capsys.readouterr().out
    assert "-- _CoreState.issue: " in out
    assert "stack.pop()" in out
