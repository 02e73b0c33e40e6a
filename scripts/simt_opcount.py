#!/usr/bin/env python
"""Deterministic per-function cost of the scalar SIMT loop, in bytecodes.

Runs the sweep points of ``tests/test_layer_boundaries.py`` on any suite
kernel at ``tiny`` scale (by default the two kernels of that test) through
``SimtSimulator.run`` under ``sys.settrace`` with ``f_trace_opcodes`` on,
and prints, per request, the bytecodes each function executed and how
often it was called, grouped by its memsim layer.  A count of executed
opcodes needs no timing wrappers and does not move with the host's speed,
so it attributes the loop's untraced glue exactly.  A sampling profiler
cannot: ``SIGPROF`` samples land on function entries.  Opcodes differ in
cost, so the counts rank work rather than time it.  C functions
(``heapq``, ``bisect``, dict methods) cost one opcode in their caller.
A generator's calls count its resumptions.

``--lines FUNC`` (a qualified name as the table prints it, e.g.
``MemoryHierarchy.access``; repeatable) adds, per request, the opcodes
each source line of that function executed.

Usage:
    PYTHONPATH=src python scripts/simt_opcount.py [--point NAME] \\
        [--kernel srad|bfs|nw|...] [--top 25] [--max-requests N] \\
        [--lines FUNC ...]
"""

from __future__ import annotations

import argparse
import linecache
import sys
from collections import Counter
from pathlib import Path
from typing import Collection, Dict, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent

#: Source file (under ``src/repro``) -> the layer its functions belong to.
LAYERS = {
    "gpu/scheduler.py": "scheduler",
    "memsim/simulator.py": "loop",
    "memsim/hierarchy.py": "hierarchy",
    "memsim/cache.py": "cache",
    "memsim/mshr.py": "mshr",
    "memsim/prefetcher.py": "prefetcher",
    "memsim/dram.py": "dram",
    "memsim/address_mapping.py": "dram",
}


def layer_of(filename: str) -> str:
    """The memsim layer of a code object's source file, else ``other``."""
    path = filename.replace("\\", "/")
    for suffix, layer in LAYERS.items():
        if path.endswith("repro/" + suffix):
            return layer
    return "other"


class OpcodeCounter:
    """Counts executed opcodes and calls per ``(layer, qualname)``.

    For the functions named in ``lines_of`` it also counts opcodes per
    ``(qualname, filename, line)`` in :attr:`lines`.
    """

    def __init__(self, lines_of: Collection[str] = ()) -> None:
        self.opcodes: Counter = Counter()
        self.calls: Counter = Counter()
        self.lines: Counter = Counter()
        self.total = 0
        self._keys: Dict[object, Tuple[str, str]] = {}
        self._lines_of = frozenset(lines_of)

    def _key(self, code) -> Tuple[str, str]:
        key = self._keys.get(code)
        if key is None:
            name = getattr(code, "co_qualname", code.co_name)
            key = self._keys[code] = (layer_of(code.co_filename), name)
        return key

    def _global(self, frame, event, arg):
        if event != "call":
            return None
        frame.f_trace_opcodes = True
        key = self._key(frame.f_code)
        self.calls[key] += 1
        opcodes = self.opcodes
        lines = self.lines if key[1] in self._lines_of else None
        filename = frame.f_code.co_filename

        def local(frame, event, arg):
            if event == "opcode":
                opcodes[key] += 1
                self.total += 1
                if lines is not None:
                    # Code the compiler generated (e.g. a generator's
                    # close) has no line; it counts as line 0.
                    lines[(key[1], filename, frame.f_lineno or 0)] += 1
            return local

        return local

    def __enter__(self) -> "OpcodeCounter":
        sys.settrace(self._global)
        return self

    def __exit__(self, *_exc: object) -> None:
        sys.settrace(None)

    def per_layer(self) -> Counter:
        """Opcodes summed over each layer's functions."""
        layers: Counter = Counter()
        for (layer, _), count in self.opcodes.items():
            layers[layer] += count
        return layers


def _layer_test():
    """``tests/test_layer_boundaries.py``, which defines the points."""
    if str(ROOT) not in sys.path:
        sys.path.insert(0, str(ROOT))
    from tests import test_layer_boundaries

    return test_layer_boundaries


def count_point(point: str, kernel: str,
                max_requests: Optional[int] = None,
                lines_of: Collection[str] = ()
                ) -> Tuple[OpcodeCounter, int]:
    """Trace one simulation; returns the counter and the requests issued.

    ``lines_of`` names the functions to count per source line.
    """
    from repro.gpu.executor import execute_kernel
    from repro.memsim.simulator import SimtSimulator
    from repro.workloads import suite

    points = _layer_test()
    assignments = execute_kernel(suite.make(kernel, scale="tiny"),
                                 points.NUM_CORES)
    simulator = SimtSimulator(points.CONFIGS[point])
    with OpcodeCounter(lines_of) as counter:
        result = simulator.run(assignments, max_requests=max_requests)
    return counter, result.requests_issued


def report(counter: OpcodeCounter, requests: int, top: int) -> str:
    """Per-request table of the ``top`` functions, then the layer totals."""
    per = 1.0 / max(requests, 1)
    lines = [f"{'layer':<11} {'function':<44} {'opcodes/req':>11} "
             f"{'calls/req':>9}"]
    for key, count in counter.opcodes.most_common(top):
        layer, name = key
        lines.append(f"{layer:<11} {name:<44} {count * per:>11.1f} "
                     f"{counter.calls[key] * per:>9.3f}")
    lines.append("")
    for layer, count in counter.per_layer().most_common():
        lines.append(f"{layer:<11} {'(layer total)':<44} "
                     f"{count * per:>11.1f}")
    lines.append(f"{'all':<11} {'(requests: ' + str(requests) + ')':<44} "
                 f"{counter.total * per:>11.1f}")
    return "\n".join(lines)


def line_report(counter: OpcodeCounter, requests: int, function: str) -> str:
    """Per-request opcodes of each executed source line of ``function``."""
    per = 1.0 / max(requests, 1)
    rows = sorted((filename, line, count)
                  for (name, filename, line), count in counter.lines.items()
                  if name == function)
    if not rows:
        return f"-- {function}: no opcodes executed"
    total = sum(count for _, _, count in rows)
    out = [f"-- {function}: {total * per:.1f} opcodes/req",
           f"{'line':>6} {'opcodes/req':>11}  source"]
    for filename, line, count in rows:
        source = (linecache.getline(filename, line).rstrip() if line
                  else "(no source line)")
        out.append(f"{line:>6} {count * per:>11.1f}  {source}")
    return "\n".join(out)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Print the opcode table of each requested point and kernel."""
    points = _layer_test()
    from repro.workloads import suite

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--point", choices=sorted(points.CONFIGS),
                        action="append",
                        help="sweep point (default: every point)")
    parser.add_argument("--kernel", choices=suite.available(),
                        action="append",
                        help="suite kernel, run at tiny scale (default: "
                             + ", ".join(points.KERNELS) + ")")
    parser.add_argument("--top", type=int, default=25)
    parser.add_argument("--max-requests", type=int, default=None)
    parser.add_argument("--lines", metavar="FUNC", action="append",
                        default=[],
                        help="also print opcodes per source line of FUNC "
                             "(qualified name, e.g. MemoryHierarchy.access)")
    args = parser.parse_args(argv)
    for point in args.point or sorted(points.CONFIGS):
        for kernel in args.kernel or points.KERNELS:
            counter, requests = count_point(point, kernel, args.max_requests,
                                            args.lines)
            print(f"== {point} / {kernel}")
            print(report(counter, requests, args.top))
            for function in args.lines:
                print()
                print(line_report(counter, requests, function))
            print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
