"""Warp-trace files.

A simple line-oriented text format for coalesced warp traces, so externally
collected GPU memory traces (e.g. from an instrumented simulator) can enter
the G-MAP pipeline, and generated proxy traces can leave it for other
simulators.

Format (one file per kernel)::

    # gmap-trace v1
    W <warp_id> <block>
    I <pc_hex> <n_txns>
    T <pc_hex> <address_hex> <size> <R|W>
    ...

``W`` starts a warp, ``I`` records one dynamic instruction (PC and its
coalescing degree), ``T`` one transaction.  ``I`` lines are optional — when
absent, each transaction is treated as its own instruction instance.

Files written by :func:`save_warp_traces` end with a ``# sha256 <digest>``
trailer over everything before it; :func:`load_warp_traces` verifies it
when present (older files without the trailer still load), raising
:class:`~repro.core.integrity.CorruptArtifactError` on a mismatch — a
truncated or bit-flipped trace must fail loudly, not feed the profiler
silently-wrong statistics.

Paths ending ``.npz`` use the binary columnar container instead
(:mod:`repro.memsim.arrays`, ``gmap-trace-npz`` schema): one NumPy column
per field with a checksummed JSON header, loadable with ``mmap=True`` so
repeated sweeps stop re-parsing text.  The binary path needs NumPy; the
text path never does.
"""

from __future__ import annotations

import gzip
from pathlib import Path
from typing import List, Union

from repro.core.backend import import_numpy
from repro.core.integrity import CorruptArtifactError, text_checksum
from repro.gpu.executor import WarpTrace

PathLike = Union[str, Path]

_MAGIC = "# gmap-trace v1"
_CHECKSUM_PREFIX = "# sha256 "


def save_warp_traces(traces: List[WarpTrace], path: PathLike) -> None:
    """Write warp traces to a trace file.

    The format follows the suffix: ``.npz`` → binary columnar container,
    ``.gz`` → gzipped text, anything else → plain text.
    """
    path = Path(path)
    if path.suffix == ".npz":
        import_numpy(f"{path}: the .npz binary trace format")
        from repro.memsim import arrays

        arrays.save_columns(
            path, arrays.pack_warp_traces(traces), arrays.FORMAT_WARP
        )
        return
    lines = [_MAGIC]
    for trace in traces:
        lines.append(f"W {trace.warp_id} {trace.block}")
        for pc, n_txns in trace.instructions:
            lines.append(f"I {pc:#x} {n_txns}")
        for pc, address, size, is_store in trace.transactions:
            rw = "W" if is_store else "R"
            lines.append(f"T {pc:#x} {address:#x} {size} {rw}")
    body = "\n".join(lines) + "\n"
    payload = body + f"{_CHECKSUM_PREFIX}{text_checksum(body)}\n"
    if path.suffix == ".gz":
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        path.write_text(payload, encoding="utf-8")


def load_warp_traces(path: PathLike, mmap: bool = False) -> List[WarpTrace]:
    """Read a trace file written by :func:`save_warp_traces`.

    ``mmap`` applies to ``.npz`` containers only: columns are memory-mapped
    out of the zip instead of copied (full-byte checksum verification is
    skipped in that mode — the schema/header checks still run).
    """
    path = Path(path)
    if path.suffix == ".npz":
        import_numpy(f"{path}: the .npz binary trace format")
        from repro.memsim import arrays

        columns, _ = arrays.load_columns(
            path, arrays.FORMAT_WARP, mmap=mmap
        )
        return arrays.unpack_warp_traces(columns)
    if path.suffix == ".gz":
        with gzip.open(path, "rt", encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    if not lines or lines[0].strip() != _MAGIC:
        raise ValueError(f"{path}: not a gmap-trace v1 file")
    _verify_trace_checksum(path, lines)
    traces: List[WarpTrace] = []
    current: WarpTrace | None = None
    for lineno, line in enumerate(lines[1:], start=2):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        kind = parts[0]
        try:
            if kind == "W":
                current = WarpTrace(warp_id=int(parts[1]), block=int(parts[2]))
                traces.append(current)
            elif kind == "I":
                if current is None:
                    raise ValueError("I record before any W record")
                current.instructions.append((int(parts[1], 16), int(parts[2])))
            elif kind == "T":
                if current is None:
                    raise ValueError("T record before any W record")
                pc = int(parts[1], 16)
                address = int(parts[2], 16)
                size = int(parts[3])
                is_store = 1 if parts[4] == "W" else 0
                current.transactions.append((pc, address, size, is_store))
            else:
                raise ValueError(f"unknown record kind {kind!r}")
        except (IndexError, ValueError) as exc:
            raise ValueError(f"{path}:{lineno}: malformed record: {line!r}") from exc
    for trace in traces:
        if not trace.instructions:
            trace.instructions = [
                (pc, 1) for pc, *_ in trace.transactions
            ]
    return traces


def _verify_trace_checksum(path: Path, lines: List[str]) -> None:
    """Check the ``# sha256`` trailer, if the file carries one."""
    trailer = None
    for index in range(len(lines) - 1, 0, -1):
        if lines[index].startswith(_CHECKSUM_PREFIX):
            trailer = index
            break
        if lines[index].strip():
            return  # data after the last comment: legacy file, no trailer
    if trailer is None:
        return
    stored = lines[trailer][len(_CHECKSUM_PREFIX):].strip()
    body = "\n".join(lines[:trailer]) + "\n"
    if text_checksum(body) != stored:
        raise CorruptArtifactError(
            f"{path}: trace checksum mismatch — file is truncated or "
            f"corrupted; re-export it from its source"
        )
