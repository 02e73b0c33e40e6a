"""Importer for per-thread memory traces from external tools.

Instrumented simulators (GPGPU-sim plugins, binary instrumentation like
NVBit, emulators) commonly dump one memory access per line, tagged with the
issuing thread.  This module ingests that shape and runs it through the
reproduction's own Fermi front end (warp grouping, lockstep divergence
masking, coalescing), producing the per-warp streams the profiler consumes —
so G-MAP can clone a *real* application's trace, not just the bundled
synthetic models.

Format (``gmap-ttrace v1``)::

    # gmap-ttrace v1 grid=8 block=256
    <tid> <pc_hex> <address_hex> <size> <R|W>
    ...

* ``grid=``/``block=`` in the header give the launch geometry (x dimension;
  multi-dimensional launches are linearised by the producer);
* lines may appear in any order; per-thread order is preserved as given;
* ``<tid> SYNC`` records a barrier for that thread.

Files written by :func:`save_thread_traces` end with a ``# sha256``
trailer verified at load (files without it — e.g. from external producers
— still load), raising
:class:`~repro.core.integrity.CorruptArtifactError` on a mismatch.

Paths ending ``.npz`` use the binary columnar container instead
(:mod:`repro.memsim.arrays`, ``gmap-ttrace-npz`` schema) with the launch
geometry in its JSON header; the loader can memory-map the columns, so
feeding a large externally-collected trace into the front end stops being
a per-record parse.  Binary paths need NumPy; text paths never do.
"""

from __future__ import annotations

import gzip
import re
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.core.backend import import_numpy, resolve_backend
from repro.core.coalescing import CoalescingModel
from repro.core.integrity import CorruptArtifactError, text_checksum
from repro.gpu.executor import WarpTrace, build_warp_traces
from repro.gpu.hierarchy import LaunchConfig
from repro.gpu.instructions import AccessTuple, pack, sync_marker

PathLike = Union[str, Path]

_MAGIC = re.compile(r"^# gmap-ttrace v1 grid=(\d+) block=(\d+)\s*$")
_CHECKSUM_PREFIX = "# sha256 "


def save_thread_traces(
    thread_traces: List[List[AccessTuple]],
    launch: LaunchConfig,
    path: PathLike,
) -> None:
    """Write per-thread traces; ``.npz`` paths use the binary container."""
    path = Path(path)
    if path.suffix == ".npz":
        import_numpy(f"{path}: the .npz binary trace format")
        from repro.memsim import arrays

        arrays.save_columns(
            path,
            arrays.pack_thread_traces(thread_traces),
            arrays.FORMAT_THREAD,
            extra_meta={
                "grid": launch.grid_dim.x,
                "block": launch.block_dim.x,
            },
        )
        return
    lines = [f"# gmap-ttrace v1 grid={launch.grid_dim.x} "
             f"block={launch.block_dim.x}"]
    for tid, trace in enumerate(thread_traces):
        for pc, address, size, is_store in trace:
            if pc < 0:
                lines.append(f"{tid} SYNC")
            else:
                rw = "W" if is_store else "R"
                lines.append(f"{tid} {pc:#x} {address:#x} {size} {rw}")
    body = "\n".join(lines) + "\n"
    payload = body + f"{_CHECKSUM_PREFIX}{text_checksum(body)}\n"
    path = Path(path)
    if path.suffix == ".gz":
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        path.write_text(payload, encoding="utf-8")


def _load_thread_columns(path: Path, mmap: bool) -> Tuple[Dict, LaunchConfig]:
    """``(columns, launch)`` of a ``.npz`` thread container."""
    import_numpy(f"{path}: the .npz binary trace format")
    from repro.memsim import arrays

    columns, meta = arrays.load_columns(path, arrays.FORMAT_THREAD, mmap=mmap)
    try:
        launch = LaunchConfig(
            grid_dim=int(meta["grid"]), block_dim=int(meta["block"])
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptArtifactError(
            f"{path}: container header lacks a valid launch geometry"
        ) from exc
    threads = len(columns["thread_start"]) - 1
    if threads != launch.total_threads:
        raise CorruptArtifactError(
            f"{path}: container holds {threads} threads, header "
            f"launch implies {launch.total_threads}"
        )
    return columns, launch


def load_thread_traces(
    path: PathLike, mmap: bool = False
) -> Tuple[List[List[AccessTuple]], LaunchConfig]:
    """Read a per-thread trace file; returns (per-thread traces, launch).

    ``mmap`` applies to ``.npz`` containers only (columns are memory-mapped
    and the full-byte checksum is skipped; schema checks still run).
    """
    path = Path(path)
    if path.suffix == ".npz":
        from repro.memsim import arrays

        columns, launch = _load_thread_columns(path, mmap)
        return arrays.unpack_thread_traces(columns), launch
    if path.suffix == ".gz":
        with gzip.open(path, "rt", encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    if not lines:
        raise ValueError(f"{path}: empty file")
    header = _MAGIC.match(lines[0])
    if not header:
        raise ValueError(
            f"{path}: not a gmap-ttrace v1 file (missing/garbled header)"
        )
    launch = LaunchConfig(grid_dim=int(header.group(1)),
                          block_dim=int(header.group(2)))
    _verify_checksum(path, lines)
    traces: Dict[int, List[AccessTuple]] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        try:
            tid = int(parts[0])
            if not 0 <= tid < launch.total_threads:
                raise ValueError(f"tid {tid} outside the launch")
            if parts[1] == "SYNC":
                traces.setdefault(tid, []).append(sync_marker())
                continue
            pc = int(parts[1], 16)
            address = int(parts[2], 16)
            size = int(parts[3])
            is_store = parts[4] == "W"
            traces.setdefault(tid, []).append(pack(pc, address, size, is_store))
        except (IndexError, ValueError) as exc:
            raise ValueError(
                f"{path}:{lineno}: malformed record: {line!r}"
            ) from exc
    return (
        [traces.get(tid, []) for tid in range(launch.total_threads)],
        launch,
    )


def _verify_checksum(path: Path, lines: List[str]) -> None:
    """Check the ``# sha256`` trailer, if the file carries one."""
    trailer = None
    for index in range(len(lines) - 1, 0, -1):
        if lines[index].startswith(_CHECKSUM_PREFIX):
            trailer = index
            break
        if lines[index].strip():
            return  # data after the last comment: external file, no trailer
    if trailer is None:
        return
    stored = lines[trailer][len(_CHECKSUM_PREFIX):].strip()
    body = "\n".join(lines[:trailer]) + "\n"
    if text_checksum(body) != stored:
        raise CorruptArtifactError(
            f"{path}: thread-trace checksum mismatch — file is truncated "
            f"or corrupted; re-export it from its source"
        )


def warp_traces_from_thread_file(
    path: PathLike,
    segment_size: int = 128,
    backend: Optional[str] = None,
    mmap: bool = False,
) -> Tuple[List[WarpTrace], LaunchConfig]:
    """Load a per-thread trace file and run it through the Fermi front end.

    ``backend`` selects the front-end implementation
    (:mod:`repro.core.backend`): the ``numpy`` backend coalesces
    divergence-free warps with one vectorized pass per warp and falls back
    to the scalar lockstep walk elsewhere — output is bit-identical.  A
    ``.npz`` container whose threads all hold the same number of records
    reaches it as one ``(threads, records, 4)`` array, never as tuples.
    """
    path = Path(path)
    coalescer = CoalescingModel(segment_size)
    if resolve_backend(backend) != "numpy":
        thread_traces, launch = load_thread_traces(path, mmap=mmap)
        return build_warp_traces(launch, thread_traces, coalescer), launch
    from repro.core.vectorized import build_warp_traces_fast
    from repro.memsim import arrays

    if path.suffix == ".npz":
        columns, launch = _load_thread_columns(path, mmap)
        threads = arrays.uniform_thread_array(columns)
        if threads is None:
            threads = arrays.unpack_thread_traces(columns)
    else:
        threads, launch = load_thread_traces(path)
    return build_warp_traces_fast(launch, threads, coalescer), launch
