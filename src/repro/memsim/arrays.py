"""Columnar array views of trace artifacts (the binary ``.npz`` format).

Text trace files (``gmap-trace v1`` / ``gmap-ttrace v1``) cost one Python
string parse per record — the dominant cold-start cost once the compute
kernels are vectorized.  This module defines the binary columnar layout
both :mod:`repro.io.trace_io` and :mod:`repro.io.thread_trace_io` dispatch
to for ``.npz`` paths:

* one NumPy column per field (``txn_pc``, ``txn_address``, ``txn_store``,
  …) plus CSR-style ``*_start`` offset columns delimiting each warp's or
  thread's slice;
* a ``_meta`` member (UTF-8 JSON in a ``uint8`` array) carrying the format
  name, schema version, the declared dtype of every column, a SHA-256
  checksum over the column bytes, and format-specific extras (launch
  geometry, profile payloads);
* members are stored uncompressed, so :func:`load_columns` can memory-map
  them straight out of the zip container — loading a trace costs a handful
  of page faults instead of a per-record parse loop.

Integrity mirrors the text formats: the checksum is verified on load
(:class:`~repro.core.integrity.CorruptArtifactError` on mismatch); with
``mmap=True`` only the header/schema is validated eagerly and callers opt
out of the full-byte verification they would otherwise get.
"""

from __future__ import annotations

import hashlib
import json
import zipfile
from pathlib import Path
from typing import BinaryIO, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.integrity import CorruptArtifactError
from repro.core.store import atomic_write
from repro.gpu.executor import WarpTrace
from repro.gpu.instructions import AccessTuple

PathLike = Union[str, Path]

#: Binary trace container schema.  Bump on any layout change; loaders
#: reject versions they do not understand instead of misreading columns.
TRACE_SCHEMA_VERSION = 1

#: ``format`` tag of a warp-trace container (coalesced transactions).
FORMAT_WARP = "gmap-trace-npz"
#: ``format`` tag of a per-thread trace container (pre-coalescing).
FORMAT_THREAD = "gmap-ttrace-npz"
#: ``format`` tag of a cached pipeline artifact (profile + assignments).
FORMAT_PIPELINE = "gmap-pipeline-npz"

#: Zip member holding the JSON header.
META_MEMBER = "_meta"

#: Upper bound on the ``_meta`` header, checked against the zip directory's
#: *declared* size before any byte of the member is read.  A legitimate
#: header is a few KiB of JSON; a multi-megabyte one is a corrupt or hostile
#: container, and loading it eagerly would let a small file commandeer an
#: unbounded allocation.
MAX_META_BYTES = 1 << 20

#: Declared dtypes of the warp-trace columns (``<prefix>`` stripped).
WARP_COLUMNS: Dict[str, str] = {
    "warp_id": "<i8",
    "warp_block": "<i8",
    "warp_active": "<i8",
    "txn_start": "<i8",
    "instr_start": "<i8",
    "txn_pc": "<i8",
    "txn_address": "<i8",
    "txn_size": "<i4",
    "txn_store": "|i1",
    "instr_pc": "<i8",
    "instr_ntxns": "<i4",
}

#: Declared dtypes of the per-thread trace columns.
THREAD_COLUMNS: Dict[str, str] = {
    "thread_start": "<i8",
    "acc_pc": "<i8",
    "acc_address": "<i8",
    "acc_size": "<i4",
    "acc_store": "|i1",
}


def columns_checksum(arrays: Dict[str, np.ndarray]) -> str:
    """SHA-256 over all column bytes, in sorted column-name order."""
    digest = hashlib.sha256()
    for name in sorted(arrays):
        digest.update(name.encode("utf-8"))
        digest.update(np.ascontiguousarray(arrays[name]).tobytes())
    return digest.hexdigest()


# --------------------------------------------------------------------------
# Warp traces <-> columns


def pack_warp_traces(
    traces: Sequence[WarpTrace], prefix: str = ""
) -> Dict[str, np.ndarray]:
    """Flatten warp traces into the columnar layout.

    ``prefix`` namespaces the columns (the pipeline cache stores an
    original and a proxy trace set side by side in one container).
    """
    n = len(traces)
    txn_start = np.zeros(n + 1, dtype=np.int64)
    instr_start = np.zeros(n + 1, dtype=np.int64)
    for i, trace in enumerate(traces):
        txn_start[i + 1] = txn_start[i] + len(trace.transactions)
        instr_start[i + 1] = instr_start[i] + len(trace.instructions)
    total_txn = int(txn_start[-1])
    total_instr = int(instr_start[-1])
    txn_pc = np.empty(total_txn, dtype=np.int64)
    txn_address = np.empty(total_txn, dtype=np.int64)
    txn_size = np.empty(total_txn, dtype=np.int32)
    txn_store = np.empty(total_txn, dtype=np.int8)
    instr_pc = np.empty(total_instr, dtype=np.int64)
    instr_ntxns = np.empty(total_instr, dtype=np.int32)
    for i, trace in enumerate(traces):
        lo = int(txn_start[i])
        if trace.transactions:
            block = np.asarray(trace.transactions, dtype=np.int64)
            hi = lo + len(block)
            txn_pc[lo:hi] = block[:, 0]
            txn_address[lo:hi] = block[:, 1]
            txn_size[lo:hi] = block[:, 2]
            txn_store[lo:hi] = block[:, 3]
        lo = int(instr_start[i])
        if trace.instructions:
            block = np.asarray(trace.instructions, dtype=np.int64)
            hi = lo + len(block)
            instr_pc[lo:hi] = block[:, 0]
            instr_ntxns[lo:hi] = block[:, 1]
    columns = {
        "warp_id": np.array([t.warp_id for t in traces], dtype=np.int64),
        "warp_block": np.array([t.block for t in traces], dtype=np.int64),
        "warp_active": np.array(
            [t.active_lanes for t in traces], dtype=np.int64
        ),
        "txn_start": txn_start,
        "instr_start": instr_start,
        "txn_pc": txn_pc,
        "txn_address": txn_address,
        "txn_size": txn_size,
        "txn_store": txn_store,
        "instr_pc": instr_pc,
        "instr_ntxns": instr_ntxns,
    }
    return {prefix + name: arr for name, arr in columns.items()}


def unpack_warp_traces(
    arrays: Dict[str, np.ndarray], prefix: str = ""
) -> List[WarpTrace]:
    """Rebuild :class:`WarpTrace` objects from the columnar layout."""
    def col(name: str) -> np.ndarray:
        return arrays[prefix + name]

    txn_rows = list(
        zip(
            col("txn_pc").tolist(),
            col("txn_address").tolist(),
            col("txn_size").tolist(),
            col("txn_store").tolist(),
        )
    )
    instr_rows = list(
        zip(col("instr_pc").tolist(), col("instr_ntxns").tolist())
    )
    txn_start = col("txn_start").tolist()
    instr_start = col("instr_start").tolist()
    traces = []
    for i, (warp_id, block, active) in enumerate(
        zip(
            col("warp_id").tolist(),
            col("warp_block").tolist(),
            col("warp_active").tolist(),
        )
    ):
        traces.append(
            WarpTrace(
                warp_id=warp_id,
                block=block,
                transactions=txn_rows[txn_start[i]:txn_start[i + 1]],
                instructions=instr_rows[instr_start[i]:instr_start[i + 1]],
                active_lanes=active,
            )
        )
    return traces


# --------------------------------------------------------------------------
# Core assignments <-> columns


def pack_assignments(assignments, prefix: str = "") -> Dict[str, np.ndarray]:
    """Flatten per-core warp queues (``CoreAssignment`` list) into columns.

    Wave structure is preserved exactly — ``wave_counts[c]`` waves per core,
    ``wave_sizes`` warps per wave (empty waves included) — with the flat
    trace list ordered core → wave → warp and packed via
    :func:`pack_warp_traces` under the same prefix.
    """
    flat: List[WarpTrace] = []
    wave_sizes: List[int] = []
    wave_counts = np.empty(len(assignments), dtype=np.int64)
    core_id = np.empty(len(assignments), dtype=np.int64)
    for i, assignment in enumerate(assignments):
        core_id[i] = assignment.core_id
        wave_counts[i] = len(assignment.waves)
        for wave in assignment.waves:
            wave_sizes.append(len(wave))
            flat.extend(wave)
    columns = pack_warp_traces(flat, prefix)
    columns[prefix + "core_id"] = core_id
    columns[prefix + "wave_counts"] = wave_counts
    columns[prefix + "wave_sizes"] = np.asarray(wave_sizes, dtype=np.int64)
    return columns


def unpack_assignments(arrays: Dict[str, np.ndarray], prefix: str = ""):
    """Rebuild ``CoreAssignment`` objects packed by :func:`pack_assignments`."""
    from repro.gpu.executor import CoreAssignment

    flat = unpack_warp_traces(arrays, prefix)
    wave_sizes = arrays[prefix + "wave_sizes"].tolist()
    assignments = []
    cursor = 0
    wave_cursor = 0
    for core_id, n_waves in zip(
        arrays[prefix + "core_id"].tolist(),
        arrays[prefix + "wave_counts"].tolist(),
    ):
        waves = []
        for size in wave_sizes[wave_cursor:wave_cursor + n_waves]:
            waves.append(flat[cursor:cursor + size])
            cursor += size
        wave_cursor += n_waves
        assignments.append(CoreAssignment(core_id=core_id, waves=waves))
    return assignments


# --------------------------------------------------------------------------
# Per-thread traces <-> columns


def pack_thread_traces(
    thread_traces: Sequence[Sequence[AccessTuple]],
) -> Dict[str, np.ndarray]:
    """Flatten per-thread access streams (barriers keep their ``pc < 0``)."""
    n = len(thread_traces)
    start = np.zeros(n + 1, dtype=np.int64)
    for i, trace in enumerate(thread_traces):
        start[i + 1] = start[i] + len(trace)
    total = int(start[-1])
    pc = np.empty(total, dtype=np.int64)
    address = np.empty(total, dtype=np.int64)
    size = np.empty(total, dtype=np.int32)
    store = np.empty(total, dtype=np.int8)
    for i, trace in enumerate(thread_traces):
        if not trace:
            continue
        lo = int(start[i])
        block = np.asarray(trace, dtype=np.int64)
        hi = lo + len(block)
        pc[lo:hi] = block[:, 0]
        address[lo:hi] = block[:, 1]
        size[lo:hi] = block[:, 2]
        store[lo:hi] = block[:, 3]
    return {
        "thread_start": start,
        "acc_pc": pc,
        "acc_address": address,
        "acc_size": size,
        "acc_store": store,
    }


#: The per-access thread columns, in ``AccessTuple`` field order.
_ACCESS_COLUMNS = ("acc_pc", "acc_address", "acc_size", "acc_store")


def unpack_thread_traces(
    arrays: Dict[str, np.ndarray],
) -> List[List[AccessTuple]]:
    """Rebuild per-thread access streams from the columnar layout."""
    rows = list(
        zip(
            arrays["acc_pc"].tolist(),
            arrays["acc_address"].tolist(),
            arrays["acc_size"].tolist(),
            arrays["acc_store"].tolist(),
        )
    )
    start = arrays["thread_start"].tolist()
    return [rows[start[i]:start[i + 1]] for i in range(len(start) - 1)]


def uniform_thread_array(
    arrays: Dict[str, np.ndarray],
) -> Optional[np.ndarray]:
    """The thread columns as one ``(threads, records, 4)`` int64 array.

    ``None`` when threads hold different numbers of records (or the
    offsets do not tile the columns): such a container is only read as
    per-thread streams (:func:`unpack_thread_traces`).
    """
    start = arrays["thread_start"]
    counts = np.diff(start)
    if (
        len(counts) == 0
        or (counts != counts[0]).any()
        or start[0] != 0
        or any(len(arrays[name]) != start[-1] for name in _ACCESS_COLUMNS)
    ):
        return None
    threads = np.empty((len(counts), int(counts[0]), 4), dtype=np.int64)
    for column, name in enumerate(_ACCESS_COLUMNS):
        threads[:, :, column] = arrays[name].reshape(threads.shape[:2])
    return threads


# --------------------------------------------------------------------------
# Container I/O


def write_columns(
    fh: BinaryIO,
    arrays: Dict[str, np.ndarray],
    fmt: str,
    extra_meta: Optional[Dict] = None,
) -> None:
    """Write a columnar container to an open binary file.

    Members are stored uncompressed (``np.savez``) so loads can memory-map
    straight out of the zip; the ``_meta`` member records the schema and a
    checksum over every column.
    """
    meta = dict(extra_meta or {})
    meta.update(
        {
            "format": fmt,
            "schema_version": TRACE_SCHEMA_VERSION,
            "columns": {
                name: arrays[name].dtype.str for name in sorted(arrays)
            },
            "checksum": columns_checksum(arrays),
        }
    )
    meta_blob = np.frombuffer(
        json.dumps(meta, sort_keys=True).encode("utf-8"), dtype=np.uint8
    )
    np.savez(fh, **{META_MEMBER: meta_blob}, **arrays)


def save_columns(
    path: PathLike,
    arrays: Dict[str, np.ndarray],
    fmt: str,
    extra_meta: Optional[Dict] = None,
) -> None:
    """Write a columnar container atomically (:func:`write_columns` into
    :func:`~repro.core.store.atomic_write`)."""
    atomic_write(
        Path(path), lambda fh: write_columns(fh, arrays, fmt, extra_meta)
    )


def _read_meta(raw: np.ndarray, path: Path) -> Dict:
    if raw.nbytes > MAX_META_BYTES:
        raise CorruptArtifactError(
            f"{path}: _meta header is {raw.nbytes} bytes "
            f"(limit {MAX_META_BYTES}); container is corrupt or hostile"
        )
    try:
        meta = json.loads(bytes(raw.astype(np.uint8).tobytes()).decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise CorruptArtifactError(
            f"{path}: unreadable _meta header in binary trace container"
        ) from exc
    if not isinstance(meta, dict):
        raise CorruptArtifactError(
            f"{path}: _meta header is not a JSON object"
        )
    return meta


def _check_meta_bounded(path: Path) -> None:
    """Reject an oversized ``_meta`` from the zip directory alone.

    Reads only the central directory — the member's declared size — so a
    corrupt or adversarial container is refused before any allocation of
    its claimed payload.  Structural zip problems surface as
    :class:`CorruptArtifactError` here rather than deeper in ``np.load``.
    """
    try:
        with zipfile.ZipFile(path) as zf:
            for info in zf.infolist():
                name = info.filename
                if name.endswith(".npy"):
                    name = name[:-4]
                if name == META_MEMBER and info.file_size > MAX_META_BYTES + 1024:
                    # +1KiB slop for the .npy array header around the JSON.
                    raise CorruptArtifactError(
                        f"{path}: _meta member declares {info.file_size} "
                        f"bytes (limit {MAX_META_BYTES}); refusing to load"
                    )
    except zipfile.BadZipFile as exc:
        raise CorruptArtifactError(
            f"{path}: cannot read binary trace container: {exc}"
        ) from exc


def _mmap_npz_members(path: Path) -> Optional[Dict[str, np.ndarray]]:
    """Memory-map every ``.npy`` member of an uncompressed ``.npz``.

    ``np.savez`` writes members with ``ZIP_STORED``, so each array's bytes
    sit contiguously in the file at a computable offset: local zip header,
    then the ``.npy`` header, then raw data.  Returns ``None`` whenever the
    layout is not mappable (compressed members, Fortran order, unexpected
    header version) — the caller falls back to a buffered ``np.load``.
    """
    arrays: Dict[str, np.ndarray] = {}
    try:
        with zipfile.ZipFile(path) as zf:
            infos = zf.infolist()
            if any(i.compress_type != zipfile.ZIP_STORED for i in infos):
                return None
            with open(path, "rb") as fh:
                for info in infos:
                    fh.seek(info.header_offset)
                    local = fh.read(30)
                    if len(local) < 30 or local[:4] != b"PK\x03\x04":
                        return None
                    name_len = int.from_bytes(local[26:28], "little")
                    extra_len = int.from_bytes(local[28:30], "little")
                    fh.seek(info.header_offset + 30 + name_len + extra_len)
                    version = np.lib.format.read_magic(fh)
                    if version == (1, 0):
                        shape, fortran, dtype = (
                            np.lib.format.read_array_header_1_0(fh)
                        )
                    elif version == (2, 0):
                        shape, fortran, dtype = (
                            np.lib.format.read_array_header_2_0(fh)
                        )
                    else:
                        return None
                    if fortran or dtype.hasobject:
                        return None
                    name = info.filename
                    if name.endswith(".npy"):
                        name = name[:-4]
                    arrays[name] = np.memmap(
                        path,
                        dtype=dtype,
                        mode="r",
                        offset=fh.tell(),
                        shape=shape,
                    )
    except (OSError, ValueError, zipfile.BadZipFile):
        return None
    return arrays


def load_columns(
    path: PathLike,
    expect_format: str,
    mmap: bool = False,
    verify: bool = True,
) -> Tuple[Dict[str, np.ndarray], Dict]:
    """Load a columnar container; returns ``(columns, meta)``.

    Always validates the format tag, schema version, and that every
    declared column is present with its declared dtype.  ``verify=True``
    additionally recomputes the byte checksum (skipped under ``mmap`` —
    touching every page would defeat the mapping; corrupt data still fails
    the schema checks or the text checksum of derived artifacts).  An
    ``OSError`` opening or reading the file propagates unchanged: it says
    nothing about the content.
    """
    path = Path(path)
    _check_meta_bounded(path)
    arrays: Optional[Dict[str, np.ndarray]] = None
    if mmap:
        arrays = _mmap_npz_members(path)
    if arrays is None:
        mmap = False
        try:
            with np.load(path) as payload:
                arrays = {name: payload[name] for name in payload.files}
        except (ValueError, zipfile.BadZipFile) as exc:
            raise CorruptArtifactError(
                f"{path}: cannot read binary trace container: {exc}"
            ) from exc
    if META_MEMBER not in arrays:
        raise CorruptArtifactError(
            f"{path}: binary trace container has no _meta header"
        )
    meta = _read_meta(arrays.pop(META_MEMBER), path)
    fmt = meta.get("format")
    if fmt != expect_format:
        raise ValueError(
            f"{path}: expected a {expect_format!r} container, got {fmt!r}"
        )
    version = meta.get("schema_version")
    if version != TRACE_SCHEMA_VERSION:
        raise ValueError(
            f"{path}: unsupported schema_version {version!r} "
            f"(this build reads {TRACE_SCHEMA_VERSION})"
        )
    declared = meta.get("columns")
    if not isinstance(declared, dict):
        raise CorruptArtifactError(f"{path}: _meta lacks a columns table")
    for name, dtype_str in declared.items():
        member = arrays.get(name)
        if member is None:
            raise CorruptArtifactError(
                f"{path}: declared column {name!r} is missing"
            )
        if member.dtype.str != dtype_str:
            raise CorruptArtifactError(
                f"{path}: column {name!r} has dtype {member.dtype.str}, "
                f"header declares {dtype_str}"
            )
    if verify and not mmap:
        stored = meta.get("checksum")
        if stored != columns_checksum(arrays):
            raise CorruptArtifactError(
                f"{path}: binary trace checksum mismatch — file is "
                f"truncated or corrupted; re-export it from its source"
            )
    return arrays, meta
