"""Fuzz/property tests for the ``.npz`` columnar trace loader.

The loader is a parsing boundary: artifacts cross machines and caches, so
a truncated, bit-flipped, or adversarial container must surface as a
*typed* error (:class:`~repro.core.integrity.CorruptArtifactError` or a
``ValueError`` for schema mismatches) — never a segfault, a hang, an
unbounded allocation, or a random exception leaking from the zip/numpy
internals.

Mutations are seeded (no flaky fuzzing): every corpus is reproducible
from the printed seed.
"""

from __future__ import annotations

import json
import random
import zipfile

import pytest

np = pytest.importorskip("numpy", exc_type=ImportError)

from repro.core.integrity import CorruptArtifactError  # noqa: E402
from repro.io.trace_io import load_warp_traces, save_warp_traces  # noqa: E402
from repro.memsim.arrays import (  # noqa: E402
    FORMAT_THREAD,
    FORMAT_WARP,
    MAX_META_BYTES,
    META_MEMBER,
    load_columns,
)

SEED = 20170618
#: The only exception types a malformed container may raise.
TYPED_ERRORS = (CorruptArtifactError, ValueError)


@pytest.fixture(scope="module")
def container(tmp_path_factory):
    """A small, valid warp-trace container plus its pristine bytes."""
    from repro.gpu.executor import kernel_warp_traces
    from repro.workloads import suite

    path = tmp_path_factory.mktemp("npz-fuzz") / "fuzz.trace.npz"
    kernel = suite.make("vectoradd", scale="tiny")
    save_warp_traces(kernel_warp_traces(kernel), path)
    return path, path.read_bytes()


def _mutated(tmp_path, blob: bytes, index: int) -> "Path":
    target = tmp_path / f"mutant-{index}.trace.npz"
    target.write_bytes(blob)
    return target


class TestTruncation:
    def test_every_truncation_point_is_typed(self, container, tmp_path):
        _, pristine = container
        rng = random.Random(SEED)
        cuts = sorted(
            {rng.randrange(0, len(pristine)) for _ in range(24)}
            | {0, 1, len(pristine) - 1})
        for i, cut in enumerate(cuts):
            target = _mutated(tmp_path, pristine[:cut], i)
            with pytest.raises(TYPED_ERRORS):
                load_warp_traces(target)

    def test_empty_and_garbage_files_are_typed(self, tmp_path):
        rng = random.Random(SEED + 1)
        empty = tmp_path / "empty.trace.npz"
        empty.write_bytes(b"")
        with pytest.raises(TYPED_ERRORS):
            load_warp_traces(empty)
        garbage = tmp_path / "garbage.trace.npz"
        garbage.write_bytes(bytes(rng.randrange(256) for _ in range(4096)))
        with pytest.raises(TYPED_ERRORS):
            load_warp_traces(garbage)


class TestBitFlips:
    def test_flipped_bytes_load_identically_or_fail_typed(
            self, container, tmp_path):
        """A single flipped byte either leaves the payload intact (flip
        landed in zip padding) or raises a typed error — never anything
        else, and silent data corruption must be caught by the checksum."""
        path, pristine = container
        original = load_warp_traces(path)
        rng = random.Random(SEED + 2)
        outcomes = {"typed": 0, "intact": 0}
        for i in range(40):
            blob = bytearray(pristine)
            index = rng.randrange(len(blob))
            blob[index] ^= (1 << rng.randrange(8))
            target = _mutated(tmp_path, bytes(blob), i)
            try:
                reloaded = load_warp_traces(target)
            except TYPED_ERRORS:
                outcomes["typed"] += 1
                continue
            outcomes["intact"] += 1
            assert len(reloaded) == len(original)
            for a, b in zip(reloaded, original):
                assert a.transactions == b.transactions
        # The corpus must actually exercise the reject path.
        assert outcomes["typed"] > 0, outcomes

    def test_data_region_flip_fails_checksum(self, container, tmp_path):
        """Flips inside a column's payload must be caught, not returned."""
        path, pristine = container
        with zipfile.ZipFile(path) as zf:
            info = next(i for i in zf.infolist()
                        if i.filename == "txn_address.npy")
        blob = bytearray(pristine)
        # Flip a byte well inside the member's data region (past the
        # ~128-byte local header + npy header).
        blob[info.header_offset + 256] ^= 0xFF
        target = _mutated(tmp_path, bytes(blob), 999)
        with pytest.raises(TYPED_ERRORS):
            load_warp_traces(target)


class TestSchemaAttacks:
    def _rewrite_meta(self, path, target, mutate):
        """Copy a container, passing its parsed ``_meta`` through
        ``mutate`` (arrays and checksum untouched)."""
        with np.load(path) as payload:
            arrays = {name: payload[name] for name in payload.files}
        raw = arrays.pop(META_MEMBER)
        meta = json.loads(bytes(raw.astype(np.uint8).tobytes()))
        mutate(meta)
        blob = np.frombuffer(
            json.dumps(meta, sort_keys=True).encode("utf-8"), dtype=np.uint8)
        with open(target, "wb") as fh:
            np.savez(fh, **{META_MEMBER: blob}, **arrays)
        return target

    def test_wrong_dtype_table_is_typed(self, container, tmp_path):
        path, _ = container
        target = self._rewrite_meta(
            path, tmp_path / "dtype.trace.npz",
            lambda meta: meta["columns"].__setitem__("txn_address", "<f2"))
        with pytest.raises(CorruptArtifactError, match="dtype"):
            load_warp_traces(target)

    def test_missing_declared_column_is_typed(self, container, tmp_path):
        path, _ = container
        target = self._rewrite_meta(
            path, tmp_path / "ghost.trace.npz",
            lambda meta: meta["columns"].__setitem__("ghost_col", "<i8"))
        with pytest.raises(CorruptArtifactError, match="missing"):
            load_warp_traces(target)

    def test_wrong_format_tag_is_typed(self, container):
        path, _ = container
        with pytest.raises(ValueError, match="container"):
            load_columns(path, FORMAT_THREAD)

    def test_wrong_schema_version_is_typed(self, container, tmp_path):
        path, _ = container
        target = self._rewrite_meta(
            path, tmp_path / "vers.trace.npz",
            lambda meta: meta.__setitem__("schema_version", 9999))
        with pytest.raises(ValueError, match="schema_version"):
            load_warp_traces(target)

    def test_non_object_meta_is_typed(self, container, tmp_path):
        path, _ = container
        with np.load(path) as payload:
            arrays = {name: payload[name] for name in payload.files}
        arrays.pop(META_MEMBER)
        blob = np.frombuffer(b'"just a string"', dtype=np.uint8)
        target = tmp_path / "strmeta.trace.npz"
        with open(target, "wb") as fh:
            np.savez(fh, **{META_MEMBER: blob}, **arrays)
        with pytest.raises(CorruptArtifactError):
            load_warp_traces(target)


class TestBoundedRead:
    def test_oversized_meta_is_rejected_from_the_directory(
            self, container, tmp_path):
        """A multi-megabyte ``_meta`` is refused via the zip central
        directory's *declared* size — before the member is read."""
        path, _ = container
        with np.load(path) as payload:
            arrays = {name: payload[name] for name in payload.files}
        arrays.pop(META_MEMBER)
        huge = {"pad": "x" * (MAX_META_BYTES + 4096)}
        blob = np.frombuffer(json.dumps(huge).encode("utf-8"),
                             dtype=np.uint8)
        target = tmp_path / "huge.trace.npz"
        with open(target, "wb") as fh:
            np.savez(fh, **{META_MEMBER: blob}, **arrays)
        with pytest.raises(CorruptArtifactError, match="declares"):
            load_warp_traces(target)

    def test_valid_container_roundtrips(self, container):
        """Control: the pristine container still loads and verifies."""
        path, _ = container
        arrays, meta = load_columns(path, FORMAT_WARP, verify=True)
        assert meta["format"] == FORMAT_WARP
        assert "txn_address" in arrays
