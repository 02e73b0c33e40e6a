"""One content store: checksummed, atomically written, self-quarantining.

The artifact cache (:mod:`repro.core.cache`), the fleet's shared result
cache (:mod:`repro.core.shared_cache`) and the sweep run journal
(:mod:`repro.validation.resilience`) all memoise derived work on disk, and
all of them read, write and quarantine entries through this module:

* entries are fanned out as ``<root>/<kind>/<key[:2]>/<key>.<ext>`` so
  directories stay small at scale (callers with a fixed layout of their
  own, like the journal's ``chunk-*.json.gz``, pass their own path);
* JSON entries are gzipped and carry the store's ``schema`` plus a SHA-256
  ``checksum`` over their canonical content (:mod:`repro.core.integrity`);
* writes are atomic — a sibling temp file renamed over the target — so a
  crash mid-write never leaves a half entry and concurrent writers of one
  key each publish a whole one;
* every read follows one rule.  A missing file is a miss.  Any other
  ``OSError`` (fd exhaustion, permissions, a flaky network filesystem) is
  a transient miss that leaves the entry in place for the next read.
  Unreadable content, a bad checksum, a wrong schema or a payload its
  decoder rejects is moved to ``<root>/quarantine/`` for post-mortem and
  reported as a miss, so the caller rebuilds instead of serving it.

The store records the ``quarantine`` integrity event (through
:func:`~repro.core.integrity.quarantine_file`); a caller that reports more
(``cache_rebuild``, ``shared_cache_poisoned``) passes ``on_quarantine``.
"""

from __future__ import annotations

import gzip
import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, BinaryIO, Callable, Dict, Optional, TypeVar, Union

from repro.core.integrity import (
    CorruptArtifactError,
    payload_checksum,
    quarantine_file,
    verify_payload,
)

PathLike = Union[str, Path]
T = TypeVar("T")


def atomic_write(path: Path, write: Callable[[BinaryIO], object]) -> None:
    """Publish ``path`` whole or not at all: ``write`` fills a sibling temp
    file, which is then renamed over the target.  Raises ``OSError``."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name,
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _read_json_gz(path: Path) -> Any:
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        return json.load(fh)


@dataclass
class StoreCounters:
    """Per-store outcome counts: ``hits``/``misses``/``stores`` plus
    ``errors`` (transient IO and corrupt entries) and ``quarantined``."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    errors: int = 0
    quarantined: int = 0


class ContentStore:
    """Checksummed entries under ``root`` that carry schema ``schema``.

    Writes never raise for IO trouble (a read-only or full directory must
    not fail the computation whose result is being stored); reads never
    raise at all.  Both outcomes are counted in :attr:`counters`.
    """

    def __init__(
        self,
        root: PathLike,
        schema: int,
        *,
        on_quarantine: Optional[Callable[[], None]] = None,
    ) -> None:
        self.root = Path(root)
        self.schema = schema
        self.counters = StoreCounters()
        self._on_quarantine = on_quarantine

    def path(self, kind: str, key: str, ext: str = "json.gz") -> Path:
        """Fan-out location of entry ``key`` of ``kind``."""
        return self.root / kind / key[:2] / f"{key}.{ext}"

    # -- payload sealing -----------------------------------------------------

    def seal(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """A copy of ``payload`` stamped with the schema and its checksum."""
        sealed = dict(payload, schema=self.schema)
        sealed["checksum"] = payload_checksum(sealed)
        return sealed

    def check(self, payload: Any) -> Dict[str, Any]:
        """``payload`` if it is a sealed entry of this store's schema.

        Raises :class:`CorruptArtifactError` for a non-object, a wrong
        schema or a checksum mismatch.
        """
        if not isinstance(payload, dict):
            raise CorruptArtifactError("entry is not a JSON object")
        if payload.get("schema") != self.schema:
            raise CorruptArtifactError(
                f"entry schema {payload.get('schema')!r}, "
                f"expected {self.schema}")
        if not verify_payload(payload):
            raise CorruptArtifactError("entry checksum mismatch")
        return payload

    # -- entry IO ------------------------------------------------------------

    def read(self, path: Path, decode: Callable[[Path], T]) -> Optional[T]:
        """``decode(path)``, or None on a miss under the store's read rule."""
        try:
            value = decode(path)
        except FileNotFoundError:
            self.counters.misses += 1
            return None
        except Exception as exc:
            # BadGzipFile is an OSError about content, not about IO.
            if (isinstance(exc, OSError)
                    and not isinstance(exc, gzip.BadGzipFile)):
                self.counters.errors += 1
            else:
                self._quarantine(path)
            return None
        self.counters.hits += 1
        return value

    def write(self, path: Path, encode: Callable[[BinaryIO], object]) -> bool:
        """Atomically publish what ``encode`` writes; False on IO failure."""
        try:
            atomic_write(path, encode)
        except OSError:
            self.counters.errors += 1
            return False
        self.counters.stores += 1
        return True

    def load(
        self, path: Path, decode: Callable[[Dict[str, Any]], T]
    ) -> Optional[T]:
        """A gzipped-JSON entry, checked then passed through ``decode``."""
        return self.read(path, lambda p: decode(self.check(_read_json_gz(p))))

    def save(self, path: Path, payload: Dict[str, Any]) -> bool:
        """Seal ``payload`` and publish it as a gzipped-JSON entry."""
        sealed = self.seal(payload)

        def encode(raw: BinaryIO) -> None:
            with gzip.open(raw, "wt", encoding="utf-8") as fh:
                json.dump(sealed, fh)

        return self.write(path, encode)

    def _quarantine(self, path: Path) -> None:
        self.counters.errors += 1
        self.counters.quarantined += 1
        if self._on_quarantine is not None:
            self._on_quarantine()
        quarantine_file(path, self.root / "quarantine")
