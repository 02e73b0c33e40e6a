"""Artifact integrity primitives: checksums and corrupt-file quarantine.

Long sweep campaigns read and write many on-disk artifacts — traces,
profiles, cache entries, run-journal chunks.  On an unreliable fleet machine
any of them can be truncated or bit-flipped, and a silently-wrong artifact
is worse than a missing one.  Every artifact therefore carries a SHA-256
checksum over its canonical content; a reader that finds a mismatch either
raises :class:`CorruptArtifactError` (for user-supplied inputs, which have
no source to rebuild from) or quarantines the file and recomputes (for
derived artifacts such as cache and journal entries).

Quarantined files are *moved*, not deleted, so a corruption incident leaves
evidence for post-mortem inspection.

Every quarantine (and any explicitly recorded integrity incident) is also
counted in the process-wide :data:`integrity_events` ledger.  The counters
are how upper layers *observe* graceful degradation: a sweep or service job
that transparently rebuilt a corrupt artifact still finished, but the event
delta tells the caller the run degraded rather than ran clean (surfaced in
``gmap serve``'s job outcomes and ``/healthz``).
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from pathlib import Path
from typing import Any, Dict, Iterable, Optional, Union

PathLike = Union[str, Path]


class Counters:
    """Thread-safe named counters; the one counter type of the package.

    ``record`` increments under the object's own lock, so callers need no
    lock discipline of their own.  ``keys`` seeds counters at zero, so a
    snapshot lists them before their first increment; other keys appear
    when first recorded.  ``snapshot()`` returns a plain dict copy;
    ``delta(before)`` subtracts an earlier snapshot, which is how a worker
    reports only the incidents *its* job caused.
    """

    def __init__(self, keys: Iterable[str] = ()) -> None:
        self._lock = threading.Lock()
        self._counts: Dict[str, int] = dict.fromkeys(keys, 0)

    def record(self, kind: str, count: int = 1) -> None:
        with self._lock:
            self._counts[kind] = self._counts.get(kind, 0) + count

    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._counts)

    def delta(self, before: Dict[str, int]) -> Dict[str, int]:
        """Counts accrued since ``before`` (zero-delta kinds omitted)."""
        now = self.snapshot()
        return {
            kind: now[kind] - before.get(kind, 0)
            for kind in sorted(now)
            if now[kind] - before.get(kind, 0) > 0
        }


#: The process-wide ledger of integrity incidents (``quarantine``,
#: ``checksum_mismatch``, ...; one per worker process, deltas are shipped
#: back to the supervisor alongside job results).
integrity_events = Counters()


class CorruptArtifactError(ValueError):
    """An on-disk artifact failed its integrity check.

    Raised for inputs that cannot be rebuilt (externally supplied traces and
    profiles); derived artifacts are quarantined and recomputed instead.
    """


def payload_checksum(payload: Dict[str, Any]) -> str:
    """SHA-256 over the canonical (sorted, compact) JSON form of a payload.

    Any ``checksum`` key already present is excluded, so the digest can be
    verified against a payload that embeds its own checksum.
    """
    scrubbed = {k: v for k, v in payload.items() if k not in ("checksum", "_checksum")}
    blob = json.dumps(scrubbed, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def text_checksum(text: str) -> str:
    """SHA-256 over a text artifact's body."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def verify_payload(payload: Dict[str, Any], *, key: str = "checksum") -> bool:
    """True iff the payload's embedded checksum matches its content.

    Payloads without an embedded checksum pass (legacy artifacts predate
    checksumming); a present-but-wrong checksum fails.
    """
    stored = payload.get(key)
    if stored is None:
        return True
    return stored == payload_checksum(payload)


def quarantine_file(path: PathLike, quarantine_dir: PathLike) -> Optional[Path]:
    """Move a corrupt file into ``quarantine_dir``; best-effort, never raises.

    Returns the quarantined path, or None when the move failed (read-only
    filesystem, concurrent removal) — callers treat both outcomes as "the
    bad file is out of the way".
    """
    path = Path(path)
    quarantine_dir = Path(quarantine_dir)
    integrity_events.record("quarantine")
    try:
        quarantine_dir.mkdir(parents=True, exist_ok=True)
        target = quarantine_dir / path.name
        os.replace(path, target)
        return target
    except OSError:
        try:
            path.unlink()
        except OSError:
            pass
        return None
