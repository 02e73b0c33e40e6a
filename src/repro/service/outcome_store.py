"""Durable router state: a checksummed append-log of job outcomes.

PR 7's router kept its job table — payloads, placements, terminal
outcomes — in :class:`RouterCore`'s in-memory dict, which made the router
process the fleet's last single point of failure: SIGKILL it and every
terminal outcome not yet read by a client was gone, and every in-flight
job's placement was forgotten.  This module moves that table to disk.

Layout under ``<state_dir>/router``::

    outcomes.snap          compacted snapshot (one checksummed JSON doc)
    log/<writer>.log       per-writer append logs of checksummed records

Records are JSON lines, each embedding a SHA-256 checksum over its own
content (:func:`repro.core.integrity.payload_checksum`); a torn tail line
after a crash — or a bit-flipped line on a bad disk — fails verification
and is skipped (counted, never trusted).  Two record types exist:

``{"type": "assign", "job_id", "payload", "replica_id"}``
    the router placed (or re-placed) a job on a replica;
``{"type": "terminal", "job_id", "outcome"}``
    the router observed a terminal outcome (completed/failed/rejected).

**Why per-writer logs**: a second router replica may share the same
``--state-dir``.  Separate append files mean concurrent writers never
interleave into one file, so no record is ever torn by a peer.  ``load()``
folds the snapshot plus *every* writer's log, so a freshly started router
recovers jobs written by its predecessor (or a live peer).

**Compaction** folds snapshot + logs into a new snapshot (written to a
temp file, published with ``os.replace``) once the live log lines exceed
``compact_threshold``.  It runs under a :mod:`repro.core.lease` lease so
two routers never compact concurrently, and it only deletes *stale*
foreign logs (no append for ``stale_log_seconds``) — a live peer's log is
left alone, since the peer may append between our read and our unlink.

Merge semantics are deliberately simple: assignments are latest-wins
(a reassignment supersedes the original placement); terminal outcomes are
first-wins and immutable (a terminal outcome never changes, so any later
disagreement is noise to be ignored, not state to be merged).
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, TextIO, Tuple, Union

from repro.core.integrity import integrity_events, payload_checksum, verify_payload
from repro.core.lease import LeaseFile, default_owner_id

PathLike = Union[str, Path]

OUTCOME_SCHEMA = 1

#: Integrity-ledger event for a log line that failed its checksum.
EVENT_CORRUPT_RECORD = "outcome_store_corrupt_record"


class StoredJob:
    """The folded state of one job: its payload, placement, and outcome."""

    __slots__ = ("job_id", "payload", "replica_id", "terminal")

    def __init__(
        self,
        job_id: str,
        payload: Dict[str, Any],
        replica_id: Optional[str] = None,
        terminal: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.job_id = job_id
        self.payload = payload
        self.replica_id = replica_id
        self.terminal = terminal

    def to_record(self) -> Dict[str, Any]:
        return {
            "job_id": self.job_id,
            "payload": self.payload,
            "replica_id": self.replica_id,
            "terminal": self.terminal,
        }

    @classmethod
    def from_record(cls, record: Dict[str, Any]) -> "StoredJob":
        payload = record.get("payload")
        terminal = record.get("terminal")
        replica = record.get("replica_id")
        return cls(
            str(record.get("job_id", "")),
            payload if isinstance(payload, dict) else {},
            replica if isinstance(replica, str) else None,
            terminal if isinstance(terminal, dict) else None,
        )


class OutcomeStore:
    """Append-log + snapshot persistence for the router's job table.

    Thread-safe; one instance per router process.  Appends are O(1) (one
    ``write`` + ``flush`` on an ``O_APPEND`` handle), so recording an
    assignment or outcome sits comfortably on the submit path.
    """

    def __init__(
        self,
        state_dir: PathLike,
        *,
        compact_threshold: int = 4096,
        stale_log_seconds: float = 300.0,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.root = Path(state_dir) / "router"
        self.log_dir = self.root / "log"
        self.snapshot_path = self.root / "outcomes.snap"
        self.compact_threshold = compact_threshold
        self.stale_log_seconds = stale_log_seconds
        # A lease owner id, so a compaction lease left by a SIGKILLed
        # router on this host is taken over at once.
        self.writer_id = default_owner_id()
        self._clock = clock
        self._lock = threading.Lock()
        self._handle: Optional[TextIO] = None
        self._live_lines = 0
        self._jobs: Dict[str, StoredJob] = {}
        self.corrupt_lines = 0
        self.compactions = 0
        self.log_dir.mkdir(parents=True, exist_ok=True)
        self._reload_locked()

    # -- public API ---------------------------------------------------------

    def record_assignment(
        self, job_id: str, payload: Dict[str, Any], replica_id: Optional[str]
    ) -> None:
        """The router placed (or re-placed) ``job_id`` on ``replica_id``."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                job = StoredJob(job_id, payload)
                self._jobs[job_id] = job
            job.payload = payload
            job.replica_id = replica_id
            self._append_locked(
                {"type": "assign", "job_id": job_id,
                 "payload": payload, "replica_id": replica_id}
            )

    def record_terminal(self, job_id: str, outcome: Dict[str, Any]) -> None:
        """The router observed ``job_id``'s terminal outcome (first wins)."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                job = StoredJob(job_id, {})
                self._jobs[job_id] = job
            if job.terminal is not None:
                return
            job.terminal = outcome
            self._append_locked(
                {"type": "terminal", "job_id": job_id, "outcome": outcome}
            )

    def jobs(self) -> Dict[str, StoredJob]:
        """A shallow copy of the folded job table (id -> StoredJob)."""
        with self._lock:
            return dict(self._jobs)

    def lookup(self, job_id: str, *, refresh: bool = False) -> Optional[StoredJob]:
        """One job's folded state; ``refresh`` re-reads disk first.

        Refreshing is how a router serves outcomes recorded by a *peer*
        router sharing the state dir: on an unknown id, re-fold the logs
        once before answering 404.
        """
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None and refresh:
                self._reload_locked()
                job = self._jobs.get(job_id)
            return job

    def compact(self, *, force: bool = False) -> bool:
        """Fold logs into the snapshot when due; True when a fold ran.

        Guarded by a lease so concurrent routers never fold at once; a
        contended lease simply skips this round (the next append retries).
        """
        with self._lock:
            if not force and self._live_lines < self.compact_threshold:
                return False
            return self._compact_locked()

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                try:
                    self._handle.close()
                except OSError:
                    pass
                self._handle = None

    # -- append path --------------------------------------------------------

    def _own_log_path(self) -> Path:
        return self.log_dir / f"{self.writer_id}.log"

    def _append_locked(self, record: Dict[str, Any]) -> None:
        line_doc = {"schema": OUTCOME_SCHEMA, "record": record}
        line_doc["checksum"] = payload_checksum(line_doc)
        line = json.dumps(line_doc, sort_keys=True, separators=(",", ":"))
        try:
            if self._handle is None:
                self._handle = open(self._own_log_path(), "a", encoding="utf-8")
            self._handle.write(line + "\n")
            self._handle.flush()
            os.fsync(self._handle.fileno())
        except (OSError, ValueError):
            # A full/read-only state dir must not fail job routing; the
            # in-memory table still serves this process's lifetime.
            self._handle = None
            return
        self._live_lines += 1
        if self._live_lines >= self.compact_threshold:
            self._compact_locked()

    # -- load / fold --------------------------------------------------------

    def _reload_locked(self) -> None:
        jobs: Dict[str, StoredJob] = {}
        corrupt = 0
        snap = self._read_snapshot()
        if snap is not None:
            for record in snap:
                job = StoredJob.from_record(record)
                if job.job_id:
                    jobs[job.job_id] = job
        lines = 0
        for log_path in self._log_paths():
            applied, bad = self._fold_log(log_path, jobs)
            lines += applied
            corrupt += bad
        if corrupt:
            integrity_events.record(EVENT_CORRUPT_RECORD, corrupt)
        self.corrupt_lines += corrupt
        self._live_lines = lines
        self._jobs = jobs

    def _log_paths(self) -> List[Path]:
        try:
            return sorted(self.log_dir.glob("*.log"))
        except OSError:
            return []

    def _read_snapshot(self) -> Optional[List[Dict[str, Any]]]:
        try:
            doc = json.loads(self.snapshot_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        if (
            not isinstance(doc, dict)
            or doc.get("schema") != OUTCOME_SCHEMA
            or not verify_payload(doc)
        ):
            self.corrupt_lines += 1
            integrity_events.record(EVENT_CORRUPT_RECORD)
            return None
        records = doc.get("jobs")
        return records if isinstance(records, list) else None

    def _fold_log(self, path: Path, jobs: Dict[str, StoredJob]) -> Tuple[int, int]:
        applied = corrupt = 0
        try:
            raw = path.read_text(encoding="utf-8")
        except OSError:
            return 0, 0
        for line in raw.splitlines():
            if not line.strip():
                continue
            try:
                doc = json.loads(line)
            except ValueError:
                corrupt += 1
                continue
            if (
                not isinstance(doc, dict)
                or doc.get("schema") != OUTCOME_SCHEMA
                or not verify_payload(doc)
                or not isinstance(doc.get("record"), dict)
            ):
                corrupt += 1
                continue
            self._apply(doc["record"], jobs)
            applied += 1
        return applied, corrupt

    @staticmethod
    def _apply(record: Dict[str, Any], jobs: Dict[str, StoredJob]) -> None:
        job_id = record.get("job_id")
        if not isinstance(job_id, str) or not job_id:
            return
        job = jobs.get(job_id)
        if job is None:
            job = StoredJob(job_id, {})
            jobs[job_id] = job
        rtype = record.get("type")
        if rtype == "assign":
            payload = record.get("payload")
            if isinstance(payload, dict):
                job.payload = payload
            replica = record.get("replica_id")
            job.replica_id = replica if isinstance(replica, str) else None
        elif rtype == "terminal" and job.terminal is None:
            outcome = record.get("outcome")
            if isinstance(outcome, dict):
                job.terminal = outcome

    # -- compaction ---------------------------------------------------------

    def _compact_locked(self) -> bool:
        lease = LeaseFile(
            self.root / "compact.lease",
            owner_id=self.writer_id,
            ttl=30.0,
            clock=self._clock,
        )
        try:
            if not lease.try_acquire():
                return False
        except OSError:
            return False
        try:
            # Re-fold from disk so a peer's records survive the fold.
            self._reload_locked()
            doc: Dict[str, Any] = {
                "schema": OUTCOME_SCHEMA,
                "jobs": [job.to_record() for job in self._jobs.values()],
            }
            doc["checksum"] = payload_checksum(doc)
            tmp = self.snapshot_path.with_name(
                f"outcomes.snap.tmp.{self.writer_id}"
            )
            try:
                tmp.write_text(
                    json.dumps(doc, sort_keys=True), encoding="utf-8"
                )
                os.replace(tmp, self.snapshot_path)
            except OSError:
                return False
            self._retire_logs_locked()
            self._live_lines = 0
            self.compactions += 1
            return True
        finally:
            lease.release()

    def _retire_logs_locked(self) -> None:
        """Drop folded logs: our own (rotated) plus stale foreign ones."""
        if self._handle is not None:
            try:
                self._handle.close()
            except OSError:
                pass
            self._handle = None
        now = self._clock()
        own = self._own_log_path()
        for log_path in self._log_paths():
            if log_path == own:
                try:
                    log_path.unlink()
                except OSError:
                    pass
                continue
            try:
                mtime = log_path.stat().st_mtime
            except OSError:
                continue
            if now - mtime >= self.stale_log_seconds:
                try:
                    log_path.unlink()
                except OSError:
                    pass
