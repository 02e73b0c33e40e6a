"""Shared cross-replica result cache with single-flight coalescing.

This is the fleet-tier promotion of the content-addressed artifact cache
(:mod:`repro.core.cache`): where that cache memoizes *pipeline internals*
(profiles, traces, result pairs) for one process tree, this one memoizes
whole **job results** keyed by the job's pipeline key — the content hash of
``(kind, params, backend)`` — and is shared by every replica of a
``gmap serve`` fleet through a common directory.

Two fleet problems are solved here:

* **request coalescing** — identical pipeline keys in flight anywhere in
  the fleet collapse to one worker execution.  The builder of a key holds
  a per-key build lease (:mod:`repro.core.lease`: owner id + TTL +
  heartbeat renewal + atomic rename takeover, built entirely from
  ``link``/``rename``, which are atomic on network filesystems too) for
  the duration of the build; concurrent submitters (same replica or
  siblings) poll the lease and then read the stored entry instead of
  re-executing.  A live builder's heartbeat keeps its lease fresh however
  long the build runs.  A builder SIGKILLed on this host is seen dead at
  once and the next waiter takes its lease over; a silent builder on
  another host is taken over after one TTL.  Either takeover counts as
  ``shared_cache_lease_takeover`` in the integrity ledger.

* **poison containment** — entries go through the one content store
  (:mod:`repro.core.store`), so each embeds a SHA-256 checksum and a
  poisoned/truncated/bit-rotted entry is *quarantined* (moved to
  ``quarantine/`` for post-mortem) and rebuilt from source, never served.
  The chaos harness drives this path deterministically through the
  ``GMAP_FAULT_INJECT`` corrupt hook.

Every observation is recorded in the process-wide
:data:`~repro.core.integrity.integrity_events` ledger under
``shared_cache_hit`` / ``shared_cache_built`` / ``shared_cache_coalesced``
/ ``shared_cache_poisoned``, which is how job outcomes (and the thundering
-herd chaos scenario) count executions without any new protocol surface.

When the lease cannot engage at all (lock-directory IO failure), the tier
degrades to a plain shared cache — still content-addressed and
checksummed, just without cross-process coalescing — and that degradation
is announced once per process through the ``shared_cache_unlocked``
integrity event rather than happening silently.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple, Union

from repro.core.integrity import integrity_events
from repro.core.lease import ACQUIRED_TAKEOVER, LeaseFile, LeaseHeartbeat
from repro.core.store import ContentStore

PathLike = Union[str, Path]

#: Bump when the entry layout changes; stale entries then miss.
SHARED_CACHE_SCHEMA = 1

#: Entry statuses reported by :meth:`SharedResultCache.single_flight`.
STATUS_HIT = "hit"                # fast path: entry already on disk
STATUS_BUILT = "built"            # this caller executed the build
STATUS_COALESCED = "coalesced"    # waited on the builder, read its entry
STATUS_UNCACHED = "uncached"      # built, result not eligible for storage

#: Integrity-ledger event kind per status (plus the poison counter).
EVENT_BY_STATUS = {
    STATUS_HIT: "shared_cache_hit",
    STATUS_BUILT: "shared_cache_built",
    STATUS_COALESCED: "shared_cache_coalesced",
    STATUS_UNCACHED: "shared_cache_uncached",
}
EVENT_POISONED = "shared_cache_poisoned"
#: Build ran uncoalesced because the build lease could not be engaged.
EVENT_UNLOCKED = "shared_cache_unlocked"
#: A waiter took over a dead builder's lease.
EVENT_LEASE_TAKEOVER = "shared_cache_lease_takeover"

#: One ``shared_cache_unlocked`` event per process, however many builds
#: degrade — the ledger flags the condition, counters elsewhere size it.
_unlocked_reported = threading.Event()


def _note_unlocked() -> None:
    if not _unlocked_reported.is_set():
        _unlocked_reported.set()
        integrity_events.record(EVENT_UNLOCKED)


class _HeldLease:
    """A held lease plus the heartbeat keeping it fresh during the build."""

    __slots__ = ("lease", "heartbeat")

    def __init__(self, lease: LeaseFile, heartbeat: LeaseHeartbeat) -> None:
        self.lease = lease
        self.heartbeat = heartbeat


def job_key(kind: str, params: Dict[str, Any], backend: Optional[str]) -> str:
    """The pipeline key of a service job: content hash of its inputs.

    Two submissions with the same kind, params, and effective backend are
    the same unit of work fleet-wide — same key, one execution.  ``fault``
    directives are *not* part of the key (they alter execution, not the
    artifact a clean run would produce).
    """
    blob = json.dumps(
        {"schema": SHARED_CACHE_SCHEMA, "kind": kind,
         "params": params, "backend": backend or ""},
        sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class SharedResultCache:
    """Content-addressed job-result store with single-flight coalescing.

    Entries live in a :class:`~repro.core.store.ContentStore`
    (:attr:`content`); the single-flight lock is a per-key lease.  Layout
    under ``root``::

        results/<k[:2]>/<key>.json.gz    checksummed gzipped-JSON entries
        locks/<k[:2]>/<key>.lease        per-key build leases
        quarantine/                      poisoned entries, moved aside

    ``lease_ttl`` is how long a *silent* builder on another host holds a
    lease before waiters may take over — live builders heartbeat, and a
    dead builder on this host is taken over at once, so it bounds
    cross-host crash handoff latency, not build duration.

    ``clock`` is injectable for deterministic tests (monotonic seconds).
    """

    def __init__(
        self,
        root: PathLike,
        *,
        lock_timeout: float = 300.0,
        poll_interval: float = 0.05,
        lease_ttl: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.root = Path(root)
        self.content = ContentStore(
            self.root, SHARED_CACHE_SCHEMA,
            on_quarantine=lambda: integrity_events.record(EVENT_POISONED))
        self.lock_timeout = lock_timeout
        self.poll_interval = poll_interval
        self.lease_ttl = lease_ttl
        self._clock = clock
        self._pause = threading.Event()  # never set: interruptible waits

    # -- paths --------------------------------------------------------------

    def entry_path(self, key: str) -> Path:
        return self.content.path("results", key)

    def _lease_path(self, key: str) -> Path:
        return self.root / "locks" / key[:2] / f"{key}.lease"

    # -- entry IO -------------------------------------------------------------

    def load(self, key: str) -> Optional[Dict[str, Any]]:
        """The stored entry body, or None on a miss.

        Reads follow the :class:`~repro.core.store.ContentStore` rule: a
        poisoned entry (checksum mismatch, truncation, malformed JSON) is
        quarantined and rebuilt by the caller, never served; a *transient*
        read failure (fd exhaustion, permissions, a flaky network
        filesystem) is only a miss, so valid shared entries survive the
        box coming under pressure.
        """
        body = self.content.load(
            self.entry_path(key), lambda payload: payload.get("body"))
        return body if isinstance(body, dict) else None

    def store(self, key: str, body: Dict[str, Any]) -> bool:
        """Atomically persist an entry; returns False on IO failure.

        A read-only or full shared directory must never fail the job — the
        result is still returned to the caller, just not shared.
        """
        path = self.entry_path(key)
        if not self.content.save(path, {"key": key, "body": body}):
            return False
        self._maybe_inject_poison(path)
        return True

    @staticmethod
    def _maybe_inject_poison(path: Path) -> None:
        """Chaos hook: corrupt the just-written entry when a fault is armed.

        Reuses the PR 2 ``GMAP_FAULT_INJECT`` corrupt directive so the
        quarantine-and-rebuild path is exercised deterministically by the
        chaos harness; a no-op unless a fault is armed in this process.
        """
        from repro.validation.resilience import maybe_corrupt_artifact

        maybe_corrupt_artifact(path, 0, 0)

    # -- single flight -------------------------------------------------------

    def single_flight(
        self,
        key: str,
        build: Callable[[], Dict[str, Any]],
        *,
        cacheable: Callable[[Dict[str, Any]], bool] = lambda body: True,
    ) -> Tuple[Dict[str, Any], str]:
        """One fleet-wide execution per key: returns ``(body, status)``.

        ``build`` runs at most once across every process sharing ``root``
        for concurrently in-flight calls with the same key.  ``cacheable``
        vetoes storage (degraded results are returned but never shared).
        Statuses: :data:`STATUS_HIT`, :data:`STATUS_BUILT`,
        :data:`STATUS_COALESCED`, :data:`STATUS_UNCACHED`.
        """
        body = self.load(key)
        if body is not None:
            self._note(STATUS_HIT)
            return body, STATUS_HIT
        handle = self._acquire(key)
        if handle is None:
            # Could not lock (timeout or lock-dir IO failure): build
            # uncoalesced.
            return self._build_and_store(key, build, cacheable)
        try:
            # Another process may have built the entry while we waited on
            # (or raced for) the lock — serve its artifact, don't rebuild.
            body = self.load(key)
            if body is not None:
                self._note(STATUS_COALESCED)
                return body, STATUS_COALESCED
            result = self._build_and_store(key, build, cacheable)
        finally:
            self._release(handle)
        return result

    def _build_and_store(
        self,
        key: str,
        build: Callable[[], Dict[str, Any]],
        cacheable: Callable[[Dict[str, Any]], bool],
    ) -> Tuple[Dict[str, Any], str]:
        body = build()
        if isinstance(body, dict) and cacheable(body):
            self.store(key, body)
            self._note(STATUS_BUILT)
            return body, STATUS_BUILT
        self._note(STATUS_UNCACHED)
        return body, STATUS_UNCACHED

    @staticmethod
    def _note(status: str) -> None:
        integrity_events.record(EVENT_BY_STATUS[status])

    # -- locking -------------------------------------------------------------

    def _acquire(self, key: str) -> Optional[_HeldLease]:
        """A held build lease, or None when none could be engaged.

        Non-blocking attempts in a bounded polling loop rather than one
        blocking wait: the loop observes ``lock_timeout``, so a wedged
        builder degrades this caller to an uncoalesced build instead of
        hanging it forever (its own job deadline is the only other
        backstop).  ``None`` for any reason *other* than lock contention
        (lock-directory IO failure) additionally fires the once-per-process
        ``shared_cache_unlocked`` event — coalescing is off and operators
        should know.
        """
        lease = LeaseFile(self._lease_path(key), ttl=self.lease_ttl)
        deadline = self._clock() + self.lock_timeout
        failures = 0
        while True:
            try:
                got = lease.try_acquire()
            except OSError:
                # Lock-directory IO trouble (read-only/full filesystem):
                # a few attempts, then build uncoalesced — and say so.
                failures += 1
                if failures >= 3:
                    _note_unlocked()
                    return None
                got = None
            if got is not None:
                if got == ACQUIRED_TAKEOVER:
                    integrity_events.record(EVENT_LEASE_TAKEOVER)
                return _HeldLease(lease, LeaseHeartbeat(lease).start())
            if self._clock() >= deadline:
                return None
            self._pause.wait(self.poll_interval)

    @staticmethod
    def _release(handle: _HeldLease) -> None:
        handle.heartbeat.stop()
        handle.lease.release()
