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
  a per-key build lock for the duration of the build; concurrent
  submitters (same replica or siblings) block on the lock and then read
  the stored entry instead of re-executing.  Two lock backends exist:

  - ``fcntl`` — a kernel ``flock``, released implicitly when the builder
    dies, so a SIGKILLed builder hands off to the next waiter with no
    janitor process.  Correct on local filesystems; unreliable on
    NFS-like network mounts where ``flock`` lies.
  - ``lease`` — the :mod:`repro.core.lease` protocol (owner id + TTL +
    heartbeat renewal + atomic rename takeover), built entirely from
    ``link``/``rename``, which *are* atomic on network filesystems.  A
    live builder's heartbeat keeps its lease fresh however long the
    build runs; a dead builder's lease expires after one TTL and the
    next waiter takes it over (counted as ``shared_cache_lease_takeover``
    in the integrity ledger).

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

``fcntl`` is POSIX-only; where it is missing the default backend is
``lease``, so coalescing survives.  Only when *no* lock backend can engage
at all (lock-directory IO failure, or ``fcntl`` explicitly requested on a
platform without it) does the tier degrade to a plain shared cache — still
content-addressed and checksummed, just without cross-process coalescing —
and that degradation is announced once per process through the
``shared_cache_unlocked`` integrity event rather than happening silently.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple, Union

try:  # pragma: no cover - exercised only where fcntl is missing
    import fcntl
    _HAVE_FCNTL = True
except ImportError:  # pragma: no cover
    fcntl = None  # type: ignore[assignment]
    _HAVE_FCNTL = False

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
#: Build ran uncoalesced because no cross-process lock could be engaged.
EVENT_UNLOCKED = "shared_cache_unlocked"
#: A lease-backed waiter took over a dead builder's expired lease.
EVENT_LEASE_TAKEOVER = "shared_cache_lease_takeover"

#: Lock backends for single-flight coalescing.
LOCK_FCNTL = "fcntl"
LOCK_LEASE = "lease"
LOCK_BACKENDS = (LOCK_FCNTL, LOCK_LEASE)

#: One ``shared_cache_unlocked`` event per process, however many builds
#: degrade — the ledger flags the condition, counters elsewhere size it.
_unlocked_reported = threading.Event()


def _note_unlocked() -> None:
    if not _unlocked_reported.is_set():
        _unlocked_reported.set()
        integrity_events.record(EVENT_UNLOCKED)


def resolve_lock_backend(requested: Optional[str] = None) -> str:
    """The effective lock backend: explicit choice, else fcntl-when-present.

    Platforms without ``fcntl`` default to the lease protocol so single
    flight still works; asking for ``fcntl`` there is honoured literally
    and degrades (with the ``shared_cache_unlocked`` event) at lock time.
    """
    if requested:
        if requested not in LOCK_BACKENDS:
            raise ValueError(
                f"unknown shared-cache lock backend {requested!r}; "
                f"expected one of {LOCK_BACKENDS}"
            )
        return requested
    return LOCK_FCNTL if _HAVE_FCNTL else LOCK_LEASE


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
    (:attr:`content`); the single-flight lock is an ``fcntl`` flock or a
    lease (see ``lock_backend``).  Layout under ``root``::

        results/<k[:2]>/<key>.json.gz    checksummed gzipped-JSON entries
        locks/<k[:2]>/<key>.lock         per-key fcntl locks (empty files)
        locks/<k[:2]>/<key>.lease        per-key lease files (lease backend)
        quarantine/                      poisoned entries, moved aside

    ``lock_backend`` picks the single-flight mechanism (``fcntl`` or
    ``lease``; default: fcntl where the module exists, lease elsewhere).
    ``lease_ttl`` is how long a *silent* builder holds a lease before
    waiters may take over — live builders heartbeat, so it bounds crash
    handoff latency, not build duration.

    ``clock`` is injectable for deterministic tests (monotonic seconds).
    """

    def __init__(
        self,
        root: PathLike,
        *,
        lock_timeout: float = 300.0,
        poll_interval: float = 0.05,
        lock_backend: Optional[str] = None,
        lease_ttl: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.root = Path(root)
        self.content = ContentStore(
            self.root, SHARED_CACHE_SCHEMA,
            on_quarantine=lambda: integrity_events.record(EVENT_POISONED))
        self.lock_timeout = lock_timeout
        self.poll_interval = poll_interval
        self.lock_backend = resolve_lock_backend(lock_backend)
        self.lease_ttl = lease_ttl
        self._clock = clock
        self._pause = threading.Event()  # never set: interruptible waits

    # -- paths --------------------------------------------------------------

    def entry_path(self, key: str) -> Path:
        return self.content.path("results", key)

    def _lock_path(self, key: str) -> Path:
        return self.root / "locks" / key[:2] / f"{key}.lock"

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
            # Could not lock (timeout or no fcntl): build uncoalesced.
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

    def _acquire(self, key: str):
        """A held lock handle, or None when no lock could be engaged.

        Non-blocking attempts in a bounded polling loop rather than one
        blocking wait: the loop observes ``lock_timeout``, so a wedged
        builder degrades this caller to an uncoalesced build instead of
        hanging it forever (its own job deadline is the only other
        backstop).  ``None`` for any reason *other* than lock contention
        (missing fcntl, lock-directory IO failure) additionally fires the
        once-per-process ``shared_cache_unlocked`` event — coalescing is
        off and operators should know.
        """
        if self.lock_backend == LOCK_LEASE:
            return self._acquire_lease(key)
        return self._acquire_fcntl(key)

    def _acquire_fcntl(self, key: str):
        if not _HAVE_FCNTL:
            _note_unlocked()
            return None
        path = self._lock_path(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            handle = open(path, "a+b")
        except OSError:
            _note_unlocked()
            return None
        deadline = self._clock() + self.lock_timeout
        while True:
            try:
                fcntl.flock(handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
                return handle
            except OSError:
                if self._clock() >= deadline:
                    handle.close()
                    return None
                self._pause.wait(self.poll_interval)

    def _acquire_lease(self, key: str) -> Optional[_HeldLease]:
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
    def _release(handle) -> None:
        if isinstance(handle, _HeldLease):
            handle.heartbeat.stop()
            handle.lease.release()
            return
        try:
            fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
        except OSError:
            pass
        finally:
            handle.close()
