"""Crash-safe lease files: the one exclusion protocol of the codebase.

Both of G-MAP's exclusion points hold a lease: single flight on the
shared result cache (:mod:`repro.core.shared_cache`) and the run
journal's writer lock (:class:`repro.validation.resilience.RunJournal`).
The protocol is built only from primitives that are atomic on local and
NFS-like network filesystems alike — ``link(2)`` and ``rename(2)`` — so a
fleet whose replicas share a directory over such a filesystem gets the
same guarantees as one host.

A lease is a small JSON file next to the protected resource:

``{"schema": 1, "owner": ..., "acquired_at": t, "expires_at": t + ttl}``

The protocol has three moves, each reducible to one atomic syscall:

* **Acquire** — write the lease body to a unique temp file, then
  ``os.link(tmp, path)``.  Hard-link creation fails with ``EEXIST`` if the
  path exists, so exactly one contender wins; losers re-poll.
* **Renew (heartbeat)** — the holder periodically rewrites the lease with a
  pushed-out ``expires_at`` via ``os.replace``.  A healthy builder's lease
  therefore never expires mid-build, however long the build runs.
* **Takeover** — a contender that reads a *dead* lease first moves the
  corpse aside with ``os.rename(path, path + ".expired...")``.  Rename of
  a vanishing source is atomic: exactly one contender's rename succeeds,
  the rest see ``ENOENT`` and go back to polling.  The winner then
  acquires normally.  A contender whose last read predates a fresh lease
  can still rename that lease aside; it then acquires in its place, so
  the path never ends up holding a lease its owner has given up on.

A lease is dead once it has expired, or at once when its owner id has the
:func:`default_owner_id` form ``host:pid:n``, names this host, and
``os.kill(pid, 0)`` raises ``ProcessLookupError`` — the same-host crash
handoff a kernel ``flock`` gives for free.  The rule has limits, and each
falls back to waiting out the TTL: a live pid (or one answering
``EPERM``), an owner on another host, an owner id of any other form, and
a zombie its parent has not reaped yet.  Two hosts that share a hostname
across PID namespaces are not told apart: one may then take over the
other's lease while its holder lives, and that holder finds out on its
next renewal.

A holder whose lease was taken over discovers it on the next ``renew()``
(:class:`LeaseLostError`) and must abandon the protected work — by then the
new owner has started, and the old holder's result may no longer be wanted.

Wall-clock time (``time.time``) is deliberate: ``expires_at`` must be
comparable across hosts, which rules out per-process monotonic clocks.  The
clock is injected (default-parameter reference, never called at import
time) so tests can drive expiry without sleeping.
"""

from __future__ import annotations

import itertools
import json
import os
import socket
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Union

PathLike = Union[str, Path]

LEASE_SCHEMA = 1

#: ``try_acquire`` outcomes (truthy on success, None on failure).
ACQUIRED_FRESH = "fresh"
ACQUIRED_TAKEOVER = "takeover"

_OWNER_SEQ = itertools.count()


def default_owner_id() -> str:
    """A process-unique owner id: ``host:pid:n`` (n = per-process counter)."""
    return f"{socket.gethostname()}:{os.getpid()}:{next(_OWNER_SEQ)}"


def owner_is_dead(owner: Any) -> bool:
    """True iff ``owner`` names a process on this host that no longer exists.

    Only a :func:`default_owner_id` of this host whose pid answers
    ``ProcessLookupError`` counts; anything else (a live or unsignalable
    pid, another host, an opaque id) is not known to be dead.
    """
    parts = owner.rsplit(":", 2) if isinstance(owner, str) else ()
    if (len(parts) != 3 or parts[0] != socket.gethostname()
            or not parts[1].isdecimal() or not parts[2].isdecimal()):
        return False
    try:
        os.kill(int(parts[1]), 0)
    except ProcessLookupError:
        return True
    except (OSError, OverflowError):
        pass  # EPERM: alive under another user
    return False


class LeaseLostError(RuntimeError):
    """The holder's lease expired and another owner took it over."""


class LeaseFile:
    """One contender's handle on a lease path.

    Not thread-safe: each acquiring thread makes its own instance (owner
    ids are process-unique by construction, so two threads of one process
    contend with each other exactly like two processes do).
    """

    def __init__(
        self,
        path: PathLike,
        *,
        owner_id: Optional[str] = None,
        ttl: float = 10.0,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.path = Path(path)
        self.owner_id = owner_id if owner_id is not None else default_owner_id()
        self.ttl = float(ttl)
        self._clock = clock
        self._held = False

    # -- inspection ---------------------------------------------------------

    def read(self) -> Optional[Dict[str, Any]]:
        """The current lease body, or None when absent.

        A present-but-unreadable lease (torn write, garbage) is reported as
        an already-expired body so contenders can take it over rather than
        wedge forever behind a corpse nobody owns.
        """
        try:
            raw = self.path.read_text(encoding="utf-8")
        except (FileNotFoundError, NotADirectoryError):
            return None
        except OSError:
            return {"schema": LEASE_SCHEMA, "owner": "?", "expires_at": 0.0}
        try:
            body = json.loads(raw)
        except ValueError:
            return {"schema": LEASE_SCHEMA, "owner": "?", "expires_at": 0.0}
        if not isinstance(body, dict):
            return {"schema": LEASE_SCHEMA, "owner": "?", "expires_at": 0.0}
        return body

    @property
    def held(self) -> bool:
        return self._held

    # -- protocol moves -----------------------------------------------------

    def try_acquire(self) -> Optional[str]:
        """One non-blocking acquisition attempt.

        Returns :data:`ACQUIRED_FRESH` or :data:`ACQUIRED_TAKEOVER` on
        success, None when the lease is validly held by someone else (or a
        takeover/creation race was lost — the caller just polls again).
        Raises ``OSError`` when the lease cannot be created at all.
        """
        took_over = False
        current = self.read()
        if current is not None:
            expires_at = current.get("expires_at")
            owner = current.get("owner")
            live = isinstance(expires_at, (int, float)) and self._clock() < expires_at
            if live and owner != self.owner_id and not owner_is_dead(owner):
                return None
            # Dead (or our own stale corpse): move it aside.  Exactly
            # one contender's rename lands; ENOENT means someone else won
            # or the holder released — either way the path may now be free.
            if not self._bury(current):
                return None
            took_over = owner != self.owner_id
        if not self._create():
            return None
        confirmed = self.read()
        if confirmed is None or confirmed.get("owner") != self.owner_id:
            # A contender working from a stale read buried our fresh lease
            # between the link and now; treat the attempt as lost.
            self._held = False
            return None
        self._held = True
        return ACQUIRED_TAKEOVER if took_over else ACQUIRED_FRESH

    def renew(self) -> None:
        """Push ``expires_at`` out by one TTL; the holder's heartbeat.

        Raises :class:`LeaseLostError` when the lease no longer names this
        owner (taken over after expiry, or released out from under us).
        """
        current = self.read()
        if current is None or current.get("owner") != self.owner_id:
            self._held = False
            raise LeaseLostError(
                f"lease {self.path.name} no longer owned by {self.owner_id}"
            )
        self._write_replace(self._body())

    def release(self) -> None:
        """Drop the lease if still ours; best-effort, never raises."""
        self._held = False
        current = self.read()
        if current is None or current.get("owner") != self.owner_id:
            return
        try:
            self.path.unlink()
        except OSError:
            pass

    # -- internals ----------------------------------------------------------

    def _body(self) -> Dict[str, Any]:
        now = self._clock()
        return {
            "schema": LEASE_SCHEMA,
            "owner": self.owner_id,
            "acquired_at": now,
            "expires_at": now + self.ttl,
        }

    def _tmp_path(self) -> Path:
        # pid + per-process counter, not owner_id: callers may pass any
        # opaque owner string, and the tmp name only needs process
        # uniqueness on this host.
        return self.path.with_name(
            f"{self.path.name}.tmp.{os.getpid()}.{next(_OWNER_SEQ)}"
        )

    def _bury(self, corpse: Dict[str, Any]) -> bool:
        grave = self.path.with_name(
            f"{self.path.name}.expired.{next(_OWNER_SEQ)}.{os.getpid()}"
        )
        # Re-read just before the rename: a faster contender may already
        # have buried the corpse and re-created a *live* lease, which we
        # must not rename away on the strength of a stale read.
        current = self.read()
        if current is None:
            return True  # already buried or released; path may be free now
        if (current.get("owner"), current.get("expires_at")) != (
                corpse.get("owner"), corpse.get("expires_at")):
            return False
        try:
            os.rename(self.path, grave)
        except FileNotFoundError:
            return True  # already buried or released; path may be free now
        except OSError:
            return False
        # A stale contender can still land here on a lease created after
        # its re-read.  That lease is not linked back: its owner may
        # already have read the path, found it empty or foreign and given
        # up, and a restored lease would then block the key for a whole
        # TTL with nobody building.  We create our own lease instead; an
        # owner that had already confirmed finds out on its next renew.
        try:
            grave.unlink()
        except OSError:
            pass
        return True

    def _create(self) -> bool:
        # Only losing the link race is a plain miss.  Any other OSError
        # (the lock directory is a file, read-only or full) propagates:
        # polling cannot fix it, and the caller must know.
        tmp = self._tmp_path()
        tmp.parent.mkdir(parents=True, exist_ok=True)
        try:
            tmp.write_text(
                json.dumps(self._body(), sort_keys=True), encoding="utf-8"
            )
            os.link(tmp, self.path)
        except FileExistsError:
            return False
        finally:
            try:
                tmp.unlink()
            except OSError:
                pass
        return True

    def _write_replace(self, body: Dict[str, Any]) -> None:
        tmp = self._tmp_path()
        tmp.write_text(json.dumps(body, sort_keys=True), encoding="utf-8")
        os.replace(tmp, self.path)


class LeaseHeartbeat:
    """Background renewal of a held lease every ``ttl / 3`` seconds.

    Started by every lease holder (a shared-cache builder, a journal
    writer): however long the holder works, a live holder's lease never
    expires.  If a renewal discovers the lease was taken over (the holder
    stalled past its TTL and a peer moved on), :attr:`lost` is set and the
    heartbeat stops — a journal writer checks it before every write.
    """

    def __init__(self, lease: LeaseFile, *, interval: Optional[float] = None) -> None:
        self._lease = lease
        self._interval = interval if interval is not None else max(lease.ttl / 3.0, 0.05)
        self._stop = threading.Event()
        self.lost = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name=f"lease-heartbeat-{lease.path.name}", daemon=True
        )

    def start(self) -> "LeaseHeartbeat":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=max(self._interval * 4.0, 1.0))

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            try:
                self._lease.renew()
            except LeaseLostError:
                self.lost.set()
                return
            except OSError:
                # Transient IO error: keep the thread alive and retry on
                # the next beat; the TTL gives us slack for a few misses.
                continue
