"""Resilience layer for sweep campaigns: journal, failures, fault injection.

G-MAP validation is a campaign of long, embarrassingly-parallel sweeps; at
fleet scale partial failure is the common case, not the exception.  This
module provides the pieces the sweep engine composes into a crash-tolerant
pipeline:

* :class:`RunJournal` — an on-disk, checksummed, atomically-appended record
  of every completed (kernel, config-chunk) result, so an interrupted
  campaign resumes with ``--resume <run-id>`` instead of restarting;
* :class:`ChunkFailure` — the structured record of a chunk that exhausted
  its retries, classified by the error taxonomy below and surfaced in
  results instead of aborting the campaign;
* :class:`ChunkExecutionError` — worker exceptions wrapped with the failing
  benchmark name, config offset and seed, picklable across the pool;
* a deterministic fault-injection harness (``GMAP_FAULT_INJECT``) that can
  kill, hang, fail or corrupt a chosen chunk so every recovery path is
  exercised in CI.

Error taxonomy
--------------

==================  =====================================================
``timeout``         the chunk exceeded the per-chunk watchdog deadline
``worker_crash``    the worker process died (broken process pool)
``corrupt_artifact``an input artifact failed its integrity check
``simulation_error``the simulation itself raised
``invalid_request`` a user-supplied input was missing or malformed
``rejected``        admission control refused the work (overload/drain)
==================  =====================================================

The last two kinds were added for the ``gmap serve`` service layer
(:mod:`repro.service`), which shares this taxonomy so a failure looks the
same whether it happened in a batch sweep or behind the daemon.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.core.cache import default_cache_dir
from repro.core.integrity import CorruptArtifactError
from repro.core.lease import LeaseFile, LeaseHeartbeat
from repro.core.store import ContentStore, atomic_write

PathLike = Union[str, Path]

#: Bump whenever the journal layout changes; old runs then refuse to resume.
JOURNAL_SCHEMA_VERSION = 1

#: Environment variable overriding the default journal location.
ENV_JOURNAL_DIR = "GMAP_JOURNAL_DIR"

# -- error taxonomy ---------------------------------------------------------

FAILURE_TIMEOUT = "timeout"
FAILURE_WORKER_CRASH = "worker_crash"
FAILURE_CORRUPT_ARTIFACT = "corrupt_artifact"
FAILURE_SIMULATION_ERROR = "simulation_error"
FAILURE_INVALID_REQUEST = "invalid_request"
FAILURE_REJECTED = "rejected"

FAILURE_KINDS = (
    FAILURE_TIMEOUT,
    FAILURE_WORKER_CRASH,
    FAILURE_CORRUPT_ARTIFACT,
    FAILURE_SIMULATION_ERROR,
    FAILURE_INVALID_REQUEST,
    FAILURE_REJECTED,
)


@dataclass
class ChunkFailure:
    """One chunk that failed every retry, kept as data instead of aborting.

    ``kind`` is one of :data:`FAILURE_KINDS`; ``attempts`` counts how many
    executions were tried before quarantining the chunk.
    """

    benchmark: str
    kernel_index: int
    config_offset: int
    num_configs: int
    kind: str
    message: str
    attempts: int
    seed: int

    def to_dict(self) -> dict:
        return {
            "benchmark": self.benchmark,
            "kernel_index": self.kernel_index,
            "config_offset": self.config_offset,
            "num_configs": self.num_configs,
            "kind": self.kind,
            "message": self.message,
            "attempts": self.attempts,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ChunkFailure":
        return cls(**{k: data[k] for k in (
            "benchmark", "kernel_index", "config_offset", "num_configs",
            "kind", "message", "attempts", "seed",
        )})

    def summary(self) -> str:
        return (
            f"{self.benchmark} configs[{self.config_offset}:"
            f"{self.config_offset + self.num_configs}]: {self.kind} "
            f"after {self.attempts} attempt(s) — {self.message}"
        )


class ChunkExecutionError(RuntimeError):
    """A worker exception carrying the chunk context that produced it.

    Unexpected worker exceptions must not escape anonymously: the failing
    benchmark name, config offset and generation seed travel with the error
    (and across the process-pool pickle boundary via ``__reduce__``).
    """

    def __init__(
        self,
        benchmark: str,
        kernel_index: int,
        config_offset: int,
        seed: int,
        cause: str,
        failure_kind: str = FAILURE_SIMULATION_ERROR,
    ) -> None:
        self.benchmark = benchmark
        self.kernel_index = kernel_index
        self.config_offset = config_offset
        self.seed = seed
        self.cause = cause
        self.failure_kind = failure_kind
        super().__init__(
            f"sweep chunk failed: benchmark={benchmark!r} "
            f"kernel_index={kernel_index} config_offset={config_offset} "
            f"seed={seed}: {cause}"
        )

    def __reduce__(self):
        return (type(self), (
            self.benchmark, self.kernel_index, self.config_offset,
            self.seed, self.cause, self.failure_kind,
        ))


# -- fault injection --------------------------------------------------------

#: ``kind:kernel_index:config_offset[:mode[:seconds]]`` — e.g.
#: ``crash:0:0``, ``hang:0:0:always:20``, ``raise:1:4:once``.  Either
#: index may be ``*`` (match any), and several directives can be joined
#: with ``;`` — extensions used by the ``gmap serve`` chaos harness.
ENV_FAULT_INJECT = "GMAP_FAULT_INJECT"

#: Sentinel file used by ``once`` faults so exactly one process fires.
ENV_FAULT_STATE = "GMAP_FAULT_STATE"

#: Faults that fire inside the worker, before the chunk simulates.
WORKER_FAULT_KINDS = ("crash", "hang", "raise")

#: Faults the parent applies to the chunk's journal entry after writing it.
ARTIFACT_FAULT_KINDS = ("corrupt",)


#: Wildcard index: the directive matches any kernel index / config offset.
FAULT_ANY = -1


@dataclass(frozen=True)
class FaultSpec:
    """A parsed ``GMAP_FAULT_INJECT`` directive.

    ``kernel_index`` / ``config_offset`` equal to :data:`FAULT_ANY` (spelled
    ``*`` in the directive) match every chunk or job.
    """

    kind: str
    kernel_index: int
    config_offset: int
    always: bool = False
    hang_seconds: float = 30.0

    def matches(self, kernel_index: int, config_offset: int) -> bool:
        return (self.kernel_index in (FAULT_ANY, kernel_index)
                and self.config_offset in (FAULT_ANY, config_offset))


def _parse_fault_index(part: str, text: str) -> int:
    if part == "*":
        return FAULT_ANY
    try:
        return int(part)
    except ValueError:
        raise ValueError(
            f"bad fault index {part!r} in {text!r}: expected an integer or *"
        ) from None


def parse_fault_spec(text: Optional[str]) -> Optional[FaultSpec]:
    """Parse a single fault directive; None for unset/empty, ValueError when bad."""
    if not text:
        return None
    parts = text.split(":")
    if len(parts) < 3:
        raise ValueError(
            f"bad fault spec {text!r}: expected "
            "kind:kernel_index:config_offset[:mode[:seconds]]"
        )
    kind = parts[0]
    if kind not in WORKER_FAULT_KINDS + ARTIFACT_FAULT_KINDS:
        raise ValueError(f"bad fault kind {kind!r} in {text!r}")
    always = len(parts) > 3 and parts[3] == "always"
    hang_seconds = float(parts[4]) if len(parts) > 4 else 30.0
    return FaultSpec(
        kind=kind,
        kernel_index=_parse_fault_index(parts[1], text),
        config_offset=_parse_fault_index(parts[2], text),
        always=always,
        hang_seconds=hang_seconds,
    )


def parse_fault_specs(text: Optional[str]) -> List[FaultSpec]:
    """Parse a ``;``-separated list of fault directives (empty list if unset)."""
    if not text:
        return []
    specs = []
    for piece in text.split(";"):
        piece = piece.strip()
        if not piece:
            continue
        spec = parse_fault_spec(piece)
        if spec is not None:
            specs.append(spec)
    return specs


def active_fault() -> Optional[FaultSpec]:
    """The first fault directive currently in the environment, if any."""
    specs = active_faults()
    return specs[0] if specs else None


def active_faults() -> List[FaultSpec]:
    """Every fault directive currently in the environment."""
    return parse_fault_specs(os.environ.get(ENV_FAULT_INJECT))


def arm_fault(spec: Optional[str], state: Optional[PathLike] = None) -> None:
    """Install (or clear) a fault directive in this process's environment.

    The service worker uses this to arm a per-job fault carried by a chaos
    request: environment mutation stays centralised in the module that owns
    ``GMAP_FAULT_INJECT``, and the worker process is disposable, so the
    change cannot leak into sibling jobs.
    """
    if spec:
        os.environ[ENV_FAULT_INJECT] = spec
    else:
        os.environ.pop(ENV_FAULT_INJECT, None)
    if state is not None:
        os.environ[ENV_FAULT_STATE] = str(state)
    else:
        os.environ.pop(ENV_FAULT_STATE, None)


def claim_fault(spec: FaultSpec) -> bool:
    """True iff this firing should proceed.

    ``always`` faults fire every time.  ``once`` faults (the default) claim
    an atomic sentinel file (``GMAP_FAULT_STATE``), so exactly one process
    across the whole run fires — the retry then succeeds.  Without a state
    file a ``once`` fault degrades to ``always``.
    """
    if spec.always:
        return True
    state = os.environ.get(ENV_FAULT_STATE)
    if not state:
        return True
    try:
        fd = os.open(state, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        os.close(fd)
        return True
    except FileExistsError:
        return False
    except OSError:
        return True


def fire_worker_fault(spec: FaultSpec) -> None:
    """Execute a worker-side fault: die, hang, or raise."""
    if spec.kind == "crash":
        os._exit(13)
    if spec.kind == "hang":
        time.sleep(spec.hang_seconds)
        return
    if spec.kind == "raise":
        raise RuntimeError(
            f"injected fault at kernel_index={spec.kernel_index} "
            f"config_offset={spec.config_offset}"
        )


def maybe_inject_worker_fault(kernel_index: int, config_offset: int) -> None:
    """Worker hook: fire every environment fault targeting this chunk."""
    for spec in active_faults():
        if (spec.kind in WORKER_FAULT_KINDS
                and spec.matches(kernel_index, config_offset)
                and claim_fault(spec)):
            fire_worker_fault(spec)


def maybe_corrupt_artifact(path: PathLike, kernel_index: int,
                           config_offset: int) -> bool:
    """Parent hook: overwrite a just-written artifact with garbage.

    Used by the fault harness to exercise the corrupt-entry quarantine path
    deterministically.  Returns True when the artifact was corrupted.
    """
    for spec in active_faults():
        if (spec.kind in ARTIFACT_FAULT_KINDS
                and spec.matches(kernel_index, config_offset)
                and claim_fault(spec)):
            Path(path).write_bytes(b"\x00injected-corruption\x00")
            return True
    return False


# -- run journal ------------------------------------------------------------

def default_journal_dir() -> Path:
    """``$GMAP_JOURNAL_DIR`` if set, else ``<cache-dir>/journal``."""
    env = os.environ.get(ENV_JOURNAL_DIR)
    if env:
        return Path(env)
    return default_cache_dir() / "journal"


def derive_run_id(manifest: Dict[str, Any]) -> str:
    """Deterministic run id from a sweep's identity fields.

    Excludes layout details (chunk size) so the same campaign maps to the
    same id regardless of ``--jobs``.
    """
    fields = {k: v for k, v in manifest.items() if k != "chunk_size"}
    blob = json.dumps(fields, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]


class JournalMismatchError(ValueError):
    """``--resume`` pointed at a journal recorded for different inputs."""


class JournalLockedError(RuntimeError):
    """Another live process holds this run's journal lock.

    Two concurrent writers interleaving chunk entries (or two ``--resume``
    runs of the same run-id racing each other) would corrupt the journal's
    completed-set; the lock makes the second run fail fast instead, and a
    writer whose lock was taken over stops writing.
    """


class RunJournal:
    """Checkpoint journal of one sweep run: manifest + per-chunk entries.

    Layout, under ``<journal-dir>/<run-id>/``::

        manifest.json                      sweep identity (fingerprints, seed,
                                           chunk size) — verified on resume
        lock                               the writer's lease file
        chunk-KKKK-OOOOOO.json.gz          one completed chunk's result pairs,
                                           content-checksummed
        quarantine/                        corrupt entries, moved aside

    Chunk entries go through the one content store
    (:class:`~repro.core.store.ContentStore`, :attr:`content`): writes are
    atomic, so a crash mid-write never leaves a half-entry and the chunk
    simply re-runs; a transient read error leaves a finished chunk in place
    for the next ``--resume``.  Entries store their position and per-pair
    config fingerprints, so a stale entry from a different sweep is
    detected and quarantined at load instead of being silently reassembled
    into wrong results.
    """

    def __init__(self, run_id: str, journal_dir: Optional[PathLike] = None) -> None:
        if not run_id or "/" in run_id:
            raise ValueError(f"bad run id {run_id!r}")
        self.run_id = run_id
        self.root = Path(journal_dir if journal_dir is not None
                         else default_journal_dir()) / run_id
        self.content = ContentStore(self.root, JOURNAL_SCHEMA_VERSION)
        self._lease = LeaseFile(self.lock_path, ttl=30.0)
        self._heartbeat: Optional[LeaseHeartbeat] = None

    # -- paths --------------------------------------------------------------

    @property
    def manifest_path(self) -> Path:
        return self.root / "manifest.json"

    @property
    def lock_path(self) -> Path:
        return self.root / "lock"

    def entry_path(self, kernel_index: int, config_offset: int) -> Path:
        return self.root / f"chunk-{kernel_index:04d}-{config_offset:06d}.json.gz"

    # -- single-writer lock -------------------------------------------------

    def acquire_lock(self) -> None:
        """Take the run's exclusive writer lock, or fail fast.

        The lock is a :mod:`repro.core.lease` lease on ``<root>/lock``,
        renewed by a heartbeat thread while held.  A holder that died on
        this host is taken over at once; a silent holder on another host
        after the 30 s TTL.  A forked child holds nothing: the lease names
        the parent, and the heartbeat thread does not survive the fork.
        Re-acquiring a lock this object already holds is a no-op; a lock
        held by anyone else raises :class:`JournalLockedError`.
        """
        if self._heartbeat is not None:
            return
        self.root.mkdir(parents=True, exist_ok=True)
        if self._lease.try_acquire() is None:
            raise JournalLockedError(
                f"journal {self.run_id!r} is locked by another live "
                f"run (lock file {self.lock_path}); wait for it to "
                f"finish or use a different --run-id"
            )
        self._heartbeat = LeaseHeartbeat(self._lease).start()

    def release_lock(self) -> None:
        """Drop the writer lock taken by :meth:`acquire_lock` (idempotent)."""
        if self._heartbeat is None:
            return
        heartbeat, self._heartbeat = self._heartbeat, None
        heartbeat.stop()
        self._lease.release()

    # -- manifest -----------------------------------------------------------

    def write_manifest(self, manifest: Dict[str, Any]) -> None:
        payload = self.content.seal(manifest)
        atomic_write(self.manifest_path, lambda fh: fh.write(
            json.dumps(payload, indent=2, sort_keys=True).encode("utf-8")))

    def load_manifest(self) -> Optional[Dict[str, Any]]:
        try:
            return self.content.check(
                json.loads(self.manifest_path.read_text(encoding="utf-8")))
        except (OSError, ValueError):  # CorruptArtifactError is a ValueError
            return None

    def ensure_manifest(self, manifest: Dict[str, Any], resume: bool) -> Dict[str, Any]:
        """Write (fresh run) or verify (resume) the manifest.

        Returns the effective manifest — on resume the stored one, whose
        ``chunk_size`` the runner must adopt so chunk offsets line up.
        Raises :class:`JournalMismatchError` when resuming against a journal
        recorded for different inputs.
        """
        existing = self.load_manifest()
        if resume and existing is not None:
            for key, value in manifest.items():
                if key == "chunk_size":
                    continue
                if existing.get(key) != value:
                    raise JournalMismatchError(
                        f"journal {self.run_id!r} was recorded for different "
                        f"inputs: field {key!r} differs "
                        f"(stored {existing.get(key)!r}, current {value!r})"
                    )
            return existing
        if resume and existing is None:
            raise JournalMismatchError(
                f"journal {self.run_id!r} has no readable manifest under "
                f"{self.root}; nothing to resume"
            )
        self.write_manifest(manifest)
        return dict(manifest, schema=JOURNAL_SCHEMA_VERSION)

    # -- chunk entries ------------------------------------------------------

    def record_chunk(
        self,
        kernel_index: int,
        config_offset: int,
        benchmark: str,
        entries: Sequence[Dict[str, Any]],
    ) -> Path:
        """Persist one completed chunk's serialized result pairs.

        ``entries`` is a list of ``{"config": fingerprint, "original":
        payload, "proxy": payload}`` dicts (see the sweep engine for the
        conversion).  Journal IO is best-effort on the write side: an
        unwritable journal must never fail the sweep itself.  A writer whose
        lock was taken over raises :class:`JournalLockedError` instead: the
        journal has a new owner.
        """
        if self._heartbeat is not None and self._heartbeat.lost.is_set():
            raise JournalLockedError(
                f"journal {self.run_id!r} lock was taken over by another "
                f"run; this writer stops"
            )
        path = self.entry_path(kernel_index, config_offset)
        self.content.save(path, {
            "kernel_index": kernel_index,
            "config_offset": config_offset,
            "benchmark": benchmark,
            "pairs": list(entries),
        })
        return path

    def load_chunk(
        self,
        kernel_index: int,
        config_offset: int,
        expected_config_fingerprints: Optional[Sequence[str]],
    ) -> Optional[List[Dict[str, Any]]]:
        """Load one chunk's entries, or None when absent or quarantined.

        A corrupt, checksum-failing, or wrong-config entry is moved to
        ``quarantine/`` and reported as a miss, so the chunk recomputes from
        source instead of poisoning the reassembled sweep.  A transient
        read error is only a miss: the entry stays for the next resume.

        ``expected_config_fingerprints=None`` skips the per-entry config
        check — used by readers (the ``gmap serve`` checkpoint store) whose
        entries are self-describing requests rather than sweep results.
        """
        def decode(payload: Dict[str, Any]) -> List[Dict[str, Any]]:
            if (payload.get("kernel_index") != kernel_index
                    or payload.get("config_offset") != config_offset):
                raise CorruptArtifactError("chunk entry for another position")
            pairs = payload.get("pairs", [])
            if expected_config_fingerprints is not None and (
                    [entry.get("config") for entry in pairs]
                    != list(expected_config_fingerprints)):
                raise CorruptArtifactError("chunk entry for other configs")
            return pairs

        return self.content.load(
            self.entry_path(kernel_index, config_offset), decode)

    def discard_chunk(self, kernel_index: int, config_offset: int) -> None:
        """Remove one chunk entry (best-effort; absent entries are fine)."""
        try:
            self.entry_path(kernel_index, config_offset).unlink()
        except OSError:
            pass

    def completed_chunks(self) -> List[Path]:
        """Entry files currently present (completed or stale)."""
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("chunk-*.json.gz"))

    @staticmethod
    def parse_entry_name(path: PathLike) -> Optional[tuple]:
        """``(kernel_index, config_offset)`` of an entry file name, or None."""
        stem = Path(path).name
        if not stem.startswith("chunk-") or not stem.endswith(".json.gz"):
            return None
        body = stem[len("chunk-"):-len(".json.gz")]
        first, sep, second = body.partition("-")
        if not sep:
            return None
        try:
            return int(first), int(second)
        except ValueError:
            return None

    @property
    def quarantined(self) -> int:
        """Chunk entries this journal moved to ``quarantine/``."""
        return self.content.counters.quarantined


def summarize_failures(failures: Sequence[ChunkFailure]) -> str:
    """One-line taxonomy summary, e.g. ``worker_crash=1, timeout=2``."""
    counts: Dict[str, int] = {}
    for failure in failures:
        counts[failure.kind] = counts.get(failure.kind, 0) + 1
    return ", ".join(f"{kind}={counts[kind]}" for kind in sorted(counts))
