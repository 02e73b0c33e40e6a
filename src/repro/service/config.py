"""Configuration for the ``gmap serve`` daemon.

Environment resolution is centralised here (the determinism linter's
``env-read`` rule allowlists this module): every ``GMAP_SERVE_*`` variable
is read exactly once, into a :class:`ServiceConfig`, and the rest of the
service threads the values through plain arguments.

Resolution order for every knob: explicit constructor argument, then the
environment variable, then the default.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields
from typing import Any, Dict, Optional

#: Environment variables understood by :func:`ServiceConfig.from_env`.
ENV_PREFIX = "GMAP_SERVE_"

#: Worker isolation modes: ``process`` runs each job in a disposable
#: subprocess (crash isolation, kill-able deadlines); ``thread`` degrades
#: to in-thread execution where process primitives are unavailable.
ISOLATION_MODES = ("process", "thread")


@dataclass
class ServiceConfig:
    """Every tunable of the service layer, with production-shaped defaults."""

    host: str = "127.0.0.1"
    port: int = 0
    #: Concurrent worker slots (each runs at most one job at a time).
    workers: int = 2
    #: Bounded admission queue depth; submissions beyond it are shed.
    queue_capacity: int = 32
    #: Per-job wall-clock deadline, seconds (one attempt).
    job_timeout: float = 120.0
    #: Re-executions after a crash/timeout before the job fails for good.
    retries: int = 1
    #: Base of the exponential restart backoff after a worker death.
    restart_backoff: float = 0.1
    #: Largest accepted HTTP request body, bytes.
    max_request_bytes: int = 1 << 20
    #: Largest accepted on-disk input artifact (trace/profile), bytes.
    max_input_bytes: int = 256 << 20
    #: Seconds a drain waits for running jobs before checkpointing them.
    drain_timeout: float = 10.0
    #: Journal checkpointing of in-flight jobs across restarts.
    journal: bool = True
    journal_dir: Optional[str] = None
    run_id: str = "serve"
    #: Compute backend forwarded to job handlers (None = resolve default).
    backend: Optional[str] = None
    use_cache: bool = False
    cache_dir: Optional[str] = None
    #: Circuit breaker: consecutive backend failures before it opens, and
    #: seconds it stays open before probing again.
    breaker_threshold: int = 3
    breaker_cooldown: float = 30.0
    #: Worker isolation mode (see :data:`ISOLATION_MODES`).
    isolation: str = "process"
    #: Accept chaos fault directives attached to requests (tests only).
    allow_fault_injection: bool = False
    #: Stable label of this replica within a fleet (surfaced in
    #: ``/healthz`` and ``/readyz`` for per-replica attribution).
    replica_id: str = "r0"
    #: Directory of the fleet-shared single-flight result cache
    #: (:mod:`repro.core.shared_cache`); None disables the tier.
    shared_cache_dir: Optional[str] = None
    #: Router URL to register with (``gmap serve --join``); None runs the
    #: replica standalone.  Registration repeats every ``join_interval``
    #: seconds as a heartbeat, so a restarted router re-learns us.
    join: Optional[str] = None
    join_interval: float = 2.0
    #: Bulk-lane admission bound (0 = auto: half of ``queue_capacity``)
    #: and the anti-starvation aging bound, seconds (a bulk job whose
    #: head-of-lane wait exceeds it is served next regardless of weights).
    bulk_capacity: int = 0
    bulk_max_wait: float = 30.0

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.queue_capacity < 1:
            raise ValueError(
                f"queue_capacity must be >= 1, got {self.queue_capacity}")
        if self.job_timeout <= 0:
            raise ValueError(
                f"job_timeout must be > 0, got {self.job_timeout}")
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.isolation not in ISOLATION_MODES:
            raise ValueError(
                f"isolation must be one of {ISOLATION_MODES}, "
                f"got {self.isolation!r}")
        if self.bulk_capacity < 0:
            raise ValueError(
                f"bulk_capacity must be >= 0, got {self.bulk_capacity}")

    @classmethod
    def from_env(cls, **overrides: Any) -> "ServiceConfig":
        """Build a config from ``GMAP_SERVE_*`` variables plus overrides.

        Only fields not named in ``overrides`` (or named with value None)
        consult the environment, so CLI flags always win.
        """
        values: Dict[str, object] = {}
        for spec in fields(cls):
            if overrides.get(spec.name) is not None:
                continue
            raw = os.environ.get(ENV_PREFIX + spec.name.upper())
            if raw is None or raw == "":
                continue
            kind = str(spec.type)
            if kind == "int":
                values[spec.name] = int(raw)
            elif kind == "float":
                values[spec.name] = float(raw)
            elif kind == "bool":
                values[spec.name] = _parse_bool(raw)
            else:
                values[spec.name] = raw
        values.update({k: v for k, v in overrides.items() if v is not None})
        return cls(**values)  # type: ignore[arg-type]


def _parse_bool(raw: str) -> bool:
    return raw.strip().lower() in ("1", "true", "yes", "on")
