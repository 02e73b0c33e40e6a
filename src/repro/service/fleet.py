"""Multi-replica ``gmap serve``: one router plus N supervised children.

A :class:`Fleet` starts one :class:`~repro.service.router.RouterHTTPServer`
front door and its :class:`~repro.service.router.RouterMonitor`, then N
``gmap serve --join <router-url>`` child processes on ephemeral ports.
Membership belongs to the router alone, on the same path cross-host
replicas use: each child registers itself over the ``--join`` handshake,
the monitor probes ``/readyz`` and takes a silent child out of rotation,
and a restarted child re-registers with a higher epoch, which makes the
router requeue whatever the dead incarnation held.  ``gmap serve
--router-only`` is the zero-children case of the same fleet.

The fleet itself only supervises processes:

* **restarts** a child whose process exited, after a jittered exponential
  backoff (:func:`~repro.service.backoff.backoff_delay`) that grows with
  the child's recent deaths;
* **parks** a child that dies more than ``flap_budget`` times inside
  ``flap_window`` seconds — out of rotation for a human (``"parked":
  true`` on ``GET /fleet``) instead of burning the machine in a crash
  loop;
* offers kill / pause / resume hooks to the chaos harness.

Children run with the journal disabled: in a fleet the *router* is the
reassignment authority, and a journal-resumed job racing its reassigned
twin would double-execute side-effecting work.  Identical pipeline keys
remain single-flight through the shared cache tier either way.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional

from repro.service.backoff import backoff_delay, poll_until
from repro.service.outcome_store import OutcomeStore
from repro.service.router import (
    RouterCore,
    RouterHTTPServer,
    RouterMonitor,
    start_router,
)

#: Lines of replica stdout/stderr kept per replica for diagnostics.
_LOG_KEEP = 50


@dataclass
class FleetConfig:
    """Knobs of the fleet supervisor (replica knobs pass through)."""

    #: Local ``--join`` children; 0 runs the router alone.
    replicas: int = 3
    #: Per-replica worker slots / queue depth (forwarded to each replica).
    workers: int = 2
    queue_capacity: int = 32
    job_timeout: float = 120.0
    retries: int = 1
    backend: Optional[str] = None
    allow_fault_injection: bool = False
    #: Fleet-shared single-flight cache root (created under a tempdir
    #: when unset — the tier is what makes reassignment dedupe-safe).
    shared_cache_dir: Optional[str] = None
    #: Durable router state directory (outcome store); None keeps the
    #: router's job table memory-only.
    state_dir: Optional[str] = None
    #: Per-replica bulk-lane admission bound (0 = auto) and aging bound.
    bulk_capacity: int = 0
    bulk_max_wait: float = 30.0
    #: Seconds between the router monitor's health probes and between
    #: the supervisor's liveness checks.
    health_interval: float = 0.5
    #: Consecutive probe failures before the router takes a replica out
    #: of rotation.
    health_failures: int = 3
    #: Restart backoff base/cap, seconds.
    restart_base: float = 0.2
    restart_cap: float = 5.0
    #: Flap detection: more than ``flap_budget`` deaths inside
    #: ``flap_window`` seconds parks the replica.
    flap_window: float = 30.0
    flap_budget: int = 5
    #: Seconds to wait for every child to register at boot.
    boot_timeout: float = 30.0
    extra_env: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.replicas < 0:
            raise ValueError(f"replicas must be >= 0, got {self.replicas}")
        if self.flap_budget < 1:
            raise ValueError(
                f"flap_budget must be >= 1, got {self.flap_budget}")


class ReplicaProcess:
    """One supervised ``gmap serve --join`` child and its restart state.

    The restart state is mutated only on the fleet's supervisor thread;
    :meth:`Fleet.snapshot` readers tolerate a point-in-time ``parked``.
    """

    def __init__(self, replica_id: str, config: FleetConfig,
                 shared_cache_dir: str) -> None:
        self.replica_id = replica_id
        self._config = config
        self._shared_cache_dir = shared_cache_dir
        self._proc: Optional[subprocess.Popen[str]] = None
        self._reader: Optional[threading.Thread] = None
        self._log: Deque[str] = deque(maxlen=_LOG_KEEP)
        self._deaths: Deque[float] = deque(
            maxlen=max(2 * config.flap_budget, 8))
        #: Monotonic time of the scheduled restart; None while running.
        self.restart_at: Optional[float] = None
        self.parked = False

    def _argv(self, router_url: str) -> List[str]:
        cfg = self._config
        argv = [
            sys.executable, "-m", "repro.cli", "serve",
            "--host", "127.0.0.1", "--port", "0",
            "--serve-workers", str(cfg.workers),
            "--queue-capacity", str(cfg.queue_capacity),
            "--job-timeout", str(cfg.job_timeout),
            "--retries", str(cfg.retries),
            "--replica-id", self.replica_id,
            "--join", router_url,
            "--shared-cache-dir", self._shared_cache_dir,
            "--no-journal",
        ]
        if cfg.backend:
            argv += ["--backend", cfg.backend]
        if cfg.allow_fault_injection:
            argv += ["--allow-fault-injection"]
        if cfg.bulk_capacity:
            argv += ["--bulk-capacity", str(cfg.bulk_capacity)]
        if cfg.bulk_max_wait != 30.0:
            argv += ["--bulk-max-wait", str(cfg.bulk_max_wait)]
        return argv

    def start(self, router_url: str) -> None:
        """Spawn the child; it registers itself with ``router_url``."""
        env = dict(os.environ)
        env.update(self._config.extra_env)
        self.restart_at = None
        self._proc = subprocess.Popen(
            self._argv(router_url), stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True, env=env,
            start_new_session=True)
        self._reader = threading.Thread(
            target=self._read_output,
            name=f"gmap-replica-{self.replica_id}-out", daemon=True)
        self._reader.start()

    def _read_output(self) -> None:
        proc = self._proc
        assert proc is not None and proc.stdout is not None
        for line in proc.stdout:
            self._log.append(line.rstrip("\n"))
        proc.stdout.close()

    def note_death(self, now: float) -> Optional[float]:
        """Record a newly observed exit.

        Returns the restart time (backoff over the deaths inside the flap
        window), or None when the death exhausted the flap budget and the
        child is now parked.
        """
        cfg = self._config
        self._deaths.append(now)
        recent = sum(1 for t in self._deaths if now - t <= cfg.flap_window)
        if recent > cfg.flap_budget:
            self.parked = True
            return None
        self.restart_at = now + backoff_delay(
            recent, base=cfg.restart_base, cap=cfg.restart_cap)
        return self.restart_at

    @property
    def pid(self) -> Optional[int]:
        return self._proc.pid if self._proc is not None else None

    def alive(self) -> bool:
        return self._proc is not None and self._proc.poll() is None

    def tail(self) -> List[str]:
        return list(self._log)

    def terminate(self, grace: float = 10.0) -> None:
        """SIGTERM (drain) then SIGKILL the replica."""
        proc = self._proc
        if proc is None:
            return
        if proc.poll() is None:
            proc.terminate()
            try:
                proc.wait(grace)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(5.0)
        if self._reader is not None:
            self._reader.join(2.0)

    def kill(self) -> None:
        """SIGKILL immediately (chaos: no drain, no goodbye)."""
        proc = self._proc
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.wait(5.0)


class Fleet:
    """Router + monitor + N supervised ``--join`` children.

    The router listens on ``host``/``port`` (0 = ephemeral); the children
    always take ephemeral loopback ports and register themselves.
    """

    def __init__(self, config: FleetConfig, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self.config = config
        self._host = host
        self._port = port
        self._tmp: Optional[tempfile.TemporaryDirectory] = None
        if config.shared_cache_dir is None:
            self._tmp = tempfile.TemporaryDirectory(prefix="gmap-fleet-")
            self.shared_cache_dir = os.path.join(self._tmp.name, "shared")
        else:
            self.shared_cache_dir = config.shared_cache_dir
        self._store = (OutcomeStore(config.state_dir)
                       if config.state_dir else None)
        self.core = RouterCore([], store=self._store)
        self._monitor = RouterMonitor(
            self.core, interval=config.health_interval,
            down_after=config.health_failures)
        self.replicas: List[ReplicaProcess] = [
            ReplicaProcess(f"r{index}", config, self.shared_cache_dir)
            for index in range(config.replicas)
        ]
        self._stop = threading.Event()
        self._supervisor: Optional[threading.Thread] = None
        self._router_server: Optional[RouterHTTPServer] = None
        self._router_stop: Optional[Callable[[], None]] = None

    # -- lifecycle -----------------------------------------------------------

    @property
    def router_url(self) -> str:
        assert self._router_server is not None, "fleet not started"
        return self._router_server.base_url

    def start(self, wait_ready: bool = True) -> None:
        """Start the router, its monitor and every child; with
        ``wait_ready``, block until every child has registered."""
        os.makedirs(self.shared_cache_dir, exist_ok=True)
        self._router_server, _thread, self._router_stop = start_router(
            self.core, self._host, self._port)
        self._monitor.start()
        for replica in self.replicas:
            replica.start(self.router_url)
        self._supervisor = threading.Thread(
            target=self._supervise_loop, name="gmap-fleet-supervisor",
            daemon=True)
        self._supervisor.start()
        if wait_ready and not self.wait_routable(
                len(self.replicas), timeout=self.config.boot_timeout):
            missing = [replica for replica in self.replicas
                       if not self.routable(replica.replica_id)]
            detail = "\n".join(
                f"{replica.replica_id}:\n" + "\n".join(replica.tail()[-10:])
                for replica in missing)
            self.stop()
            raise RuntimeError(f"replicas never registered:\n{detail}")

    def stop(self) -> None:
        """Stop supervising, drain the children, then the router; compact
        and close the outcome store."""
        self._stop.set()
        if self._supervisor is not None:
            self._supervisor.join(5.0)
        router_stop, self._router_stop = self._router_stop, None
        if router_stop is not None:
            # Draining children answer /readyz with 503: stop probing
            # first so their jobs are not requeued onto siblings that
            # are draining too.
            self._monitor.stop()
        for replica in self.replicas:
            replica.terminate(grace=self.config.job_timeout / 4 + 2.0)
        if router_stop is not None:
            router_stop()
        if self._store is not None:
            self._store.compact(force=True)
            self._store.close()
            self._store = None
        if self._tmp is not None:
            self._tmp.cleanup()
            self._tmp = None

    def __enter__(self) -> "Fleet":
        self.start()
        return self

    def __exit__(self, *_exc: object) -> None:
        self.stop()

    # -- chaos hooks ---------------------------------------------------------

    def kill_replica(self, index: int) -> None:
        """SIGKILL one replica (the supervisor restarts it)."""
        self.replicas[index].kill()

    def pause_replica(self, index: int) -> None:
        """SIGSTOP: alive but unreachable — a network partition stand-in."""
        pid = self.replicas[index].pid
        if pid is not None:
            os.kill(pid, signal.SIGSTOP)

    def resume_replica(self, index: int) -> None:
        pid = self.replicas[index].pid
        if pid is not None:
            os.kill(pid, signal.SIGCONT)

    def routable(self, replica_id: str) -> bool:
        """True while the router has ``replica_id`` in rotation."""
        endpoint = self.core.endpoint(replica_id)
        return endpoint is not None and endpoint.routable

    def wait_routable(self, count: int, timeout: float) -> bool:
        """Block until >= ``count`` replicas are routable (or timeout)."""
        return poll_until(
            lambda: sum(1 for ep in self.core.endpoints()
                        if ep.routable) >= count,
            timeout=timeout, interval=0.1, wake=self._stop)

    # -- supervision ---------------------------------------------------------

    def _supervise_loop(self) -> None:
        delay = self.config.health_interval
        while not self._stop.wait(delay):
            delay = self._tick()

    def _tick(self, now: Optional[float] = None) -> float:
        """Restart or park dead children; returns the seconds until the
        next check (sooner than ``health_interval`` when a restart is
        due before then)."""
        now = time.monotonic() if now is None else now
        delay = self.config.health_interval
        for replica in self.replicas:
            if replica.parked or replica.alive():
                continue
            due = replica.restart_at
            if due is None:  # a fresh death
                due = replica.note_death(now)
                if due is None:
                    endpoint = self.core.endpoint(replica.replica_id)
                    if endpoint is not None:
                        endpoint.mark_parked()
                    continue
            if now >= due:
                replica.terminate(grace=0.5)  # reap the corpse
                replica.start(self.router_url)
            else:
                delay = min(delay, due - now)
        return delay

    # -- introspection -------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        snap = self.core.fleet_snapshot()
        snap["parked"] = [replica.replica_id for replica in self.replicas
                          if replica.parked]
        snap["shared_cache_dir"] = self.shared_cache_dir
        return snap


def serve_fleet(config: FleetConfig, host: str = "127.0.0.1",
                port: int = 0) -> int:
    """Boot a fleet (a bare router when ``config.replicas`` is 0) and block
    until SIGTERM/SIGINT stops it (CLI entry)."""
    fleet = Fleet(config, host, port)
    stop = threading.Event()

    def _on_signal(_signum: int, _frame: object) -> None:
        stop.set()

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)
    fleet.start()
    try:
        print(f"router listening on {fleet.router_url} "
              f"({config.replicas} replicas)", flush=True)
        stop.wait()
    finally:
        fleet.stop()
    return 0
