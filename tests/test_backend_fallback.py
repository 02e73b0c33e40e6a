"""Backend degradation: broken vectorized paths fall back to the oracle.

Covers the two failure shapes the service must survive (satellite of the
robustness PR):

* **import failure** — numpy absent (or explicitly requested while
  absent): env-supplied requests degrade silently at resolution, explicit
  requests raise, and the fallback chain collapses to the oracle;
* **runtime failure** — the vectorized implementation raises mid-job:
  :func:`~repro.core.backend.run_with_fallback` retries the python oracle,
  returns its result, and *reports* the fallback so callers can label the
  outcome degraded rather than hiding it.
"""

from __future__ import annotations

import pytest

from repro.core import backend as backend_mod
from repro.core.backend import (
    DEFAULT_BACKEND,
    fallback_chain,
    resolve_backend,
    run_with_fallback,
)


class TestResolutionWithoutNumpy:
    """Simulate an environment where the numpy import failed."""

    @pytest.fixture(autouse=True)
    def no_numpy(self, monkeypatch):
        monkeypatch.setattr(backend_mod, "_HAVE_NUMPY", False)

    def test_env_supplied_numpy_degrades_to_python(self, monkeypatch):
        monkeypatch.setenv("GMAP_BACKEND", "numpy")
        assert resolve_backend(None) == "python"

    def test_explicit_numpy_request_raises(self):
        with pytest.raises(ValueError, match="not importable"):
            resolve_backend("numpy")

    def test_chain_collapses_to_oracle(self, monkeypatch):
        monkeypatch.setenv("GMAP_BACKEND", "numpy")
        assert fallback_chain(None) == (DEFAULT_BACKEND,)


class TestRunWithFallback:
    def test_python_only_chain_has_no_fallback(self):
        result, used, errors = run_with_fallback(
            lambda name: f"ran:{name}", backend="python")
        assert (result, used, errors) == ("ran:python", "python", [])

    def test_vectorized_failure_returns_oracle_result(self):
        pytest.importorskip("numpy", exc_type=ImportError)
        calls = []

        def fn(name):
            calls.append(name)
            if name == "numpy":
                raise RuntimeError("vectorized kernel exploded")
            return f"oracle:{name}"

        result, used, errors = run_with_fallback(fn, backend="numpy")
        assert calls == ["numpy", "python"]
        assert result == "oracle:python"
        assert used == "python"
        assert errors == [("numpy", "RuntimeError: vectorized kernel "
                           "exploded")]

    def test_on_fallback_hook_fires_before_retry(self):
        pytest.importorskip("numpy", exc_type=ImportError)
        seen = []

        def fn(name):
            if name == "numpy":
                raise ValueError("boom")
            return name

        run_with_fallback(fn, backend="numpy",
                          on_fallback=lambda name, exc: seen.append(
                              (name, type(exc).__name__)))
        assert seen == [("numpy", "ValueError")]

    def test_last_backend_failure_propagates(self):
        with pytest.raises(RuntimeError, match="oracle broke too"):
            run_with_fallback(
                lambda name: (_ for _ in ()).throw(
                    RuntimeError("oracle broke too")),
                backend="python")


class TestServiceReportsDegradation:
    """The service path: a fallback surfaces as an explicit degraded flag."""

    def test_job_outcome_labels_backend_fallback(self, monkeypatch):
        pytest.importorskip("numpy", exc_type=ImportError)
        from repro.service import handlers
        from repro.service.handlers import execute_job

        real_handler = handlers._HANDLERS["simulate"]

        def flaky(params, backend):
            if backend == "numpy":
                raise RuntimeError("injected vectorized failure")
            return real_handler(params, backend)

        monkeypatch.setitem(handlers._HANDLERS, "simulate", flaky)
        payload = execute_job(
            {"kind": "simulate",
             "params": {"target": "vectoradd", "scale": "tiny",
                        "cores": 2}},
            effective_backend="numpy")
        assert payload["ok"] is True
        assert payload["backend_used"] == "python"
        assert any(reason.startswith("backend_fallback:numpy")
                   for reason in payload["degraded_reasons"])
        assert payload["result"]["result"]["requests_issued"] > 0

    def test_profiler_parity_when_vectorized_path_fails(self, monkeypatch,
                                                        tiny_vectoradd):
        """The degraded result equals the oracle's: fallback changes the
        execution path, never the numbers."""
        pytest.importorskip("numpy", exc_type=ImportError)
        from repro.core.profiler import GmapProfiler

        oracle = GmapProfiler(backend="python").profile(tiny_vectoradd)

        def fn(name):
            if name == "numpy":
                raise RuntimeError("injected")
            return GmapProfiler(backend=name).profile(tiny_vectoradd)

        degraded, used, errors = run_with_fallback(fn, backend="numpy")
        assert used == "python"
        assert errors
        assert degraded.to_dict() == oracle.to_dict()


class TestHalfOpenProbeDiscipline:
    """Regressions for the breaker's probe *lease* (robustness PR).

    The failure shape being pinned: a breaker that admits an unbounded
    burst the instant its cooldown elapses, or that lets a straggler
    success from before the trip close it, re-exposes every queued job to
    a still-broken backend.  Half-open must admit exactly one probe per
    cooldown window, and only the probe's own report may close it.
    """

    @staticmethod
    def _tripped(cooldown=10.0):
        from repro.service.degradation import CircuitBreaker

        clock = [0.0]
        breaker = CircuitBreaker(failure_threshold=2, cooldown=cooldown,
                                 clock=lambda: clock[0])
        breaker.record_failure()
        breaker.record_failure()
        return breaker, clock

    def test_half_open_admits_exactly_one_probe(self):
        breaker, clock = self._tripped()
        clock[0] = 10.0
        assert breaker.allow() is True  # the probe
        # A burst of concurrent callers while the probe is in flight: all
        # must keep skipping the backend.
        assert [breaker.allow() for _ in range(8)] == [False] * 8
        assert breaker.snapshot()["probe_in_flight"] is True

    def test_stale_success_while_open_is_ignored(self):
        breaker, clock = self._tripped()
        clock[0] = 3.0  # still OPEN, no probe admitted
        breaker.record_success()  # straggler from a pre-trip job
        from repro.service.degradation import STATE_OPEN

        assert breaker.state == STATE_OPEN
        assert breaker.allow() is False

    def test_probe_success_closes_for_everyone(self):
        breaker, clock = self._tripped()
        clock[0] = 10.0
        assert breaker.allow()
        breaker.record_success()  # the probe reporting back
        assert [breaker.allow() for _ in range(4)] == [True] * 4
        snap = breaker.snapshot()
        assert snap["state"] == "closed"
        assert snap["probe_in_flight"] is False

    def test_probe_failure_starts_a_new_cooldown(self):
        breaker, clock = self._tripped()
        clock[0] = 10.0
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.allow() is False  # OPEN again
        clock[0] = 19.9  # new cooldown runs from the probe failure
        assert breaker.allow() is False
        clock[0] = 20.0
        assert breaker.allow() is True  # next window's probe

    def test_dead_probe_lease_expires(self):
        """A probe whose worker dies unreported must not wedge the breaker
        half-open forever: the lease expires after one extra cooldown."""
        breaker, clock = self._tripped()
        clock[0] = 10.0
        assert breaker.allow()  # probe admitted, then its worker dies
        clock[0] = 15.0
        assert breaker.allow() is False  # lease still held
        clock[0] = 20.0  # a full cooldown after the lease was taken
        assert breaker.snapshot()["probe_in_flight"] is False
        assert breaker.allow() is True  # a new probe may go
