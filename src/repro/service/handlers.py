"""Job execution: the code a worker runs, one job per disposable process.

Each handler is the service-shaped twin of a CLI verb (``profile``,
``generate``, ``simulate``, ``validate``), reusing the same pipeline
underneath and returning a JSON-serialisable result dict.

:func:`execute_job` wraps a handler with the degradation machinery:

* compute runs through :func:`~repro.core.backend.run_with_fallback`, so a
  broken vectorized path degrades to the python oracle and the fallback is
  *reported*, not hidden;
* integrity-event deltas (artifact quarantines, cache rebuilds observed by
  :data:`~repro.core.integrity.integrity_events`) are captured around the
  job and surfaced as ``artifact_rebuilt`` degradation;
* expected errors map to taxonomy kinds (``invalid_request``,
  ``corrupt_artifact``, ``simulation_error``) instead of tracebacks.

Chaos faults attached to a request are armed *here*, inside the worker
process, via :func:`~repro.validation.resilience.arm_fault` — the process
is disposable, so the environment mutation cannot leak into sibling jobs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional

if TYPE_CHECKING:
    from repro.core.profile import GmapProfile

from repro.core.backend import run_with_fallback
from repro.core.integrity import CorruptArtifactError, integrity_events
from repro.validation.resilience import (
    FAILURE_CORRUPT_ARTIFACT,
    FAILURE_INVALID_REQUEST,
    FAILURE_SIMULATION_ERROR,
    maybe_inject_worker_fault,
)

#: Integrity-event kinds that mean "an artifact was rebuilt under us".
_REBUILD_EVENT_KINDS = ("quarantine", "cache_rebuild")


def _cache_stats_dict(stats: Any) -> Dict[str, Any]:
    return {
        "accesses": stats.accesses,
        "misses": stats.misses,
        "miss_rate": stats.miss_rate,
    }


def _sim_result_dict(result: Any) -> Dict[str, Any]:
    return {
        "requests_issued": result.requests_issued,
        "cycles": result.cycles,
        "l1": _cache_stats_dict(result.l1),
        "l2": _cache_stats_dict(result.l2),
        "dram": {
            "row_buffer_locality": result.dram.row_buffer_locality,
            "avg_queue_length": result.dram.avg_queue_length,
            "avg_read_latency": result.dram.avg_read_latency,
            "avg_write_latency": result.dram.avg_write_latency,
        },
    }


def _load_profile_param(params: Dict[str, Any]) -> "GmapProfile":
    """An inline profile dict, or one loaded from ``profile_path``."""
    from repro.core.profile import GmapProfile

    if isinstance(params.get("profile"), dict):
        return GmapProfile.from_dict(params["profile"])
    from repro.io.profile_io import load_profile

    return load_profile(params["profile_path"])


def _handle_profile(params: Dict[str, Any], backend: str) -> Dict[str, Any]:
    from repro.core.profiler import GmapProfiler, unit_streams_from_warp_traces
    from repro.workloads import suite

    benchmark = params["benchmark"]
    profiler = GmapProfiler(
        coalescing=params.get("coalescing", True), backend=backend)
    if benchmark.endswith((".trace", ".trace.gz", ".trace.npz")):
        from repro.io.trace_io import load_warp_traces

        traces = load_warp_traces(benchmark)
        units = unit_streams_from_warp_traces(traces)
        profile = profiler.profile_unit_streams(units, "warp", name=benchmark)
    else:
        kernel = suite.make(benchmark, scale=params.get("scale", "small"))
        profile = profiler.profile(kernel)
    if params.get("obfuscate"):
        profile = profile.obfuscated()
    payload = profile.to_dict()
    return {
        "profile": payload,
        "num_profiles": profile.num_profiles,
        "total_transactions": profile.total_transactions,
    }


def _handle_generate(params: Dict[str, Any], backend: str) -> Dict[str, Any]:
    from repro.analysis import verify_profile
    from repro.core.generator import ProxyGenerator
    from repro.core.miniaturize import miniaturize_profile

    profile = _load_profile_param(params)
    findings = verify_profile(profile, origin=f"<job profile {profile.name}>")
    if findings:
        raise _InvalidRequest(
            f"profile fails verification ({len(findings)} finding(s)): "
            f"{findings[0].message}")
    factor = float(params.get("factor", 1.0))
    if factor != 1.0:
        profile = miniaturize_profile(profile, factor)
    generator = ProxyGenerator(
        profile, seed=int(params.get("seed", 1234)),
        stride_model=params.get("stride_model", "iid"), backend=backend)
    traces = generator.generate_warp_traces()
    result: Dict[str, Any] = {
        "warps": len(traces),
        "transactions": sum(len(t.transactions) for t in traces),
    }
    output = params.get("output")
    if output:
        from repro.io.trace_io import save_warp_traces

        save_warp_traces(traces, output)
        result["output"] = output
    return result


def _handle_simulate(params: Dict[str, Any], backend: str) -> Dict[str, Any]:
    """Simulate a benchmark or trace.

    Three modes, selected by params:

    * default — the latency-feedback SIMT loop (always the scalar oracle;
      ``backend`` picks only the benchmark's front end, whose traces are
      identical on both backends);
    * ``flat: true`` — fixed-order flat replay on ``backend`` (the
      array-resident memsim engine when ``numpy``);
    * ``sweep: "l1" | "l2"`` — one-pass multi-config flat replay over that
      sweep grid (``full: true`` for the paper-sized grid), returning the
      ``gmap-sweep`` artifact ``gmap check`` validates;
    * ``analytic: true`` — O(histogram) predictions from the traces'
      reuse profiles.  With a sweep it returns the analytic ``gmap-sweep``
      artifact (out-of-model configs replay on ``backend`` with their
      reasons in ``fallbacks``); without one it predicts the paper
      baseline, falling back to flat replay when the baseline is outside
      the model.

    Flat and analytic jobs run one config, or the sweep grid, through the
    engine chain (:func:`~repro.memsim.vectorized.simulate_flat_runs`), the
    same one ``gmap simulate`` and the sweep engine use.  It dispatches on
    ``backend``, so a numpy-memsim failure flows through
    :func:`~repro.core.backend.run_with_fallback` (degraded result,
    ``backend_fallback:numpy:...`` reason) and feeds the service's
    per-stage circuit breakers — analytic jobs through their own
    ``analytic`` stage, replay jobs through ``memsim``.
    """
    from repro.gpu.executor import flat_drain
    from repro.memsim.config import PAPER_BASELINE
    from repro.memsim.simulator import SimtSimulator, sweep_report
    from repro.memsim.vectorized import simulate_flat_runs
    from repro.validation.harness import load_target

    target = params["target"]
    cores = int(params.get("cores", PAPER_BASELINE.num_cores))
    assignments = load_target(
        target, cores, params.get("scale", "small"), backend)
    analytic = bool(params.get("analytic"))
    sweep = params.get("sweep")
    if sweep:
        from repro.validation import sweeps as sweep_grids

        grids = {"l1": sweep_grids.l1_sweep, "l2": sweep_grids.l2_sweep}
        maker = grids.get(sweep)
        if maker is None:
            raise _InvalidRequest(
                f"unknown sweep {sweep!r}; expected one of {sorted(grids)}")
        configs = [
            c.with_(num_cores=cores)
            for c in maker(reduced=not params.get("full", False))
        ]
        report = sweep_report(
            flat_drain(assignments), configs, backend=backend, target=target,
            analytic=analytic)
        return {"target": target,
                "sim_mode": "analytic" if analytic else "flat", **report}
    config = PAPER_BASELINE.with_(num_cores=cores)
    if not (analytic or params.get("flat")):
        result = SimtSimulator(config).run(assignments)
        return {"target": target, "sim_mode": "simt",
                "result": _sim_result_dict(result)}
    [(engine, result, reasons)] = simulate_flat_runs(
        flat_drain(assignments), [config], backend, analytic)
    block = _sim_result_dict(result)
    if not analytic:
        return {"target": target, "sim_mode": "flat", "backend": backend,
                "result": block}
    if engine == "analytic":
        return {"target": target, "sim_mode": "analytic", "analytic": True,
                "result": block}
    return {"target": target, "sim_mode": "analytic", "analytic": False,
            "fallback_reasons": reasons, "backend": backend, "result": block}


def _handle_validate(params: Dict[str, Any], backend: str) -> Dict[str, Any]:
    from repro.validation.experiments import experiment
    from repro.validation.parallel import SweepRunner
    from repro.workloads import suite

    spec = experiment(params["experiment"])
    configs = spec.configs(reduced=not params.get("full", False))
    names = params.get("benchmarks") or list(suite.PAPER_SUITE)
    kernels = [
        suite.make(name, scale=params.get("scale", "small")) for name in names
    ]
    # The worker process IS the isolation unit: run the sweep serially and
    # unjournaled inside it.  Chunk failures still surface as a partial
    # report, which execute_job turns into partial_sweep degradation.
    report = SweepRunner(
        jobs=1, use_cache=bool(params.get("use_cache", False)), journal=False,
    ).run_experiment(
        kernels, configs, spec.metric,
        seed=int(params.get("seed", 1234)),
        num_cores=int(params.get("cores", 15)),
        backend=backend,
    )
    return {
        "experiment": params["experiment"],
        "metric": spec.metric,
        "mean_error": report.mean_error,
        "mean_correlation": report.mean_correlation,
        "benchmarks": [list(row) for row in report.rows()],
        "partial": report.is_partial,
        "failures": [
            {"kind": f.kind, "benchmark": f.benchmark, "error": f.message}
            for f in report.failures
        ],
    }


_HANDLERS = {
    "profile": _handle_profile,
    "generate": _handle_generate,
    "simulate": _handle_simulate,
    "validate": _handle_validate,
}


class _InvalidRequest(ValueError):
    """Raised by handlers for inputs that passed admission but cannot run."""


def _shareable(kind: str, params: Dict[str, Any]) -> bool:
    """May this job's result flow through the shared single-flight tier?

    Jobs with filesystem side effects (``output``) must execute per
    submission — a cache hit would silently skip the write.
    """
    return kind in _HANDLERS and "output" not in params


def execute_job(request: Dict[str, Any],
                effective_backend: Optional[str],
                shared_cache_dir: Optional[str] = None) -> Dict[str, Any]:
    """Run one job to a well-typed outcome dict. Never raises for expected
    failures; unexpected exceptions propagate (the supervisor types them).

    Returns ``{"ok", "result" | ("error_kind", "error"), "backend_used",
    "degraded_reasons", "integrity_events"}``.  With ``shared_cache_dir``
    set the execution runs through the fleet-shared single-flight cache
    (:mod:`repro.core.shared_cache`): identical pipeline keys in flight
    anywhere in the fleet collapse to one build.
    """
    fault = request.get("fault")
    if not fault:
        return _execute(request, effective_backend, shared_cache_dir)
    # Arm the chaos directive, then fire any immediate worker fault
    # (crash/hang) exactly as the sweep engine's workers would.  This runs
    # only in a forked worker (the supervisor's in-thread fallback refuses
    # fault-carrying jobs); disarm anyway so the worker leaves as it came.
    from repro.validation import resilience

    resilience.arm_fault(fault.get("spec"), fault.get("state"))
    try:
        maybe_inject_worker_fault(0, 0)
        return _execute(request, effective_backend, shared_cache_dir)
    finally:
        resilience.arm_fault(None, None)


def _execute(request: Dict[str, Any],
             effective_backend: Optional[str],
             shared_cache_dir: Optional[str] = None) -> Dict[str, Any]:
    kind = request["kind"]
    params = dict(request.get("params") or {})
    handler = _HANDLERS.get(kind)
    if handler is None:
        return _failure(FAILURE_INVALID_REQUEST, f"unknown job kind {kind!r}")
    before = integrity_events.snapshot()
    degraded_reasons: List[str] = []

    def _run() -> Dict[str, Any]:
        result, backend_used, fallback_errors = run_with_fallback(
            lambda name: handler(params, name),
            backend=effective_backend,
        )
        return {
            "result": result,
            "backend_used": backend_used,
            "fallback_errors": fallback_errors,
        }

    try:
        if shared_cache_dir and _shareable(kind, params):
            from repro.core.shared_cache import SharedResultCache, job_key

            cache = SharedResultCache(shared_cache_dir)
            key = job_key(kind, params, effective_backend)
            body, _status = cache.single_flight(
                key, _run, cacheable=_clean_body)
        else:
            body = _run()
    except FileNotFoundError as exc:
        return _failure(FAILURE_INVALID_REQUEST, f"input not found: {exc}")
    except _InvalidRequest as exc:
        return _failure(FAILURE_INVALID_REQUEST, str(exc))
    except CorruptArtifactError as exc:
        return _failure(FAILURE_CORRUPT_ARTIFACT, str(exc))
    except (ValueError, KeyError, OSError) as exc:
        return _failure(
            FAILURE_SIMULATION_ERROR, f"{type(exc).__name__}: {exc}")
    result = body["result"]
    fallback_errors = [tuple(pair) for pair in body.get("fallback_errors", [])]
    events = integrity_events.delta(before)
    if any(events.get(kind_, 0) for kind_ in _REBUILD_EVENT_KINDS):
        degraded_reasons.append("artifact_rebuilt")
    for name, error in fallback_errors:
        degraded_reasons.append(f"backend_fallback:{name}:{error}")
    if isinstance(result, dict) and result.get("partial"):
        degraded_reasons.append("partial_sweep")
    return {
        "ok": True,
        "result": result,
        "backend_used": body.get("backend_used"),
        "fallback_errors": fallback_errors,
        "degraded_reasons": degraded_reasons,
        "integrity_events": events,
    }


def _clean_body(body: Dict[str, Any]) -> bool:
    """Only undegraded results are shared: a fallback-tainted or partial
    result is returned to its submitter but never served to the fleet."""
    if body.get("fallback_errors"):
        return False
    result = body.get("result")
    return not (isinstance(result, dict) and result.get("partial"))


def _failure(kind: str, message: str) -> Dict[str, Any]:
    return {"ok": False, "error_kind": kind, "error": message}
