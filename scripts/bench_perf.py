#!/usr/bin/env python
"""Performance benchmark for the sweep engine: writes BENCH_sweep.json.

Times a reduced Figure-6a (L1) sweep and the G-MAP pipeline itself, and
records the trajectory so every PR can be checked against the previous one:

1. **sequential cold** — an instrumented serial loop (the same
   ``build_pipeline`` + ``run_sweep`` path ``SweepRunner(jobs=1)``
   takes), which also attributes wall time to the three pipeline stages
   — profile, generate, memsim — in the report's ``timings`` block;
2. **engine sequential cold** — ``SweepRunner(jobs=1)``, no artifact
   cache: the apples-to-apples baseline for the two gates below (same
   engine, so chunking bookkeeping cancels out of the comparison);
3. **parallel cold** — ``--jobs N`` workers with an empty cache directory:
   measures pool fan-out plus the cost of populating the cache.  The perf
   gate requires this to beat the engine sequential run (full mode):
   chunk sizing must not rebuild per-benchmark pipelines across workers.
   On a single-CPU machine, where no pool can beat sequential, the gate
   degrades to a bounded-overhead check (annotated in the report as
   ``parallel_cold_gate_mode``);
4. **parallel warm** — the same run again: pipelines and result pairs come
   from the content-addressed cache;
5. **resilient sequential** — ``jobs=1`` again but with the full resilience
   machinery armed (run journal, per-chunk timeout watchdog, retry budget):
   measures the happy-path overhead of checkpointing, which the perf gate
   requires to stay under 5% of the engine sequential run (with a small
   absolute floor so sub-second runs aren't judged on timer noise).

The four cold sweep runs are *interleaved* over min-of-N repetitions
(full mode; smoke runs one rep) — the bench containers drift slower as
a run heats up, so a later-vs-earlier comparison of single measurements
would gate on drift, not on the engine.  For the same reason the gated
comparisons (parallel cold and resilience vs engine sequential) pair
runs from the *same* repetition and take the best per-rep ratio, rather
than comparing minima that may come from different reps;
6. **backend comparison** — the cold end-to-end G-MAP pipeline (trace load
   → Fermi front end → profiling → proxy generation → proxy trace save)
   once per backend: the python reference from text traces, the numpy
   array core from binary ``.npz`` traces.  The gate requires numpy to be
   >= 3x faster, the two backends' profiles to be bit-identical, and
   their generated proxies to agree on the validation metric within the
   harness tolerance.  This gate runs in ``--smoke`` mode too — it is the
   CI check for the vectorized core;
7. **memsim comparison** — the flat-replay cache simulation alone (no
   profiling or generation in the timed region) over the reduced fig6a
   grid: the scalar event loop once per config vs one
   ``simulate_flat_multi`` one-pass numpy run.  Reps are interleaved and
   the headline is a ratio of minima, so scheduler noise cannot flip the
   gate.  Requires numpy >= 5x, miss counts bit-identical (the grid is
   LRU/no-prefetch, so no config falls back to the oracle), and the
   one-pass N-config run to beat two *independent* oracle single-config
   runs — the decode-once fan-out must pay for itself.  Runs in
   ``--smoke`` mode too.

8. **analytic comparison** — the O(histogram) analytic predictor
   (:mod:`repro.analytical.analytic`) over the same reduced fig6a grid
   and trace as the memsim comparison: the per-geometry scans of a
   ``numpy``-backend model (``prepare()``) are timed on their own and
   reported as ``timings.analytic_scan_s`` (ungated), then each rep times
   predicting every config from the histograms (``analytic_sweep_s``,
   which therefore excludes the scans).  The gate requires the analytic sweep to be
   >= 50x faster than the one-pass numpy memsim run, every per-point
   |Δ miss rate| vs the numpy truth to stay within the model's stated
   tolerance (L1 and L2), every grid config to be in-model, and a panel
   of deliberately out-of-scope configs (prefetcher, FIFO replacement)
   to *demonstrably* fall back with non-empty reason lists.  Runs in
   ``--smoke`` mode too.

All sweep runs must be bit-identical (the script verifies this); the
headline sweep number is ``sequential_cold / parallel_warm``, which the
repo's perf gate requires to be >= 3x.

Usage:
    python scripts/bench_perf.py [--jobs 4] [--smoke] [--out BENCH_sweep.json]
"""

from __future__ import annotations

import argparse
import datetime as _dt
import json
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.core.backend import numpy_available                  # noqa: E402
from repro.core.generator import ProxyGenerator                 # noqa: E402
from repro.core.profiler import (                               # noqa: E402
    GmapProfiler,
    unit_streams_from_warp_traces,
)
from repro.gpu.executor import collect_thread_traces            # noqa: E402
from repro.io.thread_trace_io import (                          # noqa: E402
    save_thread_traces,
    warp_traces_from_thread_file,
)
from repro.io.trace_io import save_warp_traces                  # noqa: E402
from repro.validation import sweeps                             # noqa: E402
from repro.validation.parallel import SweepRunner               # noqa: E402
from repro.workloads import suite                               # noqa: E402

SCHEMA_VERSION = 5
TARGET_SPEEDUP = 3.0
#: Required cold-pipeline advantage of the numpy backend over python.
BACKEND_TARGET_SPEEDUP = 3.0
#: Required flat-replay advantage of the array memsim engine over the
#: scalar event loop (ratio of per-rep minima on the reduced fig6a grid).
MEMSIM_TARGET_SPEEDUP = 5.0
#: Interleaved python/numpy repetitions for the memsim gate.
MEMSIM_REPS = 5
MEMSIM_BENCHMARK = "kmeans"
#: Required advantage of the analytic O(histogram) sweep over the one-pass
#: numpy memsim run on the same grid and trace.
ANALYTIC_TARGET_SPEEDUP = 50.0
#: Prediction repetitions for the analytic gate (cheap: milliseconds each).
ANALYTIC_REPS = 5
#: Max disagreement of the two backends' proxies on the validation metric
#: (the harness integration tests hold proxies to ~0.03-0.05 absolute).
BACKEND_PROXY_TOLERANCE = 0.05
#: Allowed cold-parallel overhead on machines with a single CPU, where the
#: pool cannot physically beat the sequential run and the gate degrades to
#: "fan-out bookkeeping stays cheap".  The single-CPU bench containers
#: drift monotonically slower within a round by up to ~35%, so the bound
#: only has to catch catastrophic regressions (the PR-4 chunking bug was
#: >2x), not container weather.
SINGLE_CPU_PARALLEL_OVERHEAD = 0.50
#: Max fractional happy-path cost of journal + watchdog + retry accounting.
RESILIENCE_OVERHEAD_TARGET = 0.05
#: Absolute noise floor: overhead under this many seconds always passes.
RESILIENCE_OVERHEAD_FLOOR_S = 0.25

DEFAULT_BENCHMARKS = ("kmeans", "backprop", "srad", "blackscholes")
SMOKE_BENCHMARKS = ("vectoradd", "kmeans")
BENCH_METRIC = "l1_miss_rate"


def _metric_matrix(sweeps_list, metric: str):
    """Nested metric lists [(benchmark, [original...], [proxy...])]."""
    return [
        (
            sweep.benchmark,
            [pair.original.metric(metric) for pair in sweep.pairs],
            [pair.proxy.metric(metric) for pair in sweep.pairs],
        )
        for sweep in sweeps_list
    ]


def _proxy_metric(launch, traces, num_cores: int) -> float:
    """Simulate one backend's generated proxy under the paper baseline."""
    from repro.gpu.executor import assign_warps_to_cores
    from repro.memsim.config import PAPER_BASELINE
    from repro.memsim.simulator import SimtSimulator

    assignments = assign_warps_to_cores(launch, traces, num_cores)
    config = PAPER_BASELINE.with_(num_cores=num_cores)
    return SimtSimulator(config).run(assignments).metric(BENCH_METRIC)


def _run_backend_pipeline(name, trace_path, backend, seed, mmap):
    """One benchmark's cold pipeline under one backend; returns artifacts.

    Everything downstream of trace collection is timed by the caller:
    load + front end, profiling, generation, and the proxy-trace save all
    dispatch on ``backend`` (the save format follows the trace format the
    backend would use: text for python, ``.npz`` for numpy).
    """
    traces, launch = warp_traces_from_thread_file(
        trace_path, backend=backend, mmap=mmap
    )
    units = unit_streams_from_warp_traces(traces)
    profiler = GmapProfiler(backend=backend)
    profile = profiler.profile_unit_streams(
        units, "warp", name=name,
        grid_dim=(launch.grid_dim.x, launch.grid_dim.y, launch.grid_dim.z),
        block_dim=(launch.block_dim.x, launch.block_dim.y, launch.block_dim.z),
    )
    generator = ProxyGenerator(profile, seed=seed, backend=backend)
    proxy = generator.generate_warp_traces()
    suffix = ".trace.npz" if backend == "numpy" else ".trace"
    save_warp_traces(proxy, Path(trace_path).parent / f"{name}-{backend}{suffix}")
    return profile, proxy, generator.launch_config()


def _bench_backends(kernels, workdir: Path, seed: int, num_cores: int,
                    reps: int = 2):
    """Cold end-to-end pipeline per backend over every benchmark.

    Trace export happens once, outside the timed region — it models the
    instrumentation step that produces the trace files a cold pipeline
    starts from.  A tiny warm-up pipeline runs per backend first so lazy
    module imports don't land inside either timed loop.  The two timed
    loops are interleaved over ``reps`` repetitions and reported as
    per-backend minima (scheduler noise on the bench containers dwarfs
    the 3x gate margin on a single draw).  Returns the timing pair plus
    the equivalence evidence.
    """
    warmup = suite.make("vectoradd", scale="tiny")
    for backend, suffix in (("python", ".ttrace"), ("numpy", ".ttrace.npz")):
        path = workdir / f"warmup{suffix}"
        save_thread_traces(collect_thread_traces(warmup), warmup.launch, path)
        _run_backend_pipeline("warmup", path, backend, seed,
                              mmap=backend == "numpy")

    exports = {}
    for kernel in kernels:
        thread_traces = collect_thread_traces(kernel)
        text = workdir / f"{kernel.name}.ttrace"
        binary = workdir / f"{kernel.name}.ttrace.npz"
        save_thread_traces(thread_traces, kernel.launch, text)
        save_thread_traces(thread_traces, kernel.launch, binary)
        exports[kernel.name] = (text, binary)

    profiles = {"python": {}, "numpy": {}}
    proxies = {"python": {}, "numpy": {}}
    timings = {"python": [], "numpy": []}
    for _ in range(reps):
        for backend in ("python", "numpy"):
            t0 = time.perf_counter()
            for kernel in kernels:
                text, binary = exports[kernel.name]
                trace_path = binary if backend == "numpy" else text
                profile, proxy, launch = _run_backend_pipeline(
                    kernel.name, trace_path, backend, seed,
                    mmap=backend == "numpy",
                )
                profiles[backend][kernel.name] = profile
                proxies[backend][kernel.name] = (launch, proxy)
            timings[backend].append(time.perf_counter() - t0)
    timings = {name: min(times) for name, times in timings.items()}

    profiles_match = all(
        profiles["python"][k.name].to_dict() == profiles["numpy"][k.name].to_dict()
        for k in kernels
    )
    proxy_delta = 0.0
    for kernel in kernels:
        py = _proxy_metric(*proxies["python"][kernel.name], num_cores)
        np_ = _proxy_metric(*proxies["numpy"][kernel.name], num_cores)
        proxy_delta = max(proxy_delta, abs(py - np_))
    return timings["python"], timings["numpy"], profiles_match, proxy_delta


def _sequential_cold(kernels, configs, num_cores: int):
    """Serial cold baseline with per-stage wall-time attribution.

    Runs the exact code path ``SweepRunner(jobs=1, use_cache=False)``
    takes per benchmark — :func:`build_pipeline` then :func:`run_sweep`
    with identical defaults — so the stage breakdown costs no extra run
    and the results stay comparable with the pooled runs.  Returns
    ``(sweeps, total_seconds, stage_seconds)``: ``profile_s`` is the one
    kernel execution plus the profile statistics, ``generate_s`` proxy
    generation alone (the pipeline's ``profiling_seconds`` and
    ``generation_seconds``), ``memsim_s`` the sweep.
    """
    from repro.validation.harness import build_pipeline, run_sweep

    results = []
    stages = {"profile_s": 0.0, "generate_s": 0.0, "memsim_s": 0.0}
    t0 = time.perf_counter()
    for kernel in kernels:
        pipeline = build_pipeline(kernel, num_cores=num_cores)
        stages["profile_s"] += pipeline.profiling_seconds
        stages["generate_s"] += pipeline.generation_seconds
        m0 = time.perf_counter()
        results.append(run_sweep(pipeline, configs))
        stages["memsim_s"] += time.perf_counter() - m0
    return results, time.perf_counter() - t0, stages


def _bench_memsim(configs, num_cores: int, reps: int = MEMSIM_REPS):
    """Flat-replay engine comparison on the reduced fig6a grid.

    One kmeans trace is decoded from the kernel model, then each rep times
    (a) the scalar oracle once per config, (b) one one-pass numpy
    ``simulate_flat_multi`` over all configs, and (c) two *independent*
    oracle single-config replays — interleaved, so drift hits all three
    alike, with ratios taken over per-series minima.  Returns the timing
    triple plus the bit-identity verdict of the final rep.
    """
    from repro.gpu.executor import execute_kernel, flat_drain
    from repro.memsim.simulator import simulate_flat_trace
    from repro.memsim.vectorized import simulate_flat_multi

    kernel = suite.make(MEMSIM_BENCHMARK, scale="tiny")
    traces = flat_drain(execute_kernel(kernel, num_cores))
    configs = [c.with_(num_cores=num_cores) for c in configs]

    # Warm-up outside the timed region: lazy imports and the array decode.
    simulate_flat_trace(traces, configs[0], backend="python")
    simulate_flat_multi(traces, configs[:1], backend="numpy")

    python_times, numpy_times, single_times = [], [], []
    python_results = numpy_results = None
    for _ in range(reps):
        t0 = time.perf_counter()
        python_results = [
            simulate_flat_trace(traces, c, backend="python") for c in configs
        ]
        t1 = time.perf_counter()
        numpy_results = simulate_flat_multi(traces, configs, backend="numpy")
        t2 = time.perf_counter()
        for config in configs[:2]:
            simulate_flat_trace(traces, config, backend="python")
        t3 = time.perf_counter()
        python_times.append(t1 - t0)
        numpy_times.append(t2 - t1)
        single_times.append(t3 - t2)
    results_match = all(
        py.to_dict() == np_.to_dict()
        for py, np_ in zip(python_results, numpy_results)
    )
    return (min(python_times), min(numpy_times), min(single_times),
            results_match)


def _bench_analytic(configs, num_cores: int, reps: int = ANALYTIC_REPS):
    """Analytic O(histogram) sweep vs the numpy memsim truth.

    Uses the same kernel, trace shape, and grid as :func:`_bench_memsim`
    so the reported speedup divides like-for-like.  The per-geometry
    reuse scans (``prepare()`` on the ``numpy`` backend) are timed apart
    from the predictions — the analytic twin of the memsim decode
    warm-up: both are one-time costs a sweep amortizes over its configs.
    Returns ``(analytic_seconds, scan_seconds, max_miss_rate_delta,
    tolerance, all_in_model, fallbacks_demonstrated)``, both times the
    minimum over ``reps``.
    """
    import dataclasses

    from repro.analytical.analytic import (
        ANALYTIC_MISS_RATE_TOLERANCE,
        AnalyticCacheModel,
    )
    from repro.gpu.executor import execute_kernel, flat_drain
    from repro.memsim.capabilities import fallback_reasons
    from repro.memsim.vectorized import simulate_flat_multi

    kernel = suite.make(MEMSIM_BENCHMARK, scale="tiny")
    traces = flat_drain(execute_kernel(kernel, num_cores))
    configs = [c.with_(num_cores=num_cores) for c in configs]

    scan_times = []
    for _ in range(reps):
        model = AnalyticCacheModel.from_flat(traces, "numpy")
        t0 = time.perf_counter()
        model.prepare(configs)
        scan_times.append(time.perf_counter() - t0)
    all_in_model = not any(model.applicability(c) for c in configs)

    times = []
    predictions = []
    for _ in range(reps):
        t0 = time.perf_counter()
        predictions = [model.predict(c) for c in configs]
        times.append(time.perf_counter() - t0)

    truths = simulate_flat_multi(traces, configs, backend="numpy")
    max_delta = 0.0
    for predicted, truth in zip(predictions, truths):
        max_delta = max(
            max_delta,
            abs(predicted.l1_miss_rate - truth.l1_miss_rate),
            abs(predicted.l2_miss_rate - truth.l2_miss_rate),
        )

    # Out-of-scope configs must demonstrably fall back, not mispredict:
    # every feature the model cannot capture has to produce a reason.
    from repro.memsim.config import PrefetcherConfig

    base = configs[0]
    out_of_scope = [
        base.with_(l1_prefetcher=PrefetcherConfig(kind="stride")),
        base.with_(l2_prefetcher=PrefetcherConfig(kind="stream")),
        base.with_(l1=dataclasses.replace(base.l1, replacement="fifo")),
        base.with_(l2=dataclasses.replace(base.l2, replacement="random")),
    ]
    fallbacks_demonstrated = all(
        fallback_reasons(config, "analytic") and model.applicability(config)
        for config in out_of_scope
    )
    return (min(times), min(scan_times), max_delta,
            ANALYTIC_MISS_RATE_TOLERANCE, all_in_model,
            fallbacks_demonstrated)


def validate_schema(payload: dict) -> None:
    """Assert the BENCH_sweep.json layout downstream tooling relies on."""
    required = {
        "schema_version": int,
        "experiment": str,
        "generated_at": str,
        "jobs": int,
        "cpu_count": int,
        "scale": str,
        "backend_scale": str,
        "num_cores": int,
        "benchmarks": list,
        "num_configs": int,
        "timings": dict,
        "speedup_parallel_warm": float,
        "target_speedup": float,
        "meets_target": bool,
        "meets_parallel_cold": bool,
        "results_match": bool,
        "resilience_overhead": float,
        "resilience_overhead_target": float,
        "meets_resilience_target": bool,
        "speedup_backend": float,
        "backend_target_speedup": float,
        "meets_backend_target": bool,
        "backend_results_match": bool,
        "backend_proxy_max_delta": float,
        "backend_proxy_tolerance": float,
        "meets_backend_proxy_tolerance": bool,
        "parallel_cold_gate_mode": str,
        "memsim_speedup": float,
        "memsim_target_speedup": float,
        "meets_memsim_target": bool,
        "memsim_results_match": bool,
        "meets_memsim_one_pass": bool,
        "memsim_reps": int,
        "bench_reps": int,
        "analytic_speedup": float,
        "analytic_target_speedup": float,
        "meets_analytic_target": bool,
        "analytic_max_miss_rate_delta": float,
        "analytic_miss_rate_tolerance": float,
        "meets_analytic_tolerance": bool,
        "analytic_all_in_model": bool,
        "analytic_fallbacks_demonstrated": bool,
        "analytic_reps": int,
    }
    for key, kind in required.items():
        if key not in payload:
            raise AssertionError(f"BENCH_sweep.json missing key {key!r}")
        if not isinstance(payload[key], kind):
            raise AssertionError(
                f"BENCH_sweep.json key {key!r}: expected {kind.__name__}, "
                f"got {type(payload[key]).__name__}"
            )
    for key in ("sequential_cold_s", "engine_sequential_cold_s",
                "parallel_cold_s", "parallel_warm_s",
                "resilient_sequential_s", "backend_python_cold_s",
                "backend_numpy_cold_s", "stage_profile_s", "stage_generate_s",
                "stage_memsim_s", "memsim_python_cold_s",
                "memsim_numpy_cold_s", "memsim_two_singles_s",
                "analytic_sweep_s"):
        if not isinstance(payload["timings"].get(key), float):
            raise AssertionError(f"timings missing float key {key!r}")
    # Optional (absent from schema-v5 files recorded before it existed).
    if not isinstance(payload["timings"].get("analytic_scan_s", 0.0), float):
        raise AssertionError("timings key 'analytic_scan_s' must be a float")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=4,
                        help="worker processes for the parallel runs")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny grid for CI: checks the parallel path, the "
                             "JSON schema, and the backend gate; skips the "
                             "sweep speedup gates")
    parser.add_argument("--out", default=str(REPO / "BENCH_sweep.json"),
                        help="output JSON path")
    parser.add_argument("--scale", default="tiny",
                        help="workload scale preset for the benchmark kernels")
    parser.add_argument("--backend-scale", default="small",
                        help="workload scale for the backend comparison (the "
                             "vectorized advantage needs non-trivial traces)")
    parser.add_argument("--cores", type=int, default=8,
                        help="simulated SM count")
    parser.add_argument("--benchmarks", nargs="*", default=None,
                        help="benchmark subset to sweep")
    parser.add_argument("--no-gate", action="store_true",
                        help="report the speedups but never fail on them")
    args = parser.parse_args()

    if not numpy_available():
        print("bench: numpy is unavailable; the backend gate cannot run")
        return 1

    names = args.benchmarks or list(
        SMOKE_BENCHMARKS if args.smoke else DEFAULT_BENCHMARKS
    )
    kernels = [suite.make(name, scale=args.scale) for name in names]
    configs = sweeps.l1_sweep(reduced=True)
    if args.smoke:
        configs = configs[:3]
    metric = BENCH_METRIC

    cache_dir = tempfile.mkdtemp(prefix="gmap-bench-cache-")
    trace_dir = tempfile.mkdtemp(prefix="gmap-bench-traces-")
    try:
        print(f"bench: reduced fig6a sweep, {len(names)} benchmarks x "
              f"{len(configs)} configs, scale={args.scale}, "
              f"cores={args.cores}, jobs={args.jobs}")

        reps = 1 if args.smoke else 2
        instr_times, engine_times, cold_times, res_times = [], [], [], []
        seq = engine = par_cold = resilient = None
        stage_seconds = {}
        for _ in range(reps):
            seq, instr_s, rep_stages = _sequential_cold(
                kernels, configs, num_cores=args.cores)
            if not instr_times or instr_s < min(instr_times):
                stage_seconds = rep_stages  # attribution of the min rep
            instr_times.append(instr_s)
            t0 = time.perf_counter()
            engine = SweepRunner(jobs=1, use_cache=False).run(
                kernels, configs, num_cores=args.cores)
            engine_times.append(time.perf_counter() - t0)
            # The resilience comparison (engine vs engine+journal) runs
            # back-to-back, BEFORE the fork pool: the pool's fork storm
            # leaves the container throttled for seconds afterwards, which
            # would be billed to whatever runs next.
            journal_dir = tempfile.mkdtemp(prefix="gmap-bench-journal-")
            try:
                t0 = time.perf_counter()
                resilient = SweepRunner(
                    jobs=1, use_cache=False, journal=True,
                    journal_dir=journal_dir, timeout=600.0, retries=2,
                ).run(kernels, configs, num_cores=args.cores)
                res_times.append(time.perf_counter() - t0)
            finally:
                shutil.rmtree(journal_dir, ignore_errors=True)
            shutil.rmtree(cache_dir, ignore_errors=True)
            Path(cache_dir).mkdir(parents=True, exist_ok=True)
            t0 = time.perf_counter()
            par_cold = SweepRunner(jobs=args.jobs, use_cache=True,
                                   cache_dir=cache_dir).run(
                kernels, configs, num_cores=args.cores)
            cold_times.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        par_warm = SweepRunner(jobs=args.jobs, use_cache=True,
                               cache_dir=cache_dir).run(
            kernels, configs, num_cores=args.cores)
        parallel_warm = time.perf_counter() - t0

        backend_kernels = [
            suite.make(name, scale=args.backend_scale) for name in names
        ]
        (backend_python, backend_numpy,
         backend_results_match, proxy_delta) = _bench_backends(
            backend_kernels, Path(trace_dir), seed=1234,
            num_cores=args.cores)

        memsim_configs = sweeps.l1_sweep(reduced=True)
        (memsim_python, memsim_numpy, memsim_two_singles,
         memsim_results_match) = _bench_memsim(
            memsim_configs, num_cores=args.cores)

        (analytic_s, analytic_scan_s, analytic_delta, analytic_tolerance,
         analytic_all_in_model, analytic_fallbacks_ok) = _bench_analytic(
            memsim_configs, num_cores=args.cores)

        sequential_cold = min(instr_times)
        engine_sequential = min(engine_times)
        parallel_cold = min(cold_times)
        resilient_sequential = min(res_times)
        # Gated comparisons pair each rep's runs and take the best rep:
        # the container drifts monotonically slower WITHIN a round, so
        # "min(resilient) vs min(engine)" can bill one rep's late-round
        # throttling to another rep's early-round baseline.  Per-rep
        # ratios keep the comparands seconds apart instead.
        overhead = min(
            (res - eng) / eng
            for eng, res in zip(engine_times, res_times) if eng > 0
        )
        meets_resilience = (
            overhead <= RESILIENCE_OVERHEAD_TARGET
            or min(res - eng for eng, res in zip(engine_times, res_times))
            <= RESILIENCE_OVERHEAD_FLOOR_S
        )

        results_match = (
            _metric_matrix(seq, metric)
            == _metric_matrix(engine, metric)
            == _metric_matrix(par_cold, metric)
            == _metric_matrix(par_warm, metric)
            == _metric_matrix(resilient, metric)
        )
        speedup = (sequential_cold / parallel_warm
                   if parallel_warm > 0 else float("inf"))
        backend_speedup = (backend_python / backend_numpy
                           if backend_numpy > 0 else float("inf"))
        memsim_speedup = (memsim_python / memsim_numpy
                          if memsim_numpy > 0 else float("inf"))
        analytic_speedup = (memsim_numpy / analytic_s
                            if analytic_s > 0 else float("inf"))
        meets_memsim_one_pass = memsim_numpy <= memsim_two_singles
        cpu_count = os.cpu_count() or 1
        parallel_cold_ratio = min(
            cold / eng
            for eng, cold in zip(engine_times, cold_times) if eng > 0
        )
        if cpu_count >= 2:
            parallel_cold_gate_mode = "beat-sequential"
            meets_parallel_cold = parallel_cold_ratio <= 1.0
        else:
            # One CPU: no pool can beat sequential, so require only that
            # fan-out bookkeeping stays cheap — and annotate the report so
            # downstream readers know the gate was degraded, not passed.
            parallel_cold_gate_mode = "single-cpu-bounded-overhead"
            meets_parallel_cold = (
                parallel_cold_ratio <= 1.0 + SINGLE_CPU_PARALLEL_OVERHEAD
            )
        meets_proxy_tolerance = proxy_delta <= BACKEND_PROXY_TOLERANCE
        cache_entries = sum(
            1
            for pattern in ("*.json.gz", "*.npz")
            for p in Path(cache_dir).rglob(pattern)
            if p.is_file()
        )

        payload = {
            "schema_version": SCHEMA_VERSION,
            "experiment": "fig6a-reduced",
            "generated_at": _dt.datetime.now(_dt.timezone.utc).isoformat(),
            "jobs": args.jobs,
            "cpu_count": cpu_count,
            "scale": args.scale,
            "backend_scale": args.backend_scale,
            "num_cores": args.cores,
            "benchmarks": names,
            "num_configs": len(configs),
            "bench_reps": reps,
            "timings": {
                "sequential_cold_s": round(sequential_cold, 4),
                "engine_sequential_cold_s": round(engine_sequential, 4),
                "parallel_cold_s": round(parallel_cold, 4),
                "parallel_warm_s": round(parallel_warm, 4),
                "resilient_sequential_s": round(resilient_sequential, 4),
                "backend_python_cold_s": round(backend_python, 4),
                "backend_numpy_cold_s": round(backend_numpy, 4),
                "stage_profile_s": round(stage_seconds["profile_s"], 4),
                "stage_generate_s": round(stage_seconds["generate_s"], 4),
                "stage_memsim_s": round(stage_seconds["memsim_s"], 4),
                "memsim_python_cold_s": round(memsim_python, 4),
                "memsim_numpy_cold_s": round(memsim_numpy, 4),
                "memsim_two_singles_s": round(memsim_two_singles, 4),
                "analytic_sweep_s": round(analytic_s, 6),
                "analytic_scan_s": round(analytic_scan_s, 6),
            },
            "speedup_parallel_warm": round(speedup, 2),
            "target_speedup": TARGET_SPEEDUP,
            "meets_target": bool(speedup >= TARGET_SPEEDUP),
            "meets_parallel_cold": bool(meets_parallel_cold),
            "parallel_cold_gate_mode": parallel_cold_gate_mode,
            "results_match": bool(results_match),
            "resilience_overhead": round(overhead, 4),
            "resilience_overhead_target": RESILIENCE_OVERHEAD_TARGET,
            "meets_resilience_target": bool(meets_resilience),
            "speedup_backend": round(backend_speedup, 2),
            "backend_target_speedup": BACKEND_TARGET_SPEEDUP,
            "meets_backend_target": bool(
                backend_speedup >= BACKEND_TARGET_SPEEDUP),
            "backend_results_match": bool(backend_results_match),
            "backend_proxy_max_delta": round(proxy_delta, 4),
            "backend_proxy_tolerance": BACKEND_PROXY_TOLERANCE,
            "meets_backend_proxy_tolerance": bool(meets_proxy_tolerance),
            "memsim_speedup": round(memsim_speedup, 2),
            "memsim_target_speedup": MEMSIM_TARGET_SPEEDUP,
            "meets_memsim_target": bool(
                memsim_speedup >= MEMSIM_TARGET_SPEEDUP),
            "memsim_results_match": bool(memsim_results_match),
            "meets_memsim_one_pass": bool(meets_memsim_one_pass),
            "memsim_reps": MEMSIM_REPS,
            "analytic_speedup": round(analytic_speedup, 2),
            "analytic_target_speedup": ANALYTIC_TARGET_SPEEDUP,
            "meets_analytic_target": bool(
                analytic_speedup >= ANALYTIC_TARGET_SPEEDUP),
            "analytic_max_miss_rate_delta": round(analytic_delta, 4),
            "analytic_miss_rate_tolerance": analytic_tolerance,
            "meets_analytic_tolerance": bool(
                analytic_delta <= analytic_tolerance),
            "analytic_all_in_model": bool(analytic_all_in_model),
            "analytic_fallbacks_demonstrated": bool(analytic_fallbacks_ok),
            "analytic_reps": ANALYTIC_REPS,
            "cache_entries": cache_entries,
            "smoke": bool(args.smoke),
        }
        validate_schema(payload)
        out = Path(args.out)
        out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")

        print(f"  sequential cold : {sequential_cold:8.2f}s  "
              f"(profile {stage_seconds['profile_s']:.2f}s, generate "
              f"{stage_seconds['generate_s']:.2f}s, memsim "
              f"{stage_seconds['memsim_s']:.2f}s; min of {reps} rep(s))")
        print(f"  engine seq cold : {engine_sequential:8.2f}s  "
              f"(SweepRunner jobs=1, gate baseline)")
        print(f"  parallel   cold : {parallel_cold:8.2f}s  (jobs={args.jobs}, "
              f"cache populated: {cache_entries} entries)")
        print(f"  parallel   warm : {parallel_warm:8.2f}s")
        print(f"  resilient  seq  : {resilient_sequential:8.2f}s  "
              f"(journal + watchdog + retries armed)")
        print(f"  speedup (warm)  : {speedup:8.2f}x  (target "
              f">= {TARGET_SPEEDUP}x)")
        print(f"  resilience cost : {overhead * 100:7.2f}%  (target "
              f"<= {RESILIENCE_OVERHEAD_TARGET * 100:.0f}% or "
              f"<= {RESILIENCE_OVERHEAD_FLOOR_S}s absolute)")
        print(f"  results match   : {results_match}")
        print(f"  pipeline python : {backend_python:8.2f}s  "
              f"(text traces, scalar kernels, scale={args.backend_scale})")
        print(f"  pipeline numpy  : {backend_numpy:8.2f}s  "
              f"(.npz traces, array kernels, scale={args.backend_scale})")
        print(f"  speedup backend : {backend_speedup:8.2f}x  (target "
              f">= {BACKEND_TARGET_SPEEDUP}x)")
        print(f"  profiles match  : {backend_results_match}  "
              f"(bit-identical across backends)")
        print(f"  proxy max delta : {proxy_delta:8.4f}  ({metric}, "
              f"tolerance <= {BACKEND_PROXY_TOLERANCE})")
        print(f"  memsim python   : {memsim_python:8.2f}s  (scalar loop x "
              f"{len(memsim_configs)} configs, min of {MEMSIM_REPS} reps)")
        print(f"  memsim numpy    : {memsim_numpy:8.2f}s  (one-pass "
              f"{len(memsim_configs)}-config flat replay)")
        print(f"  speedup memsim  : {memsim_speedup:8.2f}x  (target "
              f">= {MEMSIM_TARGET_SPEEDUP}x)")
        print(f"  memsim match    : {memsim_results_match}  "
              f"(bit-identical miss counts across engines)")
        print(f"  one-pass gate   : {memsim_numpy:.2f}s vs "
              f"{memsim_two_singles:.2f}s for 2 oracle singles "
              f"({'OK' if meets_memsim_one_pass else 'SLOWER'})")
        print(f"  analytic sweep  : {analytic_s * 1e3:8.2f}ms  "
              f"({len(memsim_configs)}-config O(histogram) predict, min of "
              f"{ANALYTIC_REPS} reps)")
        print(f"  analytic scans  : {analytic_scan_s * 1e3:8.2f}ms  "
              f"(per-geometry numpy scans, prepare(); billed apart from "
              f"the predict-only sweep above, ungated)")
        print(f"  speedup analytic: {analytic_speedup:8.2f}x  vs one-pass "
              f"numpy memsim (target >= {ANALYTIC_TARGET_SPEEDUP:.0f}x)")
        print(f"  analytic delta  : {analytic_delta:8.4f}  max |Δ miss rate| "
              f"L1+L2 vs numpy truth (tolerance <= {analytic_tolerance})")
        print(f"  analytic scope  : in-model={analytic_all_in_model}, "
              f"out-of-scope fallbacks demonstrated={analytic_fallbacks_ok}")
        print(f"wrote {out}")

        if not results_match:
            print("FAIL: parallel/cached/resilient results differ from "
                  "sequential")
            return 1
        if not backend_results_match:
            print("FAIL: numpy-backend profiles differ from the python "
                  "reference")
            return 1
        if not meets_proxy_tolerance and not args.no_gate:
            print(f"FAIL: backend proxy disagreement {proxy_delta:.4f} "
                  f"exceeds {BACKEND_PROXY_TOLERANCE} tolerance")
            return 1
        if not payload["meets_backend_target"] and not args.no_gate:
            print(f"FAIL: numpy backend speedup {backend_speedup:.2f}x "
                  f"below target {BACKEND_TARGET_SPEEDUP}x")
            return 1
        if not memsim_results_match:
            print("FAIL: array memsim miss counts differ from the scalar "
                  "oracle")
            return 1
        if not payload["meets_memsim_target"] and not args.no_gate:
            print(f"FAIL: memsim speedup {memsim_speedup:.2f}x below "
                  f"target {MEMSIM_TARGET_SPEEDUP}x")
            return 1
        if not meets_memsim_one_pass and not args.no_gate:
            print(f"FAIL: one-pass {len(memsim_configs)}-config run "
                  f"({memsim_numpy:.2f}s) slower than 2 independent oracle "
                  f"singles ({memsim_two_singles:.2f}s)")
            return 1
        if not analytic_all_in_model:
            print("FAIL: a reduced-fig6a config fell outside the analytic "
                  "model — the gate grid must predict, not replay")
            return 1
        if not analytic_fallbacks_ok:
            print("FAIL: an out-of-scope config (prefetcher / non-LRU) did "
                  "not produce analytic fallback reasons")
            return 1
        if not payload["meets_analytic_tolerance"] and not args.no_gate:
            print(f"FAIL: analytic max |Δ miss rate| {analytic_delta:.4f} "
                  f"exceeds {analytic_tolerance} tolerance")
            return 1
        if not payload["meets_analytic_target"] and not args.no_gate:
            print(f"FAIL: analytic speedup {analytic_speedup:.2f}x below "
                  f"target {ANALYTIC_TARGET_SPEEDUP:.0f}x")
            return 1
        if args.smoke:
            print("smoke OK: parallel path completed, schema valid, "
                  "backend + memsim + analytic gates passed")
            return 0
        if not payload["meets_target"] and not args.no_gate:
            print(f"FAIL: speedup {speedup:.2f}x below target "
                  f"{TARGET_SPEEDUP}x")
            return 1
        if not meets_parallel_cold and not args.no_gate:
            bound = ("1.00x" if cpu_count >= 2 else
                     f"{1.0 + SINGLE_CPU_PARALLEL_OVERHEAD:.2f}x "
                     f"(single-CPU machine)")
            print(f"FAIL: parallel cold is {parallel_cold_ratio:.2f}x the "
                  f"engine sequential cold of the same rep, bound {bound}")
            return 1
        if not meets_resilience and not args.no_gate:
            print(f"FAIL: resilience overhead {overhead * 100:.2f}% exceeds "
                  f"{RESILIENCE_OVERHEAD_TARGET * 100:.0f}% target")
            return 1
        return 0
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
        shutil.rmtree(trace_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
