"""Sweep workloads: cold original-vs-proxy sweeps through the validation path.

Each pass is what ``run_experiment(jobs=1)`` runs without an artifact
cache: :class:`~repro.validation.parallel.SweepRunner` builds every
benchmark's pipeline (profile, execute, generate the proxy), then simulates
original and proxy at every sweep point, each on an empty simulated memory
system, and the report folds the points into the paper's error and
correlation.  The runner is called directly, with the arguments
``run_experiment`` passes it, because the report drops the per-point
:class:`~repro.memsim.stats.SimResult` objects the correctness checks hash.
"""

from __future__ import annotations

import resource
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analytical.analytic import AnalyticCacheModel
from repro.core.generator import ProxyGenerator
from repro.core.profiler import GmapProfiler
from repro.gpu import scheduler
from repro.memsim.cache import SetAssociativeCache
from repro.memsim.config import SimConfig
from repro.memsim.dram import DramModel
from repro.memsim.hierarchy import MemoryHierarchy
from repro.memsim.mshr import MshrFile
from repro.memsim.prefetcher import StreamPrefetcher, StridePrefetcher
from repro.memsim.simulator import SimtSimulator
from repro.memsim.stats import SimResult
from repro.validation import harness, parallel
from repro.validation import sweeps as grids
from repro.validation.harness import ExperimentReport, SweepResult
from repro.validation.parallel import SweepRunner
from repro.workloads import suite

from bench import stats
from bench.calibrate import HostClock
from bench.digest import result_digest
from bench.tracing import Tracer

#: Simulated SM count of every sweep workload.
NUM_CORES = 8
#: Cache geometries the analytic L1 check replays per run.
GEOMETRIES_PER_RUN = 2


@dataclass(frozen=True)
class SweepSpec:
    """One sweep workload: benchmarks x grid under one simulation mode."""

    benchmarks: Tuple[str, ...]
    scale: str
    #: ``(sweep function in repro.validation.sweeps, keep or None = full)``.
    grids: Tuple[Tuple[str, Optional[int]], ...]
    metric: str
    sim_mode: str
    backend: str

    def kernels(self, smoke: bool) -> list:
        names = self.benchmarks[:2] if smoke else self.benchmarks
        return [suite.make(name, scale=self.scale) for name in names]

    def configs(self, smoke: bool) -> List[SimConfig]:
        configs: List[SimConfig] = []
        for name, keep in self.grids:
            make = getattr(grids, name)
            configs += make(reduced=True, keep=keep) if keep else make()
        # Smoke keeps both ends, so a mixed grid keeps one point of each.
        return [configs[0], configs[-1]] if smoke else configs


WORKLOADS: Dict[str, SweepSpec] = {
    "fig6a-simt": SweepSpec(
        benchmarks=("kmeans", "backprop", "srad", "blackscholes"),
        scale="tiny", grids=(("l1_sweep", 6),), metric="l1_miss_rate",
        sim_mode="simt", backend="python"),
    "dram-prefetch-simt": SweepSpec(
        benchmarks=("srad", "streamcluster", "bfs", "nw"),
        scale="tiny", grids=(("l2_prefetcher_sweep", 4), ("dram_sweep", 3)),
        metric="dram_rbl", sim_mode="simt", backend="python"),
    "analytic-small": SweepSpec(
        benchmarks=("kmeans", "backprop", "srad", "blackscholes"),
        scale="small", grids=(("l1_sweep", None), ("l2_sweep", None)),
        metric="l1_miss_rate", sim_mode="analytic", backend="numpy"),
}

#: Per-layer metrics a traced sweep run reports.
LAYER_METRICS = (
    "simulator.run.s", "simulator.run.self_s", "simulator.requests",
    "simulator.ns_per_request",
    "scheduler.select.s", "scheduler.select.calls",
    "hierarchy.access.self_s", "hierarchy.access.calls",
    "l1.access.s", "l1.access.calls", "l1.hit_ratio",
    "l2.access.s", "l2.access.calls", "l2.hit_ratio",
    "mshr.lookup.s", "mshr.allocate.s", "mshr.merge_ratio", "mshr.stalls",
    "prefetcher.observe.s", "prefetcher.observe.calls",
    "prefetcher.useful_ratio",
    "dram.access.s", "dram.access.calls", "dram.row_hit_ratio",
    "dram.queue_len_mean",
    "profiler.profile.s", "executor.execute_kernel.s",
    "executor.flat_drain.s", "generator.generate.s",
    "harness.build_pipeline.self_s",
    "analytic.from_flat.s", "analytic.predict.s", "analytic.predict.calls",
    "analytic.fallback_configs",
    "fidelity.proxy_err", "fidelity.proxy_corr", "trace.overhead_ratio",
)


# -- one pass ---------------------------------------------------------------


@dataclass
class Pass:
    """One cold sweep over every benchmark and config."""

    #: Reference seconds (see :mod:`bench.calibrate`).
    seconds: float
    wall_s: float
    slowness: float
    sweeps: List[SweepResult]
    report: ExperimentReport


def run_pass(spec: SweepSpec, kernels: Sequence[Any],
             configs: Sequence[SimConfig], seed: int) -> Pass:
    """Time one cold sweep, report included, as ``run_experiment`` runs it."""
    with HostClock() as clock:
        sweeps = SweepRunner(jobs=1, use_cache=False, retries=2).run(
            kernels, configs, seed=seed, num_cores=NUM_CORES,
            backend=spec.backend, sim_mode=spec.sim_mode)
        report = ExperimentReport(
            metric=spec.metric,
            comparisons=[sweep.comparison(spec.metric) for sweep in sweeps],
            failures=[f for sweep in sweeps for f in sweep.failures])
    return Pass(clock.seconds, clock.wall_s, clock.slowness, sweeps, report)


def prepare(spec: SweepSpec, smoke: bool) -> Tuple[list, List[SimConfig]]:
    """Set-up: generate inputs and warm lazy imports on a throwaway sweep."""
    kernels = spec.kernels(smoke)
    configs = spec.configs(smoke)
    warm = [suite.make("vectoradd", scale="tiny")]
    SweepRunner(jobs=1, use_cache=False).run(
        warm, configs[:1], num_cores=NUM_CORES, backend=spec.backend,
        sim_mode=spec.sim_mode)
    return kernels, configs


# -- correctness --------------------------------------------------------------


def point_digests(configs: Sequence[SimConfig],
                  sweeps: Sequence[SweepResult]) -> Dict[str, str]:
    """``"<benchmark>#<config index>" -> digest`` of both streams' results.

    A sweep missing points (a quarantined chunk) contributes none.
    """
    digests = {}
    for sweep in sweeps:
        if len(sweep.pairs) != len(configs):
            continue
        for index, pair in enumerate(sweep.pairs):
            digests[f"{sweep.benchmark}#{index}"] = result_digest({
                "original": pair.original.to_dict(),
                "proxy": pair.proxy.to_dict(),
            })
    return digests


def mismatches(expected: Dict[str, str], actual: Dict[str, str]) -> int:
    """Points of ``expected`` that ``actual`` lacks or hashes differently."""
    return sum(1 for key, value in expected.items()
               if actual.get(key) != value)


def _l1_counts(result: SimResult) -> Tuple[int, int, int]:
    return result.l1.accesses, result.l1.hits, result.l1.misses


def check_analytic_l1(spec: SweepSpec, kernels: Sequence[Any],
                      configs: Sequence[SimConfig], seed: int,
                      sweeps: Sequence[SweepResult]) -> int:
    """Predicted L1 counts vs a numpy flat replay of the same configs.

    The analytic L1 walk is exact, so for every cache geometry (line size,
    set count) it must reproduce the replay's accesses, hits and misses on
    both streams.  Replaying all twelve geometries costs more than the
    measured passes, so each run checks :data:`GEOMETRIES_PER_RUN` of them,
    picked by the seed; consecutive seeds cover them all.  Returns the
    number of mismatching points.
    """
    first: Dict[Tuple[int, int], int] = {}
    for index, config in enumerate(configs):
        first.setdefault((config.l1.line_size, config.l1.num_sets), index)
    geometries = sorted(first)
    picked = [first[geometries[(seed + step * len(geometries)
                                // GEOMETRIES_PER_RUN) % len(geometries)]]
              for step in range(min(GEOMETRIES_PER_RUN, len(geometries)))]
    failed = 0
    for kernel, sweep in zip(kernels, sweeps):
        if len(sweep.pairs) != len(configs):
            continue  # already counted as missing points
        pipeline = harness.build_pipeline(
            kernel, num_cores=NUM_CORES, seed=seed, backend=spec.backend)
        replay = harness.run_sweep(pipeline, [configs[i] for i in picked],
                                   sim_mode="flat", backend="numpy")
        for index, truth in zip(picked, replay.pairs):
            pair = sweep.pairs[index]
            if (_l1_counts(pair.original) != _l1_counts(truth.original)
                    or _l1_counts(pair.proxy) != _l1_counts(truth.proxy)):
                failed += 1
    return failed


# -- tracing -------------------------------------------------------------------


def _cache_label(cache: SetAssociativeCache) -> str:
    if cache.name.startswith("L1"):
        return "l1.access"
    return "l2.access" if cache.name == "L2" else "cache.access"


def _count_hits(label: str, result: Tuple[bool, Any]) -> Dict[str, float]:
    return {f"{label}.hits": 1} if result[0] else {}


def _count_merges(_label: str, result: Optional[float]) -> Dict[str, float]:
    return {"mshr.merges": 1} if result is not None else {}


def _count_stalls(_label: str, result: Tuple[float, float]) -> Dict[str, float]:
    return {"mshr.stalls": 1} if result[0] > 0 else {}


def _count_simulation(_label: str, result: SimResult) -> Dict[str, float]:
    l1, l2, dram = result.l1, result.l2, result.dram
    return {
        "simulator.requests": result.requests_issued,
        "prefetch.hits": l1.prefetch_hits + l2.prefetch_hits,
        "prefetch.fills": l1.prefetch_fills + l2.prefetch_fills,
        "dram.requests": dram.requests,
        "dram.row_hits": dram.row_hits,
        "dram.queue_len_sum": dram.queue_len_sum,
        "dram.queue_samples": dram.queue_samples,
    }


def install_wrappers(tracer: Tracer) -> None:
    """Wrap every sweep layer's public entry points (see README's map).

    Functions a consumer imported by name are patched in that consumer:
    the runner calls ``build_pipeline``/``simulate_pair``/``analytic_sweep``
    from :mod:`repro.validation.parallel`, and the pipeline calls
    ``execute_kernel``/``flat_drain`` from :mod:`repro.validation.harness`.
    """
    tracer.patch(parallel, "build_pipeline", "harness.build_pipeline",
                 span=True)
    tracer.patch(parallel, "simulate_pair", "harness.simulate_pair",
                 span=True)
    tracer.patch(parallel, "analytic_sweep", "harness.analytic_sweep",
                 span=True)
    tracer.patch(harness, "execute_kernel", "executor.execute_kernel",
                 span=True)
    tracer.patch(harness, "flat_drain", "executor.flat_drain", span=True)
    tracer.patch(GmapProfiler, "profile", "profiler.profile", span=True)
    tracer.patch(ProxyGenerator, "generate", "generator.generate", span=True)
    tracer.patch(SimtSimulator, "run", "simulator.run", span=True,
                 observe=_count_simulation)
    tracer.patch(AnalyticCacheModel, "from_flat", "analytic.from_flat",
                 span=True)
    tracer.patch(AnalyticCacheModel, "predict", "analytic.predict",
                 span=True)
    for policy in (scheduler.LrrScheduler, scheduler.GtoScheduler,
                   scheduler.SchedPselfScheduler,
                   scheduler.TwoLevelScheduler):
        tracer.patch(policy, "select", "scheduler.select")
    tracer.patch(MemoryHierarchy, "access", "hierarchy.access")
    tracer.patch(SetAssociativeCache, "access", "cache.access",
                 label=_cache_label, observe=_count_hits)
    tracer.patch(MshrFile, "lookup", "mshr.lookup", observe=_count_merges)
    tracer.patch(MshrFile, "allocate", "mshr.allocate",
                 observe=_count_stalls)
    tracer.patch(StridePrefetcher, "observe", "prefetcher.observe")
    tracer.patch(StreamPrefetcher, "observe", "prefetcher.observe")
    tracer.patch(DramModel, "access", "dram.access")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, passes: int,
                  scale: float) -> Dict[str, float]:
    """Per-pass layer numbers from a tracer that watched ``passes`` passes.

    ``scale`` turns the tracer's wall seconds into reference seconds.
    """
    c = tracer.counters
    per = 1.0 / passes

    def total(name: str) -> float:
        return tracer.total(name) * scale * per

    def self_time(name: str) -> float:
        return tracer.self_time(name) * scale * per

    def calls(name: str) -> float:
        return tracer.calls(name) * per

    requests = c.get("simulator.requests", 0) * per
    return {
        "simulator.run.s": total("simulator.run"),
        "simulator.run.self_s": self_time("simulator.run"),
        "simulator.requests": requests,
        "simulator.ns_per_request": _ratio(
            total("simulator.run") * 1e9, requests),
        "scheduler.select.s": total("scheduler.select"),
        "scheduler.select.calls": calls("scheduler.select"),
        "hierarchy.access.self_s": self_time("hierarchy.access"),
        "hierarchy.access.calls": calls("hierarchy.access"),
        "l1.access.s": total("l1.access"),
        "l1.access.calls": calls("l1.access"),
        "l1.hit_ratio": _ratio(c.get("l1.access.hits", 0),
                               tracer.calls("l1.access")),
        "l2.access.s": total("l2.access"),
        "l2.access.calls": calls("l2.access"),
        "l2.hit_ratio": _ratio(c.get("l2.access.hits", 0),
                               tracer.calls("l2.access")),
        "mshr.lookup.s": total("mshr.lookup"),
        "mshr.allocate.s": total("mshr.allocate"),
        "mshr.merge_ratio": _ratio(c.get("mshr.merges", 0),
                                   tracer.calls("mshr.lookup")),
        "mshr.stalls": c.get("mshr.stalls", 0) * per,
        "prefetcher.observe.s": total("prefetcher.observe"),
        "prefetcher.observe.calls": calls("prefetcher.observe"),
        "prefetcher.useful_ratio": _ratio(c.get("prefetch.hits", 0),
                                          c.get("prefetch.fills", 0)),
        "dram.access.s": total("dram.access"),
        "dram.access.calls": calls("dram.access"),
        "dram.row_hit_ratio": _ratio(c.get("dram.row_hits", 0),
                                     c.get("dram.requests", 0)),
        "dram.queue_len_mean": _ratio(c.get("dram.queue_len_sum", 0),
                                      c.get("dram.queue_samples", 0)),
        "profiler.profile.s": total("profiler.profile"),
        "executor.execute_kernel.s": total("executor.execute_kernel"),
        "executor.flat_drain.s": total("executor.flat_drain"),
        "generator.generate.s": total("generator.generate"),
        "harness.build_pipeline.self_s": self_time("harness.build_pipeline"),
        "analytic.from_flat.s": total("analytic.from_flat"),
        "analytic.predict.s": total("analytic.predict"),
        "analytic.predict.calls": calls("analytic.predict"),
    }


# -- the workload -----------------------------------------------------------


def _timed_passes(spec: SweepSpec, kernels: Sequence[Any],
                  configs: Sequence[SimConfig], seed: int, seconds: float,
                  smoke: bool, tracer: Tracer) -> Tuple[List[Pass], float]:
    """Passes until ``seconds`` have elapsed: at least two (one in smoke).

    Also returns the peak RSS in MB when the last of those first passes
    ended.  Every run makes them, while a slow host fits fewer passes in
    ``seconds``, and the sweep engine's pipeline cache grows over the
    first three passes; reading the peak here keeps it independent of
    the host's speed.
    """
    least = 1 if smoke else 2
    passes: List[Pass] = []
    base = tracer.run_id
    started = time.perf_counter()
    while (len(passes) < least
           or (not smoke and time.perf_counter() - started < seconds)):
        tracer.run_id = f"{base}:pass{len(passes)}"
        with tracer.span("pass"):
            passes.append(run_pass(spec, kernels, configs, seed))
        if len(passes) == least:
            rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return passes, rss_mb


def _end_to_end(passes: Sequence[Pass], rss_mb: float) -> Dict[str, float]:
    seconds = [p.seconds for p in passes]
    pairs = [pair for p in passes for sweep in p.sweeps for pair in sweep.pairs]
    requests = sum(pair.original.requests_issued + pair.proxy.requests_issued
                   for pair in pairs)
    return {
        "run_s": stats.median(seconds),
        # Each point answers two simulation requests: original and proxy.
        "req_per_s": 2 * len(pairs) / sum(seconds),
        "sim_mreq_per_s": requests / sum(seconds) / 1e6,
        # A sweep is one batch: every answer arrives when its pass returns.
        "lat_p50_ms": stats.percentile(seconds, 50) * 1e3,
        "lat_p95_ms": stats.percentile(seconds, 95) * 1e3,
        "peak_rss_mb": rss_mb,
    }


def run(spec: SweepSpec, name: str, seed: int, seconds: float, trace: bool,
        smoke: bool, kernels: Sequence[Any], configs: List[SimConfig],
        expected: Optional[Dict[str, str]],
        trace_path: Optional[str]) -> Dict[str, Any]:
    """Measure the workload: ``{"metrics", "attempted", "failed", "details"}``.

    Untraced runs report the end-to-end metrics and install no wrapper.  A
    traced run first makes one untraced pass, the overhead baseline and the
    reference its traced passes must reproduce bit for bit.
    """
    points = len(kernels) * len(configs)
    baseline = run_pass(spec, kernels, configs, seed) if trace else None
    with Tracer(f"{name}:seed{seed}") as tracer:
        if trace:
            install_wrappers(tracer)
        passes, rss_mb = _timed_passes(spec, kernels, configs, seed,
                                       seconds, smoke, tracer)

    reference = baseline or passes[0]
    digests = point_digests(configs, reference.sweeps)
    failed = points - len(digests)
    for p in passes:
        if p is not reference:
            seen = point_digests(configs, p.sweeps)
            failed += points - len(seen) + mismatches(digests, seen)
    if expected is not None:
        failed += mismatches(expected, digests)
    if spec.sim_mode == "analytic":
        failed += check_analytic_l1(spec, kernels, configs, seed,
                                    reference.sweeps)
    details: Dict[str, Any] = {
        "pass_seconds": [round(p.seconds, 6) for p in passes],
        "pass_wall_seconds": [round(p.wall_s, 6) for p in passes],
        "pass_slowness": [round(p.slowness, 4) for p in passes],
        "points_per_pass": points,
        "proxy_err": reference.report.mean_error,
        "proxy_corr": reference.report.mean_correlation,
        "digests": digests,
    }
    result = {"attempted": points * (len(passes) + (baseline is not None)),
              "failed": failed, "details": details}
    if baseline is None:
        return {"metrics": _end_to_end(passes, rss_mb), **result}

    # The traced calls ran in the passes' wall time, slices included.
    scale = (sum(p.seconds for p in passes)
             / sum(p.wall_s for p in passes))
    metrics = layer_metrics(tracer, len(passes), scale)
    metrics["analytic.fallback_configs"] = sum(
        len(s.analytic_fallbacks) for s in reference.sweeps)
    metrics["fidelity.proxy_err"] = reference.report.mean_error
    metrics["fidelity.proxy_corr"] = reference.report.mean_correlation
    metrics["trace.overhead_ratio"] = (
        stats.median([p.seconds for p in passes]) / baseline.seconds)
    details["untraced_pass_seconds"] = round(baseline.seconds, 6)
    if trace_path:
        tracer.write_jsonl(trace_path)
        details["trace_file"] = trace_path
    return {"metrics": metrics, **result}
