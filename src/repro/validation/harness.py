"""Original-vs-proxy validation harness.

Runs the paper's experiment structure: for each benchmark, profile once
(profiles are configuration-independent — "profiling is a one-time cost",
section 5), generate the proxy once, then simulate both the original and the
proxy across a configuration sweep and compare metrics per configuration.

The harness is the engine behind every Figure 6/7/8 bench target and the
`gmap validate` CLI command.

Three simulation modes drive each sweep point (``sim_mode``):

``simt``
    the default latency-feedback SIMT loop (:meth:`SimtSimulator.run`) —
    warp scheduling reacts to simulated latency, so the interleaving is
    order-dependent and always runs the scalar oracle;
``flat``
    fixed-order replay of Algorithm 2's round-robin drain
    (:func:`~repro.gpu.executor.flat_drain`): the interleaving is static,
    so both streams go through the engine chain
    (:func:`~repro.memsim.vectorized.simulate_flat_runs`), the array
    engine on numpy, else the scalar oracle, one decode per stream for
    the whole sweep (:func:`replay_sweep`);
``analytic``
    the same chain with the analytic engine first: the flat traces are
    scanned once per cache geometry into exact per-set stack-distance
    histograms and every configuration both streams' models accept is
    predicted in O(histogram)
    (:class:`~repro.analytical.analytic.AnalyticCacheModel`); the rest
    replay, with the reasons recorded in the sweep's
    ``analytic_fallbacks`` matrix (:func:`analytic_sweep`).

A one-config flat or analytic pair is ``run_sweep(pipeline, [config],
sim_mode=...)``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union,
)

from repro.core.backend import resolve_backend
from repro.core.cache import ArtifactCache, resolve_cache
from repro.core.generator import ProxyGenerator
from repro.core.miniaturize import miniaturize_profile
from repro.core.profile import GmapProfile
from repro.core.profiler import GmapProfiler
from repro.gpu.executor import (
    CoreAssignment,
    assigned_warp_traces,
    assignments_from_traces,
    execute_kernel,
    flat_drain,
)
from repro.gpu.instructions import AccessTuple
from repro.memsim.capabilities import merge_reasons
from repro.memsim.config import SimConfig
from repro.memsim.simulator import SimtSimulator
from repro.memsim.stats import SimResult
from repro.validation.metrics import SweepComparison
from repro.validation.resilience import ChunkFailure
from repro.workloads.base import KernelModel

if TYPE_CHECKING:
    from repro.analytical.analytic import AnalyticCacheModel

#: Simulation modes a sweep point can run under.
SIM_MODES: Tuple[str, ...] = ("simt", "flat", "analytic")


def resolve_sim_mode(sim_mode: Optional[str]) -> str:
    """Normalise a simulation-mode request; ``None`` means ``"simt"``."""
    mode = (sim_mode or "simt").lower()
    if mode not in SIM_MODES:
        raise ValueError(
            f"sim_mode must be one of {SIM_MODES}, got {sim_mode!r}"
        )
    return mode


@dataclass
class BenchmarkPipeline:
    """Cached per-benchmark artifacts shared across a sweep.

    The original's warp traces and the proxy's generated warp traces do not
    depend on cache/prefetcher/DRAM parameters (only on core count and
    residency), so they are built once and re-simulated per configuration.

    ``profiling_seconds`` covers the one kernel execution (the front end
    whose warp traces become both the original and the profiler's input)
    plus the profile statistics and their verification;
    ``generation_seconds`` covers proxy generation alone.

    ``cache_key`` identifies the pipeline in the artifact cache (set
    whenever ``build_pipeline`` ran with a cache); ``from_cache`` records
    whether this instance was rehydrated rather than computed.
    """

    kernel: KernelModel
    profile: GmapProfile
    original_assignments: List[CoreAssignment]
    proxy_assignments: List[CoreAssignment]
    profiling_seconds: float
    generation_seconds: float
    cache_key: Optional[str] = None
    from_cache: bool = False
    #: Memoized flat drains (built on first ``flat``-mode use; the drain is
    #: deterministic, so caching it per pipeline is free parallel-safety).
    _original_flat: Optional[List[List[AccessTuple]]] = field(
        default=None, repr=False, compare=False)
    _proxy_flat: Optional[List[List[AccessTuple]]] = field(
        default=None, repr=False, compare=False)
    #: Memoized analytic models over the flat drains (``analytic`` mode),
    #: keyed by ``(stream, backend)``; the model memoizes its own
    #: per-geometry scans, so one instance serves every configuration of
    #: every sweep on this pipeline.
    _models: Dict[Tuple[str, str], "AnalyticCacheModel"] = field(
        default_factory=dict, repr=False, compare=False)
    #: Memoized :attr:`proxy_is_original` (``None`` until first asked).
    _proxy_is_original: Optional[bool] = field(
        default=None, repr=False, compare=False)

    @property
    def name(self) -> str:
        return self.kernel.name

    @property
    def proxy_is_original(self) -> bool:
        """Whether the proxy's simulated input is the original's.

        When every distribution of a profile is a point mass, Algorithm 1
        samples the original stream back.  Only the fields the simulators
        read are compared: each core's ``core_id`` and, per wave, the
        ordered ``(warp_id, block, transactions)`` of its warps.  Where
        this holds, every engine simulates the stream once and hands the
        proxy a copy of the original's result.
        """
        if self._proxy_is_original is None:
            self._proxy_is_original = _same_simulated_input(
                self.original_assignments, self.proxy_assignments)
        return self._proxy_is_original

    def original_flat(self) -> List[List[AccessTuple]]:
        """The original's fixed-order per-core traces (Algorithm 2 drain)."""
        if self._original_flat is None:
            self._original_flat = flat_drain(self.original_assignments)
        return self._original_flat

    def proxy_flat(self) -> List[List[AccessTuple]]:
        """The proxy's fixed-order per-core traces (Algorithm 2 drain)."""
        if self.proxy_is_original:
            return self.original_flat()
        if self._proxy_flat is None:
            self._proxy_flat = flat_drain(self.proxy_assignments)
        return self._proxy_flat

    def original_model(
        self, backend: Optional[str] = None
    ) -> "AnalyticCacheModel":
        """Analytic reuse model over the original's flat traces."""
        return self._model("original", self.original_flat, backend)

    def proxy_model(self, backend: Optional[str] = None) -> "AnalyticCacheModel":
        """Analytic reuse model over the proxy's flat traces."""
        if self.proxy_is_original:
            return self.original_model(backend)
        return self._model("proxy", self.proxy_flat, backend)

    def _model(self, stream: str, flat, backend: Optional[str]):
        from repro.analytical.analytic import AnalyticCacheModel

        key = (stream, resolve_backend(backend))
        model = self._models.get(key)
        if model is None:
            model = self._models[key] = AnalyticCacheModel.from_flat(
                flat(), key[1])
        return model


def _same_simulated_input(
    original: Sequence[CoreAssignment], proxy: Sequence[CoreAssignment]
) -> bool:
    """Equal core ids, wave shapes and ``(warp_id, block, transactions)``."""
    if len(original) != len(proxy):
        return False
    for core, other in zip(original, proxy):
        if (core.core_id != other.core_id
                or len(core.waves) != len(other.waves)):
            return False
        for wave, other_wave in zip(core.waves, other.waves):
            if len(wave) != len(other_wave):
                return False
            for warp, other_warp in zip(wave, other_wave):
                if (warp.warp_id != other_warp.warp_id
                        or warp.block != other_warp.block
                        or warp.transactions != other_warp.transactions):
                    return False
    return True


def load_target(
    target: str,
    num_cores: int,
    scale: str = "small",
    backend: Optional[str] = None,
) -> List[CoreAssignment]:
    """The core assignments of one ``simulate`` target.

    A warp-trace file (``.trace``, ``.trace.gz`` or ``.trace.npz``) is
    placed on ``num_cores`` cores; any other target names a suite
    benchmark, executed at ``scale`` on ``backend``'s front end.  This is
    the one loader of ``gmap simulate`` and the service's simulate job.
    """
    if target.endswith((".trace", ".trace.gz", ".trace.npz")):
        from repro.io.trace_io import load_warp_traces

        return assignments_from_traces(load_warp_traces(target), num_cores)
    from repro.workloads import suite

    return execute_kernel(
        suite.make(target, scale=scale), num_cores, backend=backend)


def build_pipeline(
    kernel: KernelModel,
    num_cores: int = 15,
    max_blocks_per_core: int = 8,
    seed: int = 1234,
    scale_factor: float = 1.0,
    profiler: Optional[GmapProfiler] = None,
    stride_model: str = "iid",
    cache: Union[None, bool, ArtifactCache] = None,
    verify: bool = True,
    backend: Optional[str] = None,
) -> BenchmarkPipeline:
    """Profile a kernel and generate its proxy, ready for simulation.

    ``scale_factor`` miniaturizes the proxy (Figure 8); 1.0 keeps the clone
    the same size as the original.  ``stride_model`` selects the paper's IID
    stride sampling or the first-order Markov refinement.

    ``backend`` selects the implementation of the profiling and generation
    kernels (:mod:`repro.core.backend`): ``"python"`` is the pure-python
    reference, ``"numpy"`` the vectorized array core.  Profiles are
    bit-identical across backends; the generated proxy is statistically
    equivalent but not bit-identical (different RNG streams), so the
    backend participates in the pipeline cache key.  When an explicit
    ``profiler`` is passed its own backend wins for the profile statistics.

    The kernel executes once: the original's warp traces are the profiler's
    input whenever the profiler coalesces at the executor's segment size
    (the default).  A profiler with ``coalescing=False`` or another
    ``segment_size`` runs its own front end.

    ``cache`` (None/False off, True for the default location, or an
    :class:`~repro.core.cache.ArtifactCache`) memoizes the profile and both
    warp-trace sets on disk: a warm hit skips profiling, original execution
    and proxy generation entirely.

    With ``verify`` (the default), the statistical profile is checked
    against the 5-tuple invariants (``gmap check``'s verify pass) the
    moment it is built or rehydrated — a malformed profile raises
    :class:`~repro.analysis.verify.ProfileVerificationError` here, in
    milliseconds, instead of corrupting a multi-hour sweep downstream.
    """
    backend = resolve_backend(backend)
    profiler = profiler or GmapProfiler(backend=backend)
    cache = resolve_cache(cache)
    key = None
    if cache is not None:
        key = cache.pipeline_key(
            kernel,
            seed=seed,
            scale_factor=scale_factor,
            stride_model=stride_model,
            num_cores=num_cores,
            max_blocks_per_core=max_blocks_per_core,
            coalescing=getattr(profiler, "coalescing", True),
            backend=backend,
        )
        cached = cache.load_pipeline(key, backend)
        if cached is not None:
            profile, original, proxy, meta = cached
            if verify:
                _verify_profile_or_raise(profile, kernel.name)
            return BenchmarkPipeline(
                kernel=kernel,
                profile=profile,
                original_assignments=original,
                proxy_assignments=proxy,
                profiling_seconds=meta.get("profiling_seconds", 0.0),
                generation_seconds=meta.get("generation_seconds", 0.0),
                cache_key=key,
                from_cache=True,
            )
    t0 = time.perf_counter()
    original = execute_kernel(
        kernel, num_cores, max_blocks_per_core, backend=backend)
    if profiler.reads_executed_warps:
        profile = profiler.profile(
            kernel, warp_traces=assigned_warp_traces(original))
    else:
        profile = profiler.profile(kernel)
    if verify:
        _verify_profile_or_raise(profile, kernel.name)
    t1 = time.perf_counter()
    if scale_factor != 1.0:
        profile_for_generation = miniaturize_profile(profile, scale_factor)
    else:
        profile_for_generation = profile
    generator = ProxyGenerator(
        profile_for_generation, seed=seed, stride_model=stride_model,
        backend=backend,
    )
    proxy = generator.generate(num_cores, max_blocks_per_core=max_blocks_per_core)
    t2 = time.perf_counter()
    pipeline = BenchmarkPipeline(
        kernel=kernel,
        profile=profile,
        original_assignments=original,
        proxy_assignments=proxy,
        profiling_seconds=t1 - t0,
        generation_seconds=t2 - t1,
        cache_key=key,
    )
    if cache is not None and key is not None:
        cache.store_pipeline(
            key, backend, profile, original, proxy,
            meta={
                "benchmark": kernel.name,
                "profiling_seconds": pipeline.profiling_seconds,
                "generation_seconds": pipeline.generation_seconds,
            },
        )
    return pipeline


def _verify_profile_or_raise(profile: GmapProfile, benchmark: str) -> None:
    from repro.analysis.verify import ProfileVerificationError, verify_profile

    findings = verify_profile(profile, origin=f"<profile {benchmark}>")
    if findings:
        raise ProfileVerificationError(findings)


@dataclass
class RunPair:
    """Original and proxy simulation results for one configuration.

    ``analytic`` marks pairs predicted by the O(histogram) reuse model
    rather than replayed; an ``analytic``-mode sweep point that fell back
    to replay carries ``analytic=False`` plus its reasons in the owning
    sweep's ``analytic_fallbacks``.
    """

    config: SimConfig
    original: SimResult
    proxy: SimResult
    analytic: bool = False


def simulate_pair(
    pipeline: BenchmarkPipeline,
    config: SimConfig,
    track_scheduling: bool = True,
    cache: Union[None, bool, ArtifactCache] = None,
) -> RunPair:
    """Simulate original and proxy under one configuration (SIMT loop).

    When the configuration uses a non-LRR scheduler, the proxy is driven by
    the paper's ``SchedP_self`` abstraction (section 4.5): the original run
    is simulated under the real policy, its empirical probability of
    back-to-back same-warp issue is measured, and the proxy is scheduled
    with that probability.  Otherwise, when the pipeline's
    :attr:`~BenchmarkPipeline.proxy_is_original` holds, the proxy's result
    is a copy of the original's: same input, same configuration, same
    result, simulated once.

    With a ``cache`` and a pipeline that carries a ``cache_key``, the whole
    result pair is memoized per configuration — a warm sweep point costs one
    cache read instead of two simulations.  The pair cache holds SIMT pairs
    only: a flat or analytic pair is ``run_sweep(pipeline, [config],
    sim_mode=...)``, which never reads or writes it.
    """
    cache = resolve_cache(cache)
    pair_key = None
    if cache is not None and pipeline.cache_key is not None:
        pair_key = cache.pair_key(pipeline.cache_key, config, track_scheduling)
        cached = cache.load_pair(pair_key)
        if cached is not None:
            original, proxy = cached
            return RunPair(config=config, original=original, proxy=proxy)
    original = SimtSimulator(config).run(pipeline.original_assignments)
    proxy_config = config
    if track_scheduling and config.scheduler.lower() not in ("lrr",):
        proxy_config = config.with_(
            scheduler="schedpself", sched_p_self=original.measured_p_self
        )
    if proxy_config == config and pipeline.proxy_is_original:
        proxy = original.copy()
    else:
        proxy = SimtSimulator(proxy_config).run(pipeline.proxy_assignments)
    if cache is not None and pair_key is not None:
        cache.store_pair(pair_key, original, proxy)
    return RunPair(config=config, original=original, proxy=proxy)


@dataclass
class SweepResult:
    """All per-configuration pairs of one benchmark's sweep.

    ``failures`` records chunks that exhausted their retries under the
    resilient sweep engine — the sweep is then *partial*: ``pairs`` holds
    only the configurations that completed.

    ``analytic_fallbacks`` is the engine chain's fallback matrix: one
    ``{"config": fingerprint, "reasons": [...]}`` entry per sweep config
    that an engine of the chain declined — the reuse model in
    ``analytic`` mode, then the array engine on numpy (empty for
    ``simt`` sweeps, and wherever the first engine took every config).
    """

    benchmark: str
    pairs: List[RunPair] = field(default_factory=list)
    failures: List[ChunkFailure] = field(default_factory=list)
    analytic_fallbacks: List[Dict[str, object]] = field(default_factory=list)

    @property
    def is_partial(self) -> bool:
        return bool(self.failures)

    def comparison(self, metric: str) -> SweepComparison:
        return SweepComparison(
            benchmark=self.benchmark,
            metric=metric,
            originals=[p.original.metric(metric) for p in self.pairs],
            proxies=[p.proxy.metric(metric) for p in self.pairs],
        )


def replay_sweep(
    pipeline: BenchmarkPipeline,
    configs: Sequence[SimConfig],
    backend: Optional[str] = None,
) -> SweepResult:
    """Fixed-order replay of both streams under every config.

    Each stream goes through the engine chain once
    (:func:`~repro.memsim.vectorized.simulate_flat_runs`): on numpy it is
    decoded once and every config the array engine supports reuses the
    arrays; the rest, and every config on python, replay the scalar
    oracle.  Configs the array engine declined carry its reasons in
    ``analytic_fallbacks``.
    """
    return _chain_sweep(pipeline, configs, backend, analytic=False)


def analytic_sweep(
    pipeline: BenchmarkPipeline,
    configs: Sequence[SimConfig],
    backend: Optional[str] = None,
) -> SweepResult:
    """O(histogram) sweep with per-config fallback to flat replay.

    :func:`replay_sweep` with the analytic engine first in the chain:
    every config inside both streams' memoized reuse models is predicted
    from the per-geometry scans, the rest replay, and their refusal
    reasons are recorded in ``analytic_fallbacks`` — the sweep-level
    mirror of the ``gmap-sweep`` artifact's ``fallbacks``, so a caller can
    always tell which points are model predictions and why the others are
    not.  ``backend`` picks both the models' scans (``numpy``: the array
    scan; ``python``: the scalar oracle, bit-identical) and the fallback
    replay engine.
    """
    return _chain_sweep(pipeline, configs, backend, analytic=True)


def _chain_sweep(
    pipeline: BenchmarkPipeline,
    configs: Sequence[SimConfig],
    backend: Optional[str],
    analytic: bool,
) -> SweepResult:
    """Both streams through the engine chain; a proxy that is the original
    (:attr:`BenchmarkPipeline.proxy_is_original`) gets copies of the
    original's runs.  Each stream passes both streams' models, so a pair
    is predicted only when both models accept its config."""
    from repro.core.cache import config_fingerprint
    from repro.memsim.vectorized import simulate_flat_runs

    models: Tuple["AnalyticCacheModel", ...] = ()
    if analytic:
        models = (pipeline.original_model(backend),
                  pipeline.proxy_model(backend))
    originals = simulate_flat_runs(
        pipeline.original_flat(), configs, backend, analytic, models)
    if pipeline.proxy_is_original:
        proxies = [(engine, result.copy(), reasons)
                   for engine, result, reasons in originals]
    else:
        proxies = simulate_flat_runs(
            pipeline.proxy_flat(), configs, backend, analytic, models[::-1])
    result = SweepResult(benchmark=pipeline.name)
    for config, (engine, original, reasons), (_, proxy, proxy_reasons) in zip(
        configs, originals, proxies
    ):
        result.pairs.append(RunPair(config=config, original=original,
                                    proxy=proxy,
                                    analytic=engine == "analytic"))
        reasons = merge_reasons(reasons, proxy_reasons)
        if reasons:
            result.analytic_fallbacks.append(
                {"config": config_fingerprint(config), "reasons": reasons})
    return result


def run_sweep(
    pipeline: BenchmarkPipeline,
    configs: Sequence[SimConfig],
    cache: Union[None, bool, ArtifactCache] = None,
    sim_mode: str = "simt",
    backend: Optional[str] = None,
) -> SweepResult:
    """Simulate one benchmark's original and proxy across a sweep.

    ``sim_mode="flat"`` runs both streams through the engine chain
    (:func:`replay_sweep`); ``sim_mode="analytic"`` puts the analytic
    engine first in it (:func:`analytic_sweep`).  ``simt`` simulates
    each config with :func:`simulate_pair`.
    """
    mode = resolve_sim_mode(sim_mode)
    if mode != "simt":
        return _chain_sweep(pipeline, configs, backend, mode == "analytic")
    cache = resolve_cache(cache)
    result = SweepResult(benchmark=pipeline.name)
    for config in configs:
        result.pairs.append(simulate_pair(pipeline, config, cache=cache))
    return result


@dataclass
class ExperimentReport:
    """Aggregated per-benchmark and overall statistics for one experiment.

    ``failures`` carries every quarantined chunk of the underlying sweeps;
    a report with failures is *partial* and must not be presented as a
    complete campaign (``gmap validate`` exits nonzero on it).
    """

    metric: str
    comparisons: List[SweepComparison]
    failures: List[ChunkFailure] = field(default_factory=list)
    run_id: Optional[str] = None

    @property
    def is_partial(self) -> bool:
        return bool(self.failures)

    @property
    def mean_error(self) -> float:
        if not self.comparisons:
            return 0.0
        return sum(c.mean_abs_error for c in self.comparisons) / len(self.comparisons)

    @property
    def mean_correlation(self) -> float:
        if not self.comparisons:
            return 1.0
        return sum(c.correlation for c in self.comparisons) / len(self.comparisons)

    def rows(self) -> List[tuple]:
        return [c.row() for c in self.comparisons]

    def format_table(self) -> str:
        lines = [f"{'benchmark':<18} {'err':>8} {'corr':>7}"]
        for name, err, corr in self.rows():
            lines.append(f"{name:<18} {err * 100:7.2f}% {corr:7.3f}")
        lines.append(
            f"{'AVERAGE':<18} {self.mean_error * 100:7.2f}% "
            f"{self.mean_correlation:7.3f}"
        )
        return "\n".join(lines)


def run_experiment(
    kernels: Sequence[KernelModel],
    configs: Sequence[SimConfig],
    metric: str,
    seed: int = 1234,
    num_cores: int = 15,
    jobs: int = 1,
    use_cache: bool = False,
    cache_dir=None,
    timeout: Optional[float] = None,
    retries: int = 2,
    journal=None,
    journal_dir=None,
    run_id: Optional[str] = None,
    resume: bool = False,
    backend: Optional[str] = None,
    sim_mode: str = "simt",
) -> ExperimentReport:
    """The full per-figure evaluation loop: all benchmarks x all configs.

    ``jobs`` > 1 fans (benchmark, config-chunk) sweep points over a process
    pool via :class:`~repro.validation.parallel.SweepRunner` — results are
    bit-identical to the serial run (each sweep point is self-contained and
    seeded).  ``use_cache`` enables the on-disk artifact
    cache (``cache_dir`` overrides its location).

    The resilience knobs (``timeout``, ``retries``, ``journal``/``run_id``/
    ``journal_dir``, ``resume``) are forwarded to the sweep engine — see
    :class:`~repro.validation.parallel.SweepRunner`.  The resolved run id is
    available afterwards on the returned report as ``report.run_id`` when
    journaling was active.

    ``backend`` picks the profiling/generation implementation (python
    reference or vectorized numpy array core) and is forwarded to every
    worker's ``build_pipeline`` so a parallel run uses one backend
    throughout; ``None`` defers to ``GMAP_BACKEND``/default.  With
    ``sim_mode="flat"`` the backend also drives the memsim replay, and each
    worker chunk runs as a one-pass multi-config sweep.
    """
    from repro.validation.parallel import SweepRunner

    runner = SweepRunner(
        jobs=jobs, use_cache=use_cache, cache_dir=cache_dir,
        timeout=timeout, retries=retries,
        journal=journal, journal_dir=journal_dir, run_id=run_id,
        resume=resume,
    )
    report = runner.run_experiment(
        kernels, configs, metric, seed=seed, num_cores=num_cores,
        backend=backend, sim_mode=sim_mode,
    )
    report.run_id = runner.last_run_id
    return report
