"""Parallel sweep engine: fan (benchmark, config) points over processes.

Every G-MAP evaluation (Figures 6a-6e, 7, 8) is a configuration sweep —
tens of :class:`~repro.memsim.config.SimConfig` points, each simulating the
original and the proxy stream.  The points are mutually independent and
deterministic, which makes the sweep embarrassingly parallel *as long as the
expensive per-benchmark pipeline is not rebuilt per point*.

:class:`SweepRunner` therefore chunks each benchmark's config list into
contiguous slices and ships (benchmark, config-slice) tasks to a
``concurrent.futures.ProcessPoolExecutor``.  Each worker process memoizes
the deserialized :class:`~repro.validation.harness.BenchmarkPipeline` per
benchmark, so every chunk after the first reuses it; with the artifact
cache enabled (``use_cache=True``) even the first build in each worker is a
disk read.  Results are reassembled in submission order, so a ``jobs=N``
run is bit-identical to ``jobs=1``.

Long campaigns treat partial failure as the common case, so execution is
wrapped in a resilience layer (:mod:`repro.validation.resilience`):

* completed chunks are journaled to disk (``journal=``/``run_id=``) and a
  ``resume=True`` run skips them, reassembling bit-identical results;
* each chunk gets a watchdog ``timeout`` and up to ``retries`` retries with
  exponential backoff; a crashed worker (broken pool) only re-runs the
  chunks that had not finished, never the completed ones;
* a chunk that fails every retry becomes a structured
  :class:`~repro.validation.resilience.ChunkFailure` attached to the sweep
  results instead of an unhandled exception aborting the campaign.

A same-process fallback covers ``jobs=1``, single-task runs, and platforms
where process pools fail (pickling restrictions, missing semaphores): the
engine degrades to a plain loop with identical results.  That serial loop
owns its pipelines: a benchmark's pipeline is built on its first chunk,
reused by its later chunks and retries, and dropped once its last chunk
completes or is quarantined (or the loop raises), so a returned run leaves
nothing reachable from module state and at most one benchmark's working set
is resident at a time.  Only pool workers use the process-local memo below;
pools are created per run, so it dies with them.
"""

from __future__ import annotations

import os
import pickle
import time
import uuid
from collections import Counter, OrderedDict
from concurrent.futures import CancelledError, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.backend import resolve_backend
from repro.core.cache import (
    ArtifactCache,
    config_fingerprint,
    kernel_fingerprint,
    resolve_cache,
    sim_result_from_payload,
    sim_result_to_payload,
)
from repro.core.integrity import CorruptArtifactError
from repro.memsim.config import SimConfig
from repro.validation.harness import (
    BenchmarkPipeline,
    ExperimentReport,
    RunPair,
    SweepResult,
    analytic_sweep,
    build_pipeline,
    replay_sweep,
    resolve_sim_mode,
    simulate_pair,
)
from repro.validation.resilience import (
    FAILURE_CORRUPT_ARTIFACT,
    FAILURE_SIMULATION_ERROR,
    FAILURE_TIMEOUT,
    FAILURE_WORKER_CRASH,
    ChunkExecutionError,
    ChunkFailure,
    RunJournal,
    derive_run_id,
    maybe_corrupt_artifact,
    maybe_inject_worker_fault,
)
from repro.workloads.base import KernelModel

#: Broken process pools are rebuilt at most this many times before the
#: engine falls back to in-process execution for the remaining chunks.
MAX_POOL_REBUILDS = 3


@dataclass(frozen=True)
class _SweepChunk:
    """One worker unit: a contiguous config slice of one benchmark's sweep."""

    run_token: str
    kernel_index: int
    config_offset: int
    kernel: KernelModel
    configs: Tuple[SimConfig, ...]
    seed: int
    num_cores: int
    max_blocks_per_core: int
    scale_factor: float
    stride_model: str
    track_scheduling: bool
    use_cache: bool
    cache_dir: Optional[str]
    backend: str = "python"
    sim_mode: str = "simt"


def _chunk_id(chunk: _SweepChunk) -> Tuple[int, int]:
    return chunk.kernel_index, chunk.config_offset


#: Pool-worker pipeline memo, keyed by (run token, kernel index) and
#: LRU-bounded so long multi-benchmark sweeps don't hold every trace set.
#: The serial path never touches it: it passes its own per-run store.
_WORKER_PIPELINES: "OrderedDict[Tuple[str, int], BenchmarkPipeline]" = OrderedDict()
_WORKER_PIPELINE_CAP = 8


def _chunk_cache(chunk: _SweepChunk) -> Optional[ArtifactCache]:
    return ArtifactCache(chunk.cache_dir) if chunk.use_cache else None


def _build_chunk_pipeline(chunk: _SweepChunk) -> BenchmarkPipeline:
    return build_pipeline(
        chunk.kernel,
        num_cores=chunk.num_cores,
        max_blocks_per_core=chunk.max_blocks_per_core,
        seed=chunk.seed,
        scale_factor=chunk.scale_factor,
        stride_model=chunk.stride_model,
        cache=_chunk_cache(chunk),
        backend=chunk.backend,
    )


def _worker_pipeline(chunk: _SweepChunk) -> BenchmarkPipeline:
    """The pool worker's memoized pipeline for ``chunk``'s benchmark."""
    memo_key = (chunk.run_token, chunk.kernel_index)
    pipeline = _WORKER_PIPELINES.get(memo_key)
    if pipeline is None:
        pipeline = _build_chunk_pipeline(chunk)
        _WORKER_PIPELINES[memo_key] = pipeline
        while len(_WORKER_PIPELINES) > _WORKER_PIPELINE_CAP:
            _WORKER_PIPELINES.popitem(last=False)
    else:
        _WORKER_PIPELINES.move_to_end(memo_key)
    return pipeline


def _run_chunk(
    chunk: _SweepChunk,
    pipelines: Optional[Dict[int, BenchmarkPipeline]] = None,
) -> Tuple[int, int, List[RunPair], List[dict]]:
    """Worker body: build (or reuse) the pipeline, simulate the slice.

    ``pipelines`` is the serial caller's per-run store, keyed by kernel
    index; a pool worker passes none and uses the process-local memo.
    Returns ``(kernel_index, config_offset, pairs, analytic_fallbacks)``;
    the fallback matrix lists the configs of a flat or analytic chunk
    that an engine of the chain declined (empty for ``simt`` chunks).
    Any exception is re-raised as a :class:`ChunkExecutionError` carrying
    the benchmark name, config offset, and seed, so a failure deep inside
    a worker is attributable without scraping pool tracebacks.
    """
    try:
        maybe_inject_worker_fault(chunk.kernel_index, chunk.config_offset)
        if pipelines is None:
            pipeline = _worker_pipeline(chunk)
        else:
            pipeline = pipelines.get(chunk.kernel_index)
            if pipeline is None:
                pipeline = _build_chunk_pipeline(chunk)
                pipelines[chunk.kernel_index] = pipeline
        fallbacks: List[dict] = []
        if chunk.sim_mode == "simt":
            cache = _chunk_cache(chunk)
            pairs = [
                simulate_pair(
                    pipeline, config,
                    track_scheduling=chunk.track_scheduling, cache=cache,
                )
                for config in chunk.configs
            ]
        else:
            # One engine-chain pass per stream over the chunk's whole
            # config slice (flat and analytic pairs are not pair-cached);
            # configs an engine declined carry its reasons.
            sweep_of = (analytic_sweep if chunk.sim_mode == "analytic"
                        else replay_sweep)
            sweep = sweep_of(pipeline, chunk.configs, backend=chunk.backend)
            pairs, fallbacks = sweep.pairs, sweep.analytic_fallbacks
        return chunk.kernel_index, chunk.config_offset, pairs, fallbacks
    except ChunkExecutionError:
        raise
    except Exception as exc:
        kind = (FAILURE_CORRUPT_ARTIFACT
                if isinstance(exc, CorruptArtifactError)
                else FAILURE_SIMULATION_ERROR)
        raise ChunkExecutionError(
            chunk.kernel.name, chunk.kernel_index, chunk.config_offset,
            chunk.seed, f"{type(exc).__name__}: {exc}", failure_kind=kind,
        ) from exc


def _pairs_to_entries(
    pairs: Sequence[RunPair], fallbacks: Sequence[dict] = (),
) -> List[dict]:
    """Journal form of a chunk's result pairs (inverse of ``_entries_to_pairs``).

    Flat and analytic chunks annotate each entry with how its point ran:
    the ``analytic`` flag, plus the engine chain's refusal reasons on
    fallback entries — so a resumed run reassembles the same fallback
    matrix without re-deciding applicability.
    """
    reasons_by_config = {
        str(entry["config"]): list(entry["reasons"])  # type: ignore[arg-type]
        for entry in fallbacks
    }
    entries = []
    for pair in pairs:
        fingerprint = config_fingerprint(pair.config)
        entry = {
            "config": fingerprint,
            "original": sim_result_to_payload(pair.original),
            "proxy": sim_result_to_payload(pair.proxy),
        }
        if pair.analytic:
            entry["analytic"] = True
        reasons = reasons_by_config.get(fingerprint)
        if reasons:
            entry["fallback_reasons"] = reasons
        entries.append(entry)
    return entries


def _entries_to_pairs(
    entries: Sequence[dict], configs: Sequence[SimConfig]
) -> List[RunPair]:
    """Rebuild RunPairs from journal entries against the live config objects."""
    return [
        RunPair(
            config=config,
            original=sim_result_from_payload(entry["original"]),
            proxy=sim_result_from_payload(entry["proxy"]),
            analytic=bool(entry.get("analytic", False)),
        )
        for entry, config in zip(entries, configs)
    ]


def _entries_to_fallbacks(entries: Sequence[dict]) -> List[dict]:
    """Rebuild a chunk's analytic fallback matrix from its journal entries."""
    return [
        {
            "config": entry["config"],
            "reasons": list(entry["fallback_reasons"]),
        }
        for entry in entries
        if entry.get("fallback_reasons")
    ]


class SweepRunner:
    """Runs original-vs-proxy sweeps, optionally over a process pool.

    ``jobs`` is the worker-process count (1 = in-process, no pool).
    ``chunk_size`` overrides the per-task config slice length; by default
    the runner cuts each benchmark into at most ``ceil(jobs/benchmarks)``
    chunks — enough parallelism to fill the pool without re-building the
    same benchmark's pipeline in extra workers on a cold run.
    ``use_cache``/``cache_dir`` enable the content-addressed artifact cache
    for pipelines and per-configuration result pairs.

    Resilience knobs:

    ``timeout``
        per-chunk watchdog in seconds (pool mode only); a chunk exceeding
        it is classified ``timeout``, the hung worker is torn down, and the
        chunk is retried.  ``None`` disables the watchdog.
    ``retries``
        how many times a failing chunk is re-executed before it is
        quarantined as a :class:`ChunkFailure` (default 2).
    ``retry_backoff``
        base of the exponential inter-round backoff, in seconds.
    ``journal`` / ``journal_dir`` / ``run_id``
        ``journal=True`` (or a :class:`RunJournal`) checkpoints every
        completed chunk on disk under ``run_id`` (derived deterministically
        from the sweep inputs when not given; the resolved id is exposed as
        ``last_run_id`` after :meth:`run`).
    ``resume``
        skip chunks already present in the journal, reassembling results
        bit-identical to an uninterrupted run.
    ``fault_injector``
        test hook: a callable invoked with each chunk before in-process
        execution; exceptions it raises flow through the retry machinery.
    """

    def __init__(
        self,
        jobs: int = 1,
        chunk_size: Optional[int] = None,
        use_cache: bool = False,
        cache_dir=None,
        track_scheduling: bool = True,
        timeout: Optional[float] = None,
        retries: int = 2,
        retry_backoff: float = 0.05,
        journal: Union[None, bool, RunJournal] = None,
        journal_dir=None,
        run_id: Optional[str] = None,
        resume: bool = False,
        fault_injector: Optional[Callable[[_SweepChunk], None]] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be > 0, got {timeout}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.jobs = jobs
        self.chunk_size = chunk_size
        self.use_cache = use_cache
        self.cache_dir = str(cache_dir) if cache_dir is not None else None
        self.track_scheduling = track_scheduling
        self.timeout = timeout
        self.retries = retries
        self.retry_backoff = retry_backoff
        self.journal = journal
        self.journal_dir = journal_dir
        self.run_id = run_id
        self.resume = resume
        self.fault_injector = fault_injector
        #: Resolved after :meth:`run` when journaling was active.
        self.last_run_id: Optional[str] = None

    # -- task construction --------------------------------------------------

    def _effective_chunk_size(self, num_kernels: int, num_configs: int) -> int:
        if self.chunk_size is not None:
            return self.chunk_size
        if self.jobs == 1:
            return num_configs or 1
        # Split each benchmark into at most ceil(jobs / num_kernels)
        # chunks: enough to keep every worker busy across the sweep, but
        # never more.  Each extra chunk of the same benchmark that lands in
        # a different worker rebuilds (or re-reads) that benchmark's
        # pipeline, so on a cold run over-splitting multiplies the most
        # expensive stage — with >= jobs benchmarks each stays one chunk.
        per_kernel = max(1, -(-self.jobs // max(1, num_kernels)))
        return max(1, -(-num_configs // per_kernel))

    def _sweep_manifest(
        self,
        kernels: Sequence[KernelModel],
        configs: Sequence[SimConfig],
        seed: int,
        num_cores: int,
        max_blocks_per_core: int,
        scale_factor: float,
        stride_model: str,
        backend: str,
        sim_mode: str,
    ) -> Dict[str, object]:
        return {
            "kernels": [kernel_fingerprint(k) for k in kernels],
            "benchmarks": [k.name for k in kernels],
            "configs": [config_fingerprint(c) for c in configs],
            "seed": seed,
            "num_cores": num_cores,
            "max_blocks_per_core": max_blocks_per_core,
            "scale_factor": scale_factor,
            "stride_model": stride_model,
            "backend": backend,
            "sim_mode": sim_mode,
            "track_scheduling": self.track_scheduling,
        }

    def _resolve_journal(self, manifest: Dict[str, object]) -> Optional[RunJournal]:
        if isinstance(self.journal, RunJournal):
            return self.journal
        if not self.journal and self.run_id is None and not self.resume:
            return None
        run_id = self.run_id or derive_run_id(manifest)
        return RunJournal(run_id, self.journal_dir)

    def _build_chunks(
        self,
        kernels: Sequence[KernelModel],
        configs: Sequence[SimConfig],
        seed: int,
        num_cores: int,
        max_blocks_per_core: int,
        scale_factor: float,
        stride_model: str,
        backend: str,
        sim_mode: str,
        chunk_size: Optional[int] = None,
        run_token: Optional[str] = None,
    ) -> List[_SweepChunk]:
        run_token = run_token or uuid.uuid4().hex
        if chunk_size is None:
            chunk_size = self._effective_chunk_size(len(kernels), len(configs))
        configs = tuple(configs)
        chunks = []
        for kernel_index, kernel in enumerate(kernels):
            for offset in range(0, len(configs), chunk_size):
                chunks.append(_SweepChunk(
                    run_token=run_token,
                    kernel_index=kernel_index,
                    config_offset=offset,
                    kernel=kernel,
                    configs=configs[offset:offset + chunk_size],
                    seed=seed,
                    num_cores=num_cores,
                    max_blocks_per_core=max_blocks_per_core,
                    scale_factor=scale_factor,
                    stride_model=stride_model,
                    track_scheduling=self.track_scheduling,
                    use_cache=self.use_cache,
                    cache_dir=self.cache_dir,
                    backend=backend,
                    sim_mode=sim_mode,
                ))
        return chunks

    # -- execution ----------------------------------------------------------

    def _backoff(self, round_index: int) -> None:
        if self.retry_backoff > 0:
            time.sleep(min(self.retry_backoff * (2 ** round_index), 2.0))

    def _run_chunk_inprocess(
        self, chunk: _SweepChunk, pipelines: Dict[int, BenchmarkPipeline],
    ) -> Tuple[List[RunPair], List[dict]]:
        if self.fault_injector is not None:
            self.fault_injector(chunk)
        _, _, pairs, fallbacks = _run_chunk(chunk, pipelines)
        return pairs, fallbacks

    def _execute_serial(
        self,
        chunks: Sequence[_SweepChunk],
        on_done: Callable[[_SweepChunk, List[RunPair], List[dict]], None],
        attempts: Dict[Tuple[int, int], int],
    ) -> List[ChunkFailure]:
        """In-process execution with the same retry/quarantine semantics.

        The loop owns its pipelines: a benchmark's is built on its first
        chunk, reused by its later chunks and retries, and dropped once its
        last chunk completes or is quarantined — and on any exit, so none
        outlives the call.
        """
        failures: List[ChunkFailure] = []
        remaining = Counter(chunk.kernel_index for chunk in chunks)
        pipelines: Dict[int, BenchmarkPipeline] = {}
        try:
            for chunk in chunks:
                while True:
                    try:
                        on_done(chunk,
                                *self._run_chunk_inprocess(chunk, pipelines))
                        break
                    except Exception as exc:
                        cid = _chunk_id(chunk)
                        attempts[cid] = attempts.get(cid, 0) + 1
                        if attempts[cid] > self.retries:
                            failures.append(self._chunk_failure(
                                chunk, exc, attempts[cid]))
                            break
                        self._backoff(attempts[cid] - 1)
                remaining[chunk.kernel_index] -= 1
                if not remaining[chunk.kernel_index]:
                    pipelines.pop(chunk.kernel_index, None)
        finally:
            pipelines.clear()
        return failures

    def _chunk_failure(
        self, chunk: _SweepChunk, exc: Union[Exception, str], attempts: int,
        kind: Optional[str] = None,
    ) -> ChunkFailure:
        if kind is None:
            if isinstance(exc, ChunkExecutionError):
                kind = exc.failure_kind
            elif isinstance(exc, CorruptArtifactError):
                kind = FAILURE_CORRUPT_ARTIFACT
            elif isinstance(exc, (FuturesTimeoutError, TimeoutError)):
                kind = FAILURE_TIMEOUT
            elif isinstance(exc, BrokenProcessPool):
                kind = FAILURE_WORKER_CRASH
            else:
                kind = FAILURE_SIMULATION_ERROR
        return ChunkFailure(
            benchmark=chunk.kernel.name,
            kernel_index=chunk.kernel_index,
            config_offset=chunk.config_offset,
            num_configs=len(chunk.configs),
            kind=kind,
            message=str(exc) if str(exc) else type(exc).__name__,
            attempts=attempts,
            seed=chunk.seed,
        )

    @staticmethod
    def _shutdown_pool(pool: ProcessPoolExecutor, force: bool) -> None:
        """Tear a pool down; ``force`` first terminates hung workers."""
        if force:
            for proc in list(getattr(pool, "_processes", {}).values()):
                try:
                    proc.terminate()
                except Exception:
                    pass
        try:
            pool.shutdown(wait=not force, cancel_futures=True)
        except Exception:
            pass

    def _execute_pool(
        self,
        chunks: Sequence[_SweepChunk],
        on_done: Callable[[_SweepChunk, List[RunPair], List[dict]], None],
        attempts: Dict[Tuple[int, int], int],
    ) -> List[ChunkFailure]:
        """Pool execution in rounds: each round submits the still-pending
        chunks to a (fresh, if the previous one broke) pool, harvests every
        completed future, and requeues only the incomplete ones — completed
        work is never thrown away and never re-run.
        """
        failures: List[ChunkFailure] = []
        pending: List[_SweepChunk] = list(chunks)
        pool_rebuilds = 0
        round_index = 0

        def note_failure(chunk: _SweepChunk, exc, kind=None) -> None:
            cid = _chunk_id(chunk)
            attempts[cid] = attempts.get(cid, 0) + 1
            if attempts[cid] > self.retries:
                failures.append(
                    self._chunk_failure(chunk, exc, attempts[cid], kind=kind))
            else:
                requeue.append(chunk)

        while pending:
            try:
                # Chunks are CPU-bound: workers beyond the core count only
                # add context-switch and memory pressure, so the pool never
                # oversubscribes the machine even if ``jobs`` asks for it.
                pool = ProcessPoolExecutor(
                    max_workers=min(self.jobs, len(pending),
                                    os.cpu_count() or self.jobs))
            except OSError:
                # Missing process primitives: degrade to the same-process
                # path, which is result-identical.
                failures.extend(
                    self._execute_serial(pending, on_done, attempts))
                return failures
            futures = [(pool.submit(_run_chunk, chunk), chunk)
                       for chunk in pending]
            requeue: List[_SweepChunk] = []
            serial_remainder: List[_SweepChunk] = []
            degraded = False     # pool is unreliable; stop blocking on it
            force_kill = False   # a worker is hung; terminate, don't join
            crash_counted = False
            for future, chunk in futures:
                if degraded and not future.done():
                    # Interrupted by the teardown, not at fault: requeue
                    # without charging an attempt.
                    requeue.append(chunk)
                    continue
                try:
                    _, _, pairs, fallbacks = future.result(
                        timeout=0 if degraded else self.timeout)
                    on_done(chunk, pairs, fallbacks)
                except FuturesTimeoutError as exc:
                    degraded = force_kill = True
                    note_failure(chunk, exc, kind=FAILURE_TIMEOUT)
                except BrokenProcessPool as exc:
                    degraded = True
                    if not crash_counted:
                        # Only the first broken future is charged an
                        # attempt: the actual crasher is unknowable, and
                        # charging every victim would burn innocent chunks'
                        # retry budgets on one bad worker.
                        crash_counted = True
                        note_failure(chunk, exc, kind=FAILURE_WORKER_CRASH)
                    else:
                        requeue.append(chunk)
                except CancelledError:
                    requeue.append(chunk)
                except (pickle.PicklingError, TypeError):
                    # Unpicklable task or result: the pool can never run
                    # this chunk; execute it in-process instead.
                    serial_remainder.append(chunk)
                except ChunkExecutionError as exc:
                    note_failure(chunk, exc)
                except Exception as exc:
                    note_failure(chunk, exc)
            if degraded:
                pool_rebuilds += 1
            self._shutdown_pool(pool, force=force_kill)
            if serial_remainder:
                failures.extend(self._execute_serial(
                    serial_remainder, on_done, attempts))
            pending = requeue
            if pending and pool_rebuilds >= MAX_POOL_REBUILDS:
                # The pool keeps dying; finish in-process (crash isolation).
                failures.extend(
                    self._execute_serial(pending, on_done, attempts))
                return failures
            if pending:
                self._backoff(round_index)
                round_index += 1
        return failures

    def _execute(
        self,
        chunks: Sequence[_SweepChunk],
        on_done: Callable[[_SweepChunk, List[RunPair], List[dict]], None],
    ) -> List[ChunkFailure]:
        attempts: Dict[Tuple[int, int], int] = {}
        if self.jobs == 1 or len(chunks) <= 1:
            return self._execute_serial(chunks, on_done, attempts)
        return self._execute_pool(chunks, on_done, attempts)

    def run(
        self,
        kernels: Sequence[KernelModel],
        configs: Sequence[SimConfig],
        *,
        seed: int = 1234,
        num_cores: int = 15,
        max_blocks_per_core: int = 8,
        scale_factor: float = 1.0,
        stride_model: str = "iid",
        backend: Optional[str] = None,
        sim_mode: str = "simt",
    ) -> List[SweepResult]:
        """All benchmarks x all configs; one ordered SweepResult per kernel.

        Results are reassembled by (kernel, config) position, so they do not
        depend on worker scheduling: ``jobs=N`` equals ``jobs=1`` exactly —
        and, with a journal, a resumed run equals an uninterrupted one.
        Chunks that exhausted their retries surface as ``.failures`` on the
        affected :class:`SweepResult` instead of raising.

        ``sim_mode="flat"`` runs every chunk through the engine chain
        (see :func:`~repro.validation.harness.replay_sweep`); ``backend``
        then also selects the memsim engine per chunk.
        ``sim_mode="analytic"`` puts the analytic engine first in that
        chain; the fallback reasons ride the journal entries, so mixed
        chunks resume with the same ``analytic_fallbacks`` matrix an
        uninterrupted run reports.
        """
        backend = resolve_backend(backend)
        sim_mode = resolve_sim_mode(sim_mode)
        manifest = self._sweep_manifest(
            kernels, configs, seed, num_cores, max_blocks_per_core,
            scale_factor, stride_model, backend, sim_mode,
        )
        journal = self._resolve_journal(manifest)
        chunk_size = self._effective_chunk_size(len(kernels), len(configs))
        run_token = None
        if journal is not None:
            self.last_run_id = journal.run_id
            run_token = journal.run_id
            # Single-writer guard: two runs journaling under the same id
            # (e.g. two concurrent --resume invocations) would interleave
            # entries; the second fails fast with JournalLockedError.
            journal.acquire_lock()
            try:
                manifest["chunk_size"] = chunk_size
                effective = journal.ensure_manifest(manifest,
                                                    resume=self.resume)
            except BaseException:
                journal.release_lock()
                raise
            # Adopt the recorded chunk size so offsets line up on resume
            # regardless of the current --jobs value.
            chunk_size = int(effective.get("chunk_size", chunk_size))
        try:
            return self._run_journaled(
                kernels, configs, journal, chunk_size, run_token,
                seed=seed, num_cores=num_cores,
                max_blocks_per_core=max_blocks_per_core,
                scale_factor=scale_factor, stride_model=stride_model,
                backend=backend, sim_mode=sim_mode,
            )
        finally:
            if journal is not None:
                journal.release_lock()

    def _run_journaled(
        self,
        kernels: Sequence[KernelModel],
        configs: Sequence[SimConfig],
        journal: Optional[RunJournal],
        chunk_size: int,
        run_token: Optional[str],
        *,
        seed: int,
        num_cores: int,
        max_blocks_per_core: int,
        scale_factor: float,
        stride_model: str,
        backend: str,
        sim_mode: str,
    ) -> List[SweepResult]:
        chunks = self._build_chunks(
            kernels, configs, seed, num_cores, max_blocks_per_core,
            scale_factor, stride_model, backend, sim_mode,
            chunk_size=chunk_size, run_token=run_token,
        )

        results: Dict[Tuple[int, int], Tuple[List[RunPair], List[dict]]] = {}
        if journal is not None and self.resume:
            for chunk in chunks:
                entries = journal.load_chunk(
                    chunk.kernel_index, chunk.config_offset,
                    [config_fingerprint(c) for c in chunk.configs],
                )
                if entries is not None:
                    results[_chunk_id(chunk)] = (
                        _entries_to_pairs(entries, chunk.configs),
                        _entries_to_fallbacks(entries),
                    )

        def on_done(
            chunk: _SweepChunk, pairs: List[RunPair], fallbacks: List[dict]
        ) -> None:
            results[_chunk_id(chunk)] = (pairs, fallbacks)
            if journal is not None:
                path = journal.record_chunk(
                    chunk.kernel_index, chunk.config_offset,
                    chunk.kernel.name, _pairs_to_entries(pairs, fallbacks),
                )
                maybe_corrupt_artifact(
                    path, chunk.kernel_index, chunk.config_offset)

        pending = [c for c in chunks if _chunk_id(c) not in results]
        failures = self._execute(pending, on_done)

        by_kernel: Dict[
            int, List[Tuple[int, List[RunPair], List[dict]]]
        ] = {}
        for (kernel_index, offset), (pairs, fallbacks) in results.items():
            by_kernel.setdefault(kernel_index, []).append(
                (offset, pairs, fallbacks))
        failures_by_kernel: Dict[int, List[ChunkFailure]] = {}
        for failure in failures:
            failures_by_kernel.setdefault(failure.kernel_index, []).append(failure)
        sweeps = []
        for kernel_index, kernel in enumerate(kernels):
            pieces = sorted(by_kernel.get(kernel_index, []),
                            key=lambda piece: piece[0])
            pairs = [
                pair for _, chunk_pairs, _ in pieces for pair in chunk_pairs
            ]
            fallbacks = [
                entry
                for _, _, chunk_fallbacks in pieces
                for entry in chunk_fallbacks
            ]
            sweeps.append(SweepResult(
                benchmark=kernel.name, pairs=pairs,
                failures=sorted(
                    failures_by_kernel.get(kernel_index, []),
                    key=lambda f: f.config_offset,
                ),
                analytic_fallbacks=fallbacks,
            ))
        return sweeps

    def run_experiment(
        self,
        kernels: Sequence[KernelModel],
        configs: Sequence[SimConfig],
        metric: str,
        *,
        seed: int = 1234,
        num_cores: int = 15,
        max_blocks_per_core: int = 8,
        scale_factor: float = 1.0,
        stride_model: str = "iid",
        backend: Optional[str] = None,
        sim_mode: str = "simt",
    ) -> ExperimentReport:
        """Sweep every benchmark and aggregate one metric into a report."""
        sweeps = self.run(
            kernels, configs,
            seed=seed, num_cores=num_cores,
            max_blocks_per_core=max_blocks_per_core,
            scale_factor=scale_factor, stride_model=stride_model,
            backend=backend, sim_mode=sim_mode,
        )
        return ExperimentReport(
            metric=metric,
            comparisons=[sweep.comparison(metric) for sweep in sweeps],
            failures=[f for sweep in sweeps for f in sweep.failures],
        )

    def cache(self) -> Optional[ArtifactCache]:
        """The runner's cache handle (None when caching is disabled)."""
        return resolve_cache(self.use_cache, self.cache_dir)
