"""Content-addressed on-disk artifact cache for sweep pipelines.

Profiling a kernel and generating its proxy are configuration-independent
("profiling is a one-time cost", paper section 5), yet every sweep re-pays
them per benchmark.  This cache memoizes the expensive halves of
:func:`repro.validation.harness.build_pipeline` — the G-MAP profile, the
original's coalesced warp traces, and the generated proxy traces — plus,
one level up, whole per-configuration simulation result pairs, so repeated
and overlapping sweeps skip straight to the parts that actually changed.

Entries are content-addressed: the key is a SHA-256 over every input that
influences the artifact (kernel fingerprint, generation seed, scale factor,
stride model, core count, residency bound, profiling granularity — and, for
result pairs, the full simulator configuration).  Any input change produces
a different key, so the cache never needs invalidation, only garbage
collection.  Entries are read, written and quarantined by the one
:class:`~repro.core.store.ContentStore`: each embeds a checksum over its
payload, writes are atomic so concurrent sweep workers can share one cache
directory, and a corrupt entry is moved to ``quarantine/`` and rebuilt from
source rather than crashing the sweep or serving a silently-wrong value
(a transient read error is only a miss).

The cache directory resolves, in order: an explicit ``cache_dir`` argument,
the ``GMAP_CACHE_DIR`` environment variable, ``~/.cache/gmap``.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.core.backend import import_numpy
from repro.core.integrity import CorruptArtifactError, integrity_events
from repro.core.profile import GmapProfile
from repro.core.store import ContentStore
from repro.gpu.executor import CoreAssignment, WarpTrace
from repro.memsim.config import SimConfig
from repro.memsim.stats import CacheStats, DramStats, SimResult

PathLike = Union[str, Path]

#: Bump whenever the payload layout changes; stale entries then simply miss.
#: v2 added the embedded payload checksum; v3 moved pipeline entries to the
#: binary columnar ``.npz`` container and added ``backend`` to the key.
CACHE_SCHEMA_VERSION = 3

#: Environment variable overriding the default cache location.
ENV_CACHE_DIR = "GMAP_CACHE_DIR"


def default_cache_dir() -> Path:
    """``$GMAP_CACHE_DIR`` if set, else ``~/.cache/gmap``."""
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "gmap"


def kernel_fingerprint(kernel) -> str:
    """Deterministic content hash of a kernel model instance.

    Combines the class identity, the repr (name + launch geometry), and the
    pickled attribute state, so two kernels built with the same factory and
    scale collide while any parameter difference separates them.  Kernels
    that cannot pickle still get a (weaker) class+repr identity.
    """
    digest = hashlib.sha256()
    digest.update(type(kernel).__qualname__.encode())
    digest.update(repr(kernel).encode())
    try:
        digest.update(pickle.dumps(kernel, protocol=4))
    except Exception:
        pass
    return digest.hexdigest()


def config_fingerprint(config: SimConfig) -> str:
    """Content hash of a simulator configuration.

    ``SimConfig`` is a frozen dataclass tree, so its repr enumerates every
    field deterministically.
    """
    return hashlib.sha256(repr(config).encode()).hexdigest()


def _hash_fields(fields: Dict[str, Any]) -> str:
    blob = json.dumps(fields, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# --------------------------------------------------------------------------
# Payload (de)serialisation — lossless JSON round-trips for every artifact.

def _warp_trace_to_dict(trace: WarpTrace) -> dict:
    return {
        "warp_id": trace.warp_id,
        "block": trace.block,
        "transactions": [list(t) for t in trace.transactions],
        "instructions": [list(t) for t in trace.instructions],
        "active_lanes": trace.active_lanes,
    }


def _warp_trace_from_dict(data: dict) -> WarpTrace:
    return WarpTrace(
        warp_id=data["warp_id"],
        block=data["block"],
        transactions=[tuple(t) for t in data["transactions"]],
        instructions=[tuple(t) for t in data["instructions"]],
        active_lanes=data["active_lanes"],
    )


def assignments_to_payload(assignments: List[CoreAssignment]) -> list:
    """JSON-ready form of a core-assignment list (inverse of ``*_from_payload``)."""
    return [
        {
            "core_id": a.core_id,
            "waves": [[_warp_trace_to_dict(t) for t in wave] for wave in a.waves],
        }
        for a in assignments
    ]


def assignments_from_payload(payload: list) -> List[CoreAssignment]:
    """Rebuild ``CoreAssignment`` objects from their cached JSON form."""
    return [
        CoreAssignment(
            core_id=a["core_id"],
            waves=[[_warp_trace_from_dict(t) for t in wave] for wave in a["waves"]],
        )
        for a in payload
    ]


def _cache_stats_to_payload(stats: CacheStats) -> dict:
    return {name: getattr(stats, name) for name in CacheStats._FIELDS}


def _dram_stats_to_payload(stats: DramStats) -> dict:
    return {name: getattr(stats, name) for name in DramStats._FIELDS}


def sim_result_to_payload(result: SimResult) -> dict:
    """Full-fidelity SimResult serialisation (JSON floats round-trip exactly)."""
    return {
        "l1": _cache_stats_to_payload(result.l1),
        "l2": _cache_stats_to_payload(result.l2),
        "dram": _dram_stats_to_payload(result.dram),
        "texture": _cache_stats_to_payload(result.texture),
        "constant": _cache_stats_to_payload(result.constant),
        "shared_accesses": result.shared_accesses,
        "requests_issued": result.requests_issued,
        "cycles": result.cycles,
        "measured_p_self": result.measured_p_self,
        "barriers_crossed": result.barriers_crossed,
        "per_core_l1": [_cache_stats_to_payload(s) for s in result.per_core_l1],
    }


def sim_result_from_payload(data: dict) -> SimResult:
    """Rebuild a full-fidelity ``SimResult`` from its cached JSON form."""
    return SimResult(
        l1=CacheStats(**data["l1"]),
        l2=CacheStats(**data["l2"]),
        dram=DramStats(**data["dram"]),
        texture=CacheStats(**data["texture"]),
        constant=CacheStats(**data["constant"]),
        shared_accesses=data["shared_accesses"],
        requests_issued=data["requests_issued"],
        cycles=data["cycles"],
        measured_p_self=data["measured_p_self"],
        barriers_crossed=data["barriers_crossed"],
        per_core_l1=[CacheStats(**s) for s in data["per_core_l1"]],
    )


class ArtifactCache:
    """Content-addressed cache over pipeline artifacts and result pairs.

    Three entry kinds live under distinct subdirectories of one
    :class:`~repro.core.store.ContentStore` (:attr:`content`):

    * ``pipeline/`` — profile + original/proxy warp traces of one
      ``build_pipeline`` invocation: a binary columnar ``.npz`` container
      for a numpy-backend pipeline, gzipped JSON for a python one;
    * ``sdprofile/`` — one model's stack-distance profile of one kernel;
    * ``pair/`` — the original+proxy :class:`SimResult` of one
      (pipeline, configuration) sweep point.

    :attr:`counters` are the store's hit/miss/store/error/quarantine
    counts.
    """

    def __init__(self, cache_dir: Optional[PathLike] = None) -> None:
        self.root = Path(cache_dir) if cache_dir is not None else default_cache_dir()
        self.content = ContentStore(
            self.root, CACHE_SCHEMA_VERSION,
            on_quarantine=lambda: integrity_events.record("cache_rebuild"))
        self.counters = self.content.counters

    # -- keys ---------------------------------------------------------------

    def pipeline_key(
        self,
        kernel,
        *,
        seed: int,
        scale_factor: float,
        stride_model: str,
        num_cores: int,
        max_blocks_per_core: int,
        coalescing: bool = True,
        backend: str = "python",
    ) -> str:
        # ``backend`` is a genuine input: profiling is bit-identical across
        # backends, but the generated proxy samples a different RNG stream,
        # so a python-built and a numpy-built pipeline are distinct artifacts.
        return _hash_fields({
            "schema": CACHE_SCHEMA_VERSION,
            "kind": "pipeline",
            "kernel": kernel_fingerprint(kernel),
            "seed": seed,
            "scale_factor": scale_factor,
            "stride_model": stride_model,
            "num_cores": num_cores,
            "max_blocks_per_core": max_blocks_per_core,
            "coalescing": coalescing,
            "backend": backend,
        })

    def pair_key(
        self, pipeline_key: str, config: SimConfig, track_scheduling: bool = True
    ) -> str:
        return _hash_fields({
            "schema": CACHE_SCHEMA_VERSION,
            "kind": "pair",
            "pipeline": pipeline_key,
            "config": config_fingerprint(config),
            "track_scheduling": track_scheduling,
        })

    # -- pipeline artifacts -------------------------------------------------
    #
    # Pipeline entries hold the bulky artifacts (two full warp-trace sets).
    # A numpy-backend pipeline uses the binary columnar container
    # (:mod:`repro.memsim.arrays`) instead of per-record JSON — loading one
    # is a few array reads, which is what lets cold parallel workers fetch
    # a pipeline another worker built without re-paying a parse.  A
    # python-backend pipeline uses gzipped JSON, so a cached python run
    # never imports NumPy.  The backend is part of the key, so the two
    # formats never hold the same entry; both go through the store's read
    # rule and share the schema version.

    def pipeline_entry_path(self, key: str, backend: str) -> Path:
        """On-disk location of a pipeline entry built on ``backend``."""
        return self.content.path(
            "pipeline", key, "npz" if backend == "numpy" else "json.gz")

    @staticmethod
    def _decode_pipeline_npz(path: Path):
        from repro.memsim import arrays as columnar

        columns, header = columnar.load_columns(path, columnar.FORMAT_PIPELINE)
        if header.get("cache_schema") != CACHE_SCHEMA_VERSION:
            raise CorruptArtifactError(
                f"{path}: cache schema {header.get('cache_schema')!r}")
        profile = GmapProfile.from_dict(
            json.loads(bytes(columns["profile_json"].tobytes()).decode())
        )
        original = columnar.unpack_assignments(columns, "orig_")
        proxy = columnar.unpack_assignments(columns, "proxy_")
        return profile, original, proxy, header.get("meta", {})

    def load_pipeline(
        self, key: str, backend: str
    ) -> Optional[Tuple[GmapProfile, List[CoreAssignment], List[CoreAssignment], dict]]:
        """Returns (profile, original, proxy, meta) or None on miss."""
        path = self.pipeline_entry_path(key, backend)
        if backend == "numpy":
            return self.content.read(path, self._decode_pipeline_npz)
        return self.content.load(path, lambda payload: (
            GmapProfile.from_dict(payload["profile"]),
            assignments_from_payload(payload["original"]),
            assignments_from_payload(payload["proxy"]),
            payload["meta"],
        ))

    def store_pipeline(
        self,
        key: str,
        backend: str,
        profile: GmapProfile,
        original: List[CoreAssignment],
        proxy: List[CoreAssignment],
        meta: dict,
    ) -> None:
        """Write one pipeline entry in ``backend``'s format."""
        path = self.pipeline_entry_path(key, backend)
        if backend != "numpy":
            self.content.save(path, {
                "profile": profile.to_dict(),
                "original": assignments_to_payload(original),
                "proxy": assignments_to_payload(proxy),
                "meta": meta,
            })
            return
        from repro.memsim import arrays as columnar

        np = import_numpy()

        columns = columnar.pack_assignments(original, "orig_")
        columns.update(columnar.pack_assignments(proxy, "proxy_"))
        columns["profile_json"] = np.frombuffer(
            json.dumps(profile.to_dict()).encode("utf-8"), dtype=np.uint8
        )
        self.content.write(path, lambda fh: columnar.write_columns(
            fh, columns, columnar.FORMAT_PIPELINE,
            extra_meta={"cache_schema": CACHE_SCHEMA_VERSION, "meta": meta},
        ))

    # -- stack-distance profiles --------------------------------------------
    #
    # The reuse-distance baselines (Tang, Nugteren) and the analytic sweep
    # backend all start from a :class:`StackDistanceProfile` over the same
    # kernel's interleaved access stream.  Building one replays every
    # address per tracked line size; memoizing it by (kernel, model, unit,
    # line sizes) means repeated baseline comparisons and analytic sweeps
    # skip straight to the histogram.

    def sd_profile_key(
        self,
        kernel,
        *,
        model: str,
        unit: int,
        line_sizes,
        extra: Optional[Dict[str, Any]] = None,
    ) -> str:
        """Key for one model's stack-distance profile of one kernel.

        ``unit`` is the model's sampling unit index (Tang's threadblock,
        Nugteren's core); ``extra`` holds any further inputs that shape
        the interleaved stream (e.g. Nugteren's core-assignment geometry).
        """
        return _hash_fields({
            "schema": CACHE_SCHEMA_VERSION,
            "kind": "sdprofile",
            "model": model,
            "kernel": kernel_fingerprint(kernel),
            "unit": unit,
            "line_sizes": [int(size) for size in line_sizes],
            "extra": extra or {},
        })

    def load_sd_profile(self, key: str) -> Optional[Tuple[Any, dict]]:
        """Returns (StackDistanceProfile, extra payload) or None on miss.

        ``extra`` round-trips through JSON, so integer dict keys come back
        as strings — the owning model converts its own payload.
        """
        from repro.analytical.profile_model import StackDistanceProfile

        return self.content.load(
            self.content.path("sdprofile", key),
            lambda payload: (
                StackDistanceProfile.from_dict(payload["profile"]),
                dict(payload.get("extra") or {}),
            ))

    def store_sd_profile(
        self, key: str, profile, extra: Optional[Dict[str, Any]] = None
    ) -> None:
        self.content.save(self.content.path("sdprofile", key), {
            "profile": profile.to_dict(),
            "extra": extra or {},
        })

    # -- simulation result pairs --------------------------------------------

    def load_pair(self, key: str) -> Optional[Tuple[SimResult, SimResult]]:
        return self.content.load(self.content.path("pair", key), lambda payload: (
            sim_result_from_payload(payload["original"]),
            sim_result_from_payload(payload["proxy"]),
        ))

    def store_pair(self, key: str, original: SimResult, proxy: SimResult) -> None:
        self.content.save(self.content.path("pair", key), {
            "original": sim_result_to_payload(original),
            "proxy": sim_result_to_payload(proxy),
        })


def resolve_cache(
    cache: Union[None, bool, ArtifactCache],
    cache_dir: Optional[PathLike] = None,
) -> Optional[ArtifactCache]:
    """Normalise the ``cache`` argument convention used across the stack.

    ``None``/``False`` disable caching; ``True`` opens the default (or
    ``cache_dir``) location; an :class:`ArtifactCache` passes through.
    """
    if isinstance(cache, ArtifactCache):
        return cache
    if cache:
        return ArtifactCache(cache_dir)
    return None
