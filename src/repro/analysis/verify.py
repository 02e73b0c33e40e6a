"""Semantic invariant checks on G-MAP artifacts — the verify pass.

Operates on the *raw JSON payload* of a profile (checked before object
construction, so a damaged artifact is reported with rule ids instead of
crashing deep inside :class:`~repro.core.distributions.Histogram`), on
already-built :class:`~repro.core.profile.GmapProfile` objects (via their
``to_dict`` round trip), and on :class:`~repro.memsim.config.SimConfig`
instances.

Invariants of the statistical 5-tuple ``(Π, Q, B, P_S, P_R)``:

* ``Q`` is a probability measure: entries in ``[0, 1]`` summing to 1
  within :data:`Q_TOLERANCE`;
* every histogram bin count is a nonnegative number;
* every PC in a π-profile sequence references a static instruction in
  ``B``;
* base addresses are aligned to the instruction's access granularity;
* miniaturized profiles (``scale_factor > 1``) keep their reuse-distance
  support inside the truncated sequence, and coalescing degrees stay
  >= 1 transaction per access.

Simulator-config sanity mirrors Table 2's structure: cache geometry must
factor exactly (size = sets x ways x line), the main data caches use
power-of-two associativity, and MSHR/queue counts are positive.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

from repro.analysis.findings import Finding, format_findings
from repro.gpu.instructions import SYNC_PC

PathLike = Union[str, Path]

#: |sum(Q) - 1| beyond this is a malformed probability measure.
Q_TOLERANCE = 1e-6

_HISTOGRAM_KEYS = ("inter_stride", "intra_stride", "txns_per_access", "txn_stride")


class ProfileVerificationError(ValueError):
    """Raised when a profile fails verification on a hot path."""

    def __init__(self, findings: Sequence[Finding]) -> None:
        self.findings = list(findings)
        super().__init__(format_findings(self.findings))


def _finding(rule: str, origin: str, message: str) -> Finding:
    return Finding(rule=rule, path=origin, line=0, message=message, source="verify")


def _check_histogram(
    hist: Mapping[str, Any], label: str, origin: str, findings: List[Finding]
) -> None:
    for value, count in hist.items():
        if not isinstance(count, (int, float)) or isinstance(count, bool):
            findings.append(
                _finding(
                    "hist-bad-bin", origin,
                    f"{label}: bin {value!r} has non-numeric count {count!r}",
                )
            )
        elif count < 0:
            findings.append(
                _finding(
                    "hist-negative-bin", origin,
                    f"{label}: bin {value!r} has negative count {count}",
                )
            )


def verify_profile_payload(data: Mapping[str, Any], origin: str) -> List[Finding]:
    """All invariant violations of one kernel profile's raw JSON payload."""
    findings: List[Finding] = []
    pi_profiles = data.get("pi_profiles", [])
    instructions: Dict[str, Any] = data.get("instructions", {})

    if not pi_profiles:
        findings.append(
            _finding(
                "empty-profile", origin,
                "profile has no pi profiles; nothing can be generated from it",
            )
        )
    if not instructions:
        findings.append(
            _finding(
                "empty-profile", origin,
                "profile has no static instructions (B is empty)",
            )
        )

    # -- Q is a probability measure over Pi ---------------------------------
    q_total = 0.0
    q_valid = True
    for index, pi in enumerate(pi_profiles):
        probability = pi.get("probability")
        if not isinstance(probability, (int, float)) or isinstance(probability, bool):
            findings.append(
                _finding(
                    "q-out-of-range", origin,
                    f"pi[{index}]: probability {probability!r} is not a number",
                )
            )
            q_valid = False
            continue
        if not 0.0 <= float(probability) <= 1.0:
            findings.append(
                _finding(
                    "q-out-of-range", origin,
                    f"pi[{index}]: probability {probability} outside [0, 1]",
                )
            )
            q_valid = False
        q_total += float(probability)
    if pi_profiles and q_valid and abs(q_total - 1.0) > Q_TOLERANCE:
        findings.append(
            _finding(
                "q-not-normalized", origin,
                f"Q sums to {q_total:.9f}, not 1 within {Q_TOLERANCE:g}",
            )
        )

    scale_factor = float(data.get("scale_factor", 1.0))
    # A TB barrier flows through π sequences like an instruction but, by
    # design, has no entry in B.
    known_pcs = set(instructions.keys()) | {str(SYNC_PC)}

    # -- per-pi checks: reuse histograms, PC membership ---------------------
    for index, pi in enumerate(pi_profiles):
        label = f"pi[{index}]"
        reuse = pi.get("reuse", {})
        _check_histogram(reuse, f"{label}.reuse", origin, findings)
        fraction = pi.get("reuse_fraction", 0.0)
        if isinstance(fraction, (int, float)) and not 0.0 <= float(fraction) <= 1.0:
            findings.append(
                _finding(
                    "reuse-fraction-range", origin,
                    f"{label}: reuse_fraction {fraction} outside [0, 1]",
                )
            )
        sequence = pi.get("sequence", [])
        for pc in sequence:
            if str(pc) not in known_pcs:
                pc_repr = f"{pc:#x}" if isinstance(pc, int) else repr(pc)
                findings.append(
                    _finding(
                        "pi-unknown-pc", origin,
                        f"{label}: sequence references PC {pc_repr} with no "
                        f"entry in B (instructions)",
                    )
                )
        if scale_factor > 1.0 and sequence:
            limit = len(sequence) - 1
            bad = [
                int(value)
                for value in reuse
                if str(value).lstrip("-").isdigit() and int(value) > limit
            ]
            if bad:
                findings.append(
                    _finding(
                        "reuse-exceeds-sequence", origin,
                        f"{label}: miniaturized (factor "
                        f"{scale_factor:g}) but reuse distances "
                        f"{sorted(bad)[:4]} exceed the truncated sequence "
                        f"length {len(sequence)}",
                    )
                )

    # -- per-instruction checks: histograms, alignment, coalescing ----------
    for pc_key, stats in instructions.items():
        label = f"instructions[{pc_key}]"
        for key in _HISTOGRAM_KEYS:
            _check_histogram(stats.get(key, {}), f"{label}.{key}", origin, findings)
        for prev, hist in stats.get("intra_markov", {}).items():
            _check_histogram(
                hist, f"{label}.intra_markov[{prev}]", origin, findings
            )
        size = int(stats.get("size", 0))
        base = int(stats.get("base_address", 0))
        if base < 0:
            findings.append(
                _finding(
                    "base-misaligned", origin,
                    f"{label}: negative base address {base:#x}",
                )
            )
        elif size > 0 and base % size:
            findings.append(
                _finding(
                    "base-misaligned", origin,
                    f"{label}: base address {base:#x} not aligned to the "
                    f"{size}B access granularity",
                )
            )
        for value in stats.get("txns_per_access", {}):
            if str(value).lstrip("-").isdigit() and int(value) < 1:
                findings.append(
                    _finding(
                        "txns-nonpositive", origin,
                        f"{label}: coalescing degree {value} < 1 "
                        f"transaction per access",
                    )
                )
        dynamic = stats.get("dynamic_count", 0)
        if isinstance(dynamic, (int, float)) and dynamic < 0:
            findings.append(
                _finding(
                    "negative-count", origin,
                    f"{label}: negative dynamic_count {dynamic}",
                )
            )

    total = data.get("total_transactions", 0)
    if isinstance(total, (int, float)) and total < 0:
        findings.append(
            _finding(
                "negative-count", origin,
                f"total_transactions is negative ({total})",
            )
        )
    return findings


def verify_application_payload(
    data: Mapping[str, Any], origin: str
) -> List[Finding]:
    """Verify every kernel payload of a multi-kernel application profile."""
    findings: List[Finding] = []
    kernels = data.get("kernels", [])
    if not kernels:
        findings.append(
            _finding("empty-profile", origin, "application profile has no kernels")
        )
    for index, kernel in enumerate(kernels):
        name = kernel.get("name", f"kernel[{index}]")
        findings.extend(
            verify_profile_payload(kernel, f"{origin}::{name}")
        )
    return findings


def verify_profile(profile: Any, origin: Optional[str] = None) -> List[Finding]:
    """Verify a constructed :class:`GmapProfile` via its dict round trip."""
    return verify_profile_payload(
        profile.to_dict(), origin or f"<profile {profile.name!r}>"
    )


def verify_profile_file(path: PathLike) -> List[Finding]:
    """Verify a JSON artifact on disk: a profile or a sweep report.

    Checksum validation happens first (as in normal loading); a corrupt
    file yields a single ``corrupt-artifact`` finding rather than an
    exception, so ``gmap check`` can report every artifact in one run.
    """
    from repro.core.integrity import CorruptArtifactError
    from repro.io.profile_io import _read_json

    path = Path(path)
    origin = str(path)
    try:
        payload = _read_json(path)
    except CorruptArtifactError as exc:
        return [_finding("corrupt-artifact", origin, str(exc))]
    except (OSError, ValueError) as exc:
        return [_finding("unreadable-artifact", origin, f"cannot read: {exc}")]
    return verify_artifact_payload(payload, origin)


#: Artifact format tag of sweep reports
#: (:data:`repro.memsim.simulator.SWEEP_FORMAT`).
SWEEP_FORMAT = "gmap-sweep"

#: ``format`` tags of the JSON artifacts ``gmap check`` knows; profiles
#: carry no tag.
KNOWN_ARTIFACT_FORMATS = (SWEEP_FORMAT,)

#: Sweep engines in fallback order: a config only ever falls back down.
SWEEP_ENGINES = ("analytic", "array", "oracle")


def verify_artifact_payload(
    payload: Mapping[str, Any], origin: str
) -> List[Finding]:
    """Dispatch a JSON artifact payload to its verifier by ``format`` tag.

    Untagged payloads are profiles (kernel or application layout).  A
    ``gmap-*`` tag that names no known artifact — a retired format, or a
    newer one this build cannot read — yields one
    ``unknown-artifact-format`` finding instead of profile findings that
    would misdescribe the file.
    """
    tag = payload.get("format")
    if tag == SWEEP_FORMAT:
        return verify_sweep_report(payload, origin)
    if isinstance(tag, str) and tag.startswith("gmap-"):
        return [_finding(
            "unknown-artifact-format", origin,
            f"format {tag!r} is not a known artifact (known: "
            f"{list(KNOWN_ARTIFACT_FORMATS)}); regenerate it with this build")]
    if "kernels" in payload:
        return verify_application_payload(payload, origin)
    return verify_profile_payload(payload, origin)


def verify_sweep_report(
    data: Mapping[str, Any], origin: str
) -> List[Finding]:
    """Validate a sweep artifact (``gmap-sweep``).

    The report (:func:`repro.memsim.simulator.sweep_report`) runs ONE
    fixed-order trace under N configurations, so its ``results`` blocks
    must satisfy:

    * **count** — ``num_configs`` matches the number of emitted blocks;
    * **stat blocks** — each carries ``l1``/``l2`` blocks whose hits +
      misses equal accesses;
    * **trace identity** — the request total and the replay cycle count
      are properties of the trace, not the cache geometry: every block
      (prediction or replay) reports the same ``requests_issued`` and
      ``cycles``.  Per-level access counts legitimately differ — sector
      splitting depends on the config's line size;
    * **engines** — the report's requested ``engine`` and every result's
      ``engine`` are known, and no result ran on an engine *above* the
      requested one in the ``analytic → array → oracle`` chain; a
      ``tolerance`` in (0, 1] is present iff the sweep is analytic;
    * **fallbacks** — two-way consistency: a result ran on an engine other
      than the requested one **iff** a ``fallbacks`` entry with a
      non-empty reason list explains its index.
    """
    findings: List[Finding] = []

    def flag(rule: str, message: str) -> None:
        findings.append(_finding(rule, origin, message))

    results = data.get("results", [])
    if not isinstance(results, list) or not results:
        flag("sweep-count", "report has no per-config result blocks")
        return findings
    if data.get("num_configs") != len(results):
        flag("sweep-count", f"num_configs declares {data.get('num_configs')!r} "
             f"but the report emits {len(results)} stat blocks")
    requested = data.get("engine")
    if requested not in SWEEP_ENGINES:
        flag("sweep-engine", f"requested engine {requested!r} is not one of "
             f"{list(SWEEP_ENGINES)}")
        requested = None
    tolerance = data.get("tolerance")
    if requested == "analytic" and (
            not isinstance(tolerance, (int, float)) or not 0 < tolerance <= 1):
        flag("sweep-tolerance",
             f"tolerance {tolerance!r} is not a miss-rate bound in (0, 1]")
    elif requested not in (None, "analytic") and "tolerance" in data:
        flag("sweep-tolerance", f"an {requested} sweep makes no predictions "
             f"but declares tolerance {tolerance!r}")
    blocks: List[Mapping[str, Any]] = []
    fell_back: Dict[int, Any] = {}
    for index, entry in enumerate(results):
        entry = entry if isinstance(entry, Mapping) else {}
        engine = entry.get("engine")
        if engine not in SWEEP_ENGINES:
            flag("sweep-engine", f"results[{index}].engine is {engine!r}, not "
                 f"one of {list(SWEEP_ENGINES)}")
        elif requested is not None and engine != requested:
            if SWEEP_ENGINES.index(engine) < SWEEP_ENGINES.index(requested):
                flag("sweep-engine", f"results[{index}] ran on {engine!r}, "
                     f"above the requested {requested!r} engine")
            fell_back[index] = engine
        block = entry.get("result")
        if not isinstance(block, Mapping):
            flag("sweep-bad-block",
                 f"results[{index}] carries no result stat block")
            continue
        blocks.append(block)
        for level in ("l1", "l2"):
            stats = block.get(level)
            if not isinstance(stats, Mapping):
                flag("sweep-bad-block",
                     f"results[{index}] has no {level} stat block")
                continue
            accesses = stats.get("accesses", 0)
            hits = stats.get("hits", 0)
            misses = stats.get("misses", 0)
            if hits + misses != accesses:
                flag("sweep-totals", f"results[{index}].{level}: hits {hits} "
                     f"+ misses {misses} != accesses {accesses}")
    for key in ("requests_issued", "cycles"):
        values = {block.get(key) for block in blocks}
        if len(values) > 1:
            flag("sweep-trace-mismatch",
                 f"{key} differs across configs of the same trace: "
                 f"{sorted(values, key=repr)[:4]} — every block must "
                 f"describe one identical access stream")
    explained: set[int] = set()
    for fallback in data.get("fallbacks", []):
        index = fallback.get("index") if isinstance(fallback, Mapping) else None
        if not isinstance(index, int) or not 0 <= index < len(results):
            flag("sweep-fallback-index", f"fallbacks entry {fallback!r} does "
                 f"not point at an emitted config block")
            continue
        reasons = fallback.get("reasons")
        if (not isinstance(reasons, list) or not reasons
                or not all(isinstance(r, str) and r for r in reasons)):
            flag("sweep-fallback-reasons", f"fallbacks[{index}] must carry a "
                 f"non-empty list of reason strings, got {reasons!r}")
        explained.add(index)
    if requested is None:
        return findings
    for index in sorted(set(fell_back) - explained):
        flag("sweep-fallback-unexplained", f"results[{index}] ran on "
             f"{fell_back[index]!r} instead of the requested {requested!r} "
             f"engine but no fallbacks entry explains why")
    for index in sorted(explained - set(fell_back)):
        flag("sweep-fallback-contradiction", f"fallbacks records a fallback "
             f"for config {index} but results[{index}] claims the requested "
             f"{requested!r} engine")
    return findings


def verify_trace_file(path: PathLike) -> List[Finding]:
    """Verify a binary ``.npz`` trace container's header and payload.

    Checks, in order: the container is a readable uncompressed ``.npz``
    with a ``_meta`` header; the format tag is one of the known trace
    schemas; the schema version is the one this build writes; every
    declared column is present with its declared dtype (and, for the warp
    and thread formats, matches the canonical column table); CSR offset
    columns are monotonic and anchored at zero; and the byte checksum
    matches.  Like :func:`verify_profile_file`, damage is reported as
    findings — never raised — so ``gmap check`` can cover every artifact
    in one run.
    """
    from repro.core.backend import numpy_available

    path = Path(path)
    origin = str(path)
    if not numpy_available():
        return [
            _finding(
                "trace-needs-numpy", origin,
                "binary trace containers need numpy to verify; "
                "re-run on an interpreter with numpy installed",
            )
        ]
    import zipfile

    import numpy as np

    from repro.core.integrity import CorruptArtifactError
    from repro.memsim import arrays as container

    try:
        with np.load(path) as payload:
            columns = {name: payload[name] for name in payload.files}
    except (OSError, ValueError, zipfile.BadZipFile) as exc:
        return [_finding("unreadable-artifact", origin, f"cannot read: {exc}")]
    if container.META_MEMBER not in columns:
        return [
            _finding(
                "trace-missing-meta", origin,
                "container has no _meta header member",
            )
        ]
    try:
        meta = container._read_meta(columns.pop(container.META_MEMBER), path)
    except CorruptArtifactError as exc:
        return [_finding("corrupt-artifact", origin, str(exc))]

    findings: List[Finding] = []
    fmt = meta.get("format")
    known = {
        container.FORMAT_WARP: container.WARP_COLUMNS,
        container.FORMAT_THREAD: container.THREAD_COLUMNS,
        container.FORMAT_PIPELINE: None,
    }
    if fmt not in known:
        findings.append(
            _finding(
                "trace-unknown-format", origin,
                f"unknown format tag {fmt!r}; expected one of "
                f"{sorted(known)}",
            )
        )
    version = meta.get("schema_version")
    if version != container.TRACE_SCHEMA_VERSION:
        findings.append(
            _finding(
                "trace-schema-version", origin,
                f"schema_version {version!r} is not the supported "
                f"{container.TRACE_SCHEMA_VERSION}",
            )
        )
    declared = meta.get("columns")
    if not isinstance(declared, dict):
        findings.append(
            _finding(
                "trace-missing-columns", origin,
                "_meta lacks a columns dtype table",
            )
        )
        declared = {}
    for name in sorted(declared):
        dtype_str = declared[name]
        member = columns.get(name)
        if member is None:
            findings.append(
                _finding(
                    "trace-column-missing", origin,
                    f"declared column {name!r} is missing from the container",
                )
            )
        elif member.dtype.str != dtype_str:
            findings.append(
                _finding(
                    "trace-column-dtype", origin,
                    f"column {name!r} has dtype {member.dtype.str}, header "
                    f"declares {dtype_str}",
                )
            )
    for name in sorted(set(columns) - set(declared)):
        findings.append(
            _finding(
                "trace-column-undeclared", origin,
                f"container member {name!r} is not declared in the header",
            )
        )
    canonical = known.get(fmt)
    if canonical:
        for name in sorted(canonical):
            if name not in declared:
                findings.append(
                    _finding(
                        "trace-column-missing", origin,
                        f"{fmt} schema requires column {name!r}, header "
                        f"does not declare it",
                    )
                )
            elif declared[name] != canonical[name]:
                findings.append(
                    _finding(
                        "trace-column-dtype", origin,
                        f"{fmt} schema declares {name!r} as "
                        f"{canonical[name]}, header says {declared[name]}",
                    )
                )
    for name in sorted(columns):
        column = columns[name]
        if not name.endswith("_start") or column.ndim != 1 or not column.size:
            continue
        if int(column[0]) != 0:
            findings.append(
                _finding(
                    "trace-offsets-broken", origin,
                    f"offset column {name!r} starts at {int(column[0])}, "
                    f"not 0",
                )
            )
        if column.size > 1 and bool(np.any(np.diff(column) < 0)):
            findings.append(
                _finding(
                    "trace-offsets-broken", origin,
                    f"offset column {name!r} is not monotonically "
                    f"non-decreasing",
                )
            )
    stored = meta.get("checksum")
    if not stored:
        findings.append(
            _finding(
                "trace-missing-checksum", origin,
                "_meta carries no column checksum",
            )
        )
    elif stored != container.columns_checksum(columns):
        findings.append(
            _finding(
                "corrupt-artifact", origin,
                "binary trace checksum mismatch — file is truncated or "
                "corrupted; re-export it from its source",
            )
        )
    return findings


def _is_power_of_two(value: int) -> bool:
    return value > 0 and not value & (value - 1)


def verify_sim_config(config: Any, origin: str = "<config>") -> List[Finding]:
    """Sanity checks on a :class:`~repro.memsim.config.SimConfig`.

    The dataclass constructors already reject impossible geometry; this
    pass adds the sweep-level conventions a constructor cannot see: main
    data caches (L1/L2) with power-of-two associativity (texture caches
    historically use odd ways — Fermi's 24-way — so only L1/L2 are held
    to it), positive MSHR counts, and exact size = sets x ways x line
    factorisation.
    """
    findings: List[Finding] = []
    for level in ("l1", "l2"):
        cache = getattr(config, level, None)
        if cache is None:
            continue
        label = f"{origin}.{level}"
        if cache.size != cache.num_sets * cache.assoc * cache.line_size:
            findings.append(
                _finding(
                    "config-size-mismatch", label,
                    f"cache size {cache.size} != sets x ways x line "
                    f"({cache.num_sets} x {cache.assoc} x {cache.line_size})",
                )
            )
        if not _is_power_of_two(cache.assoc):
            findings.append(
                _finding(
                    "config-assoc-pow2", label,
                    f"associativity {cache.assoc} is not a power of two",
                )
            )
        if cache.mshrs < 1:
            findings.append(
                _finding(
                    "config-mshr-positive", label,
                    f"MSHR count must be positive, got {cache.mshrs}",
                )
            )
    dram = getattr(config, "dram", None)
    if dram is not None and dram.frfcfs_window < 1:
        findings.append(
            _finding(
                "config-queue-positive", f"{origin}.dram",
                f"FR-FCFS window must be positive, got {dram.frfcfs_window}",
            )
        )
    return findings


def verify_sweep_configs(
    configs: Sequence[Any], origin: str = "sweep"
) -> List[Finding]:
    """Verify every configuration of a sweep, labelled by index."""
    findings: List[Finding] = []
    for index, config in enumerate(configs):
        findings.extend(verify_sim_config(config, origin=f"{origin}[{index}]"))
    return findings
