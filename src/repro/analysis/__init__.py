"""Static analysis for reproducibility: ``gmap check``.

Two passes guard the invariants that make G-MAP sweeps bit-identical and
profiles trustworthy *before* a multi-hour campaign starts:

* the **determinism linter** (:mod:`repro.analysis.engine` plus the rule
  registry in :mod:`repro.analysis.rules`) scans Python sources for
  reproducibility hazards — unseeded RNG use, wall-clock reads inside
  simulation paths, unordered iteration, float equality, mutable default
  arguments, bare ``except``, stray ``os.environ`` reads;
* the **artifact verifier** (:mod:`repro.analysis.verify`) checks the
  semantic invariants of the statistical 5-tuple ``(Π, Q, B, P_S, P_R)``
  and of simulator configurations, so a malformed profile fails in
  milliseconds instead of mid-sweep;
* the **concurrency analyzer** (:mod:`repro.analysis.interproc` building
  per-function summaries and a call graph, :mod:`repro.analysis.concurrency`
  running the rules) reasons interprocedurally about locks, blocking calls,
  fork/thread interplay, signal handlers, and shared mutable state across
  the serving fleet, gated by a checked-in baseline
  (``concurrency_baseline.json``).

Findings can also be serialised as SARIF 2.1.0
(:func:`~repro.analysis.sarif.findings_to_sarif`) for code-scanning upload.

Both passes emit :class:`~repro.analysis.findings.Finding` records and are
wired into ``gmap check`` (see :mod:`repro.cli`), the top of
``gmap validate``, and ``scripts/reproduce_all.py``.
"""

from __future__ import annotations

from repro.analysis.concurrency import (
    CONCURRENCY_RULE_IDS,
    BaselineResult,
    ConcurrencyFinding,
    analyze_paths,
    analyze_sources,
    apply_baseline,
    default_baseline_path,
    load_baseline,
    write_baseline,
)
from repro.analysis.engine import (
    EngineConfig,
    collect_suppressions,
    lint_file,
    lint_paths,
)
from repro.analysis.sarif import findings_to_sarif
from repro.analysis.findings import (
    FINDINGS_SCHEMA_VERSION,
    Finding,
    findings_to_json,
    format_findings,
)
from repro.analysis.verify import (
    ProfileVerificationError,
    verify_application_payload,
    verify_artifact_payload,
    verify_profile,
    verify_profile_file,
    verify_profile_payload,
    verify_sim_config,
    verify_sweep_configs,
    verify_sweep_report,
    verify_trace_file,
)

__all__ = [
    "BaselineResult",
    "CONCURRENCY_RULE_IDS",
    "ConcurrencyFinding",
    "EngineConfig",
    "FINDINGS_SCHEMA_VERSION",
    "Finding",
    "ProfileVerificationError",
    "analyze_paths",
    "analyze_sources",
    "apply_baseline",
    "collect_suppressions",
    "default_baseline_path",
    "findings_to_json",
    "findings_to_sarif",
    "format_findings",
    "lint_file",
    "lint_paths",
    "load_baseline",
    "write_baseline",
    "verify_application_payload",
    "verify_artifact_payload",
    "verify_profile",
    "verify_profile_file",
    "verify_profile_payload",
    "verify_sim_config",
    "verify_sweep_configs",
    "verify_sweep_report",
    "verify_trace_file",
]
