"""The ``concurrency`` rule family: interprocedural lock/fork/signal checks.

Built on :mod:`repro.analysis.interproc`, these rules reason across
function and module boundaries — a lock acquired in one method and a
blocking call three frames down the call graph still meet:

* ``lock-discipline`` — a lock acquired manually (``.acquire()``) whose
  function has no structurally guaranteed release (``with`` or
  ``try/finally``);
* ``blocking-under-lock`` — a blocking call (``sleep_backoff``, HTTP,
  subprocess waits, ``Event.wait``) executed, directly or transitively,
  while a lock is held;
* ``lock-order`` — two locks acquired in opposite orders on different
  paths (the classic ABBA deadlock shape), including orders completed
  through callees;
* ``fork-safety`` — ``os.fork``/fork-based ``Process`` creation while a
  lock is held, or in a module that also starts threads (a forked child
  inherits the thread's locked locks without the thread to release them);
* ``signal-safety`` — a registered signal handler that transitively
  acquires locks, blocks, or forks (handlers run on an arbitrary frame of
  the main thread, so none of those are safe);
* ``shared-state-race`` — module-level mutable state or instance
  attributes mutated without a lock when other accesses are guarded or the
  mutation runs on a spawned thread.

Every finding carries a **stable key** ``rule|qualname|detail`` that is
independent of line numbers, so the checked-in baseline
(``concurrency_baseline.json``) survives unrelated edits: known accepted
findings are filtered out, *new* regressions fail the scan, and baseline
entries whose finding disappeared are reported as stale so they can be
expired with ``--write-baseline``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.analysis.findings import Finding
from repro.analysis.interproc import (
    FunctionSummary,
    PathLike,
    Project,
    build_project,
    load_sources,
)

#: The rule ids this module can emit (suppressible via ``# gmap: allow``).
CONCURRENCY_RULE_IDS: Tuple[str, ...] = (
    "lock-discipline",
    "blocking-under-lock",
    "lock-order",
    "fork-safety",
    "signal-safety",
    "shared-state-race",
)

BASELINE_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ConcurrencyFinding:
    """A finding plus the line-independent identity the baseline matches."""

    finding: Finding
    key: str


@dataclass
class BaselineResult:
    """Outcome of filtering findings through a baseline."""

    new: List[Finding] = field(default_factory=list)
    accepted: List[Finding] = field(default_factory=list)
    stale_keys: List[str] = field(default_factory=list)


class _Emitter:
    def __init__(self, suppressions: Dict[str, Dict[int, Set[str]]]) -> None:
        self.findings: List[ConcurrencyFinding] = []
        self._seen: Set[str] = set()
        self._suppressions = suppressions

    def emit(self, rule: str, summary: FunctionSummary, line: int,
             detail: str, message: str) -> None:
        key = f"{rule}|{summary.qualname}|{detail}"
        if key in self._seen:
            return
        per_file = self._suppressions.get(summary.rel_path, {})
        if rule in per_file.get(line, set()):
            return
        self._seen.add(key)
        self.findings.append(ConcurrencyFinding(
            finding=Finding(
                rule=rule,
                path=summary.rel_path,
                line=line,
                message=f"{summary.qualname}: {message}",
                source="concurrency",
            ),
            key=key,
        ))


def _short(lock: str) -> str:
    """Human-readable tail of a lock id for messages."""
    return lock.split(":", 1)[-1]


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------


def _check_lock_discipline(project: Project, out: _Emitter) -> None:
    for summary in project.functions.values():
        structured_releases = {
            ev.lock for ev in summary.lock_events
            if ev.action == "release" and ev.structured
        }
        flagged: Set[str] = set()
        for ev in summary.lock_events:
            if ev.action != "acquire" or ev.style == "with":
                continue
            if ev.lock in structured_releases or ev.lock in flagged:
                continue
            flagged.add(ev.lock)
            releases = [r for r in summary.lock_events
                        if r.action == "release" and r.lock == ev.lock]
            if releases:
                what = "released outside try/finally"
            else:
                what = "never released in this function"
            out.emit(
                "lock-discipline", summary, ev.line, ev.lock,
                f"{_short(ev.lock)} acquired manually and {what}; "
                f"use 'with' or release in a finally block (or baseline a "
                f"deliberate paired acquire/release API)",
            )


def _check_blocking_under_lock(project: Project, out: _Emitter) -> None:
    for summary in project.functions.values():
        reported_lines: Set[int] = set()
        for effect in summary.effects:
            if effect.kind != "blocking" or not effect.held:
                continue
            reported_lines.add(effect.line)
            out.emit(
                "blocking-under-lock", summary, effect.line, effect.name,
                f"blocking call {effect.name} while holding "
                f"{_short(effect.held[-1])}",
            )
        for site in summary.calls:
            if not site.held or site.resolved is None:
                continue
            if site.line in reported_lines:
                continue
            blocking = project.transitive_blocking(site.resolved)
            if blocking:
                reported_lines.add(site.line)
                out.emit(
                    "blocking-under-lock", summary, site.line, site.callee,
                    f"call to {site.callee} reaches blocking "
                    f"{sorted(blocking)[0]} while holding "
                    f"{_short(site.held[-1])}",
                )


def _lock_order_edges(
    project: Project,
) -> Dict[Tuple[str, str], Tuple[FunctionSummary, int]]:
    edges: Dict[Tuple[str, str], Tuple[FunctionSummary, int]] = {}
    for summary in project.functions.values():
        for ev in summary.lock_events:
            if ev.action != "acquire":
                continue
            for held in ev.held:
                if held != ev.lock:
                    edges.setdefault((held, ev.lock), (summary, ev.line))
        for site in summary.calls:
            if not site.held or site.resolved is None:
                continue
            for inner in project.transitive_acquires(site.resolved):
                for held in site.held:
                    if held != inner:
                        edges.setdefault((held, inner), (summary, site.line))
    return edges


def _check_lock_order(project: Project, out: _Emitter) -> None:
    edges = _lock_order_edges(project)
    adjacency: Dict[str, Set[str]] = {}
    for (a, b) in edges:
        adjacency.setdefault(a, set()).add(b)

    reported: Set[FrozenSet[str]] = set()

    def _find_cycle(start: str) -> Optional[List[str]]:
        stack: List[Tuple[str, List[str]]] = [(start, [start])]
        while stack:
            node, path = stack.pop()
            for nxt in adjacency.get(node, ()):
                if nxt == start:
                    return path
                if nxt in path or len(path) >= 6:
                    continue
                stack.append((nxt, path + [nxt]))
        return None

    for start in sorted(adjacency):
        cycle = _find_cycle(start)
        if cycle is None:
            continue
        locks = frozenset(cycle)
        if locks in reported:
            continue
        reported.add(locks)
        second = cycle[1] if len(cycle) > 1 else cycle[0]
        summary, line = edges[(cycle[0], second)]
        ordering = " -> ".join(_short(name) for name in cycle + [cycle[0]])
        out.emit(
            "lock-order", summary, line,
            "|".join(sorted(locks)),
            f"lock-order cycle {ordering}: another path acquires these "
            f"locks in the opposite order, which can deadlock",
        )


def _check_fork_safety(project: Project, out: _Emitter) -> None:
    for summary in project.functions.values():
        module = project.modules.get(summary.module)
        for effect in summary.effects:
            if effect.kind != "fork":
                continue
            if effect.held:
                out.emit(
                    "fork-safety", summary, effect.line,
                    f"held|{effect.name}",
                    f"fork via {effect.name} while holding "
                    f"{_short(effect.held[-1])}: the child inherits a "
                    f"locked lock with no thread to release it",
                )
            elif module is not None and module.spawns_threads:
                out.emit(
                    "fork-safety", summary, effect.line,
                    f"threads|{effect.name}",
                    f"fork via {effect.name} in a module that also starts "
                    f"threads: locks and fds held by peer threads are "
                    f"inherited mid-operation by the child",
                )
        for site in summary.calls:
            if not site.held or site.resolved is None:
                continue
            forks = project.transitive_forks(site.resolved)
            if forks:
                out.emit(
                    "fork-safety", summary, site.line,
                    f"held-call|{site.callee}",
                    f"call to {site.callee} reaches fork "
                    f"{sorted(forks)[0]} while holding "
                    f"{_short(site.held[-1])}",
                )


def _check_signal_safety(project: Project, out: _Emitter) -> None:
    for summary in project.functions.values():
        for handler, line in summary.signal_handlers:
            if handler not in project.functions:
                continue
            acquires = project.transitive_acquires(handler)
            blocking = project.transitive_blocking(handler)
            forks = project.transitive_forks(handler)
            problems: List[str] = []
            if acquires:
                problems.append(
                    f"acquires {_short(sorted(acquires)[0])}")
            if blocking:
                problems.append(f"blocks in {sorted(blocking)[0]}")
            if forks:
                problems.append(f"forks via {sorted(forks)[0]}")
            if problems:
                out.emit(
                    "signal-safety", summary, line, handler,
                    f"signal handler {handler} {' and '.join(problems)}; "
                    f"handlers interrupt arbitrary frames — set an Event "
                    f"or flag instead",
                )


def _class_methods(project: Project, module: str,
                   cls: str) -> List[FunctionSummary]:
    prefix = f"{module}:{cls}."
    return [s for s in project.functions.values()
            if s.qualname.startswith(prefix)]


def _check_shared_state(project: Project, out: _Emitter) -> None:
    # (a) module-level mutable state written unlocked in threaded modules.
    for summary in project.functions.values():
        module = project.modules.get(summary.module)
        if module is None or not module.spawns_threads:
            continue
        for write in summary.global_writes:
            if write.held:
                continue
            out.emit(
                "shared-state-race", summary, write.line,
                f"global|{write.name}",
                f"module-level state '{write.name}' written without a lock "
                f"in a module that runs threads",
            )

    # (b)/(c) instance attributes.
    thread_entries = project.thread_entry_points()
    for module_name, module in project.modules.items():
        for cls in module.classes:
            methods = _class_methods(project, module_name, cls)
            if not methods:
                continue
            lockish = (module.lock_attrs.get(cls, set())
                       | module.event_attrs.get(cls, set()))
            #: attrs with at least one non-init access under a lock.
            guarded: Dict[str, str] = {}
            for m in methods:
                for acc in m.attr_accesses:
                    if acc.in_init or not acc.held:
                        continue
                    if acc.attr not in lockish:
                        guarded.setdefault(acc.attr, acc.held[-1])
            entry_methods = {m.qualname for m in methods
                             if m.qualname in thread_entries}
            threaded = project.reachable_from(entry_methods)
            for m in methods:
                for acc in m.attr_accesses:
                    if (acc.mode != "mutate" or acc.held or acc.in_init
                            or acc.attr in lockish):
                        continue
                    if acc.attr in guarded:
                        out.emit(
                            "shared-state-race", m, acc.line,
                            f"attr|{cls}.{acc.attr}",
                            f"self.{acc.attr} is accessed under "
                            f"{_short(guarded[acc.attr])} elsewhere but "
                            f"mutated here without it",
                        )
                    elif m.qualname in threaded:
                        out.emit(
                            "shared-state-race", m, acc.line,
                            f"attr|{cls}.{acc.attr}",
                            f"self.{acc.attr} mutated without a lock on a "
                            f"code path reachable from a spawned thread",
                        )


_RULE_CHECKS = (
    _check_lock_discipline,
    _check_blocking_under_lock,
    _check_lock_order,
    _check_fork_safety,
    _check_signal_safety,
    _check_shared_state,
)


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def analyze_sources(
    sources: Dict[str, str],
) -> List[ConcurrencyFinding]:
    """Run every concurrency rule over ``{rel posix path: source text}``."""
    from repro.analysis.engine import collect_suppressions

    project = build_project(sources)
    suppressions = {
        rel: collect_suppressions(text) for rel, text in sources.items()
    }
    out = _Emitter(suppressions)
    for check in _RULE_CHECKS:
        check(project, out)
    out.findings.sort(
        key=lambda c: (c.finding.path, c.finding.line, c.finding.rule))
    return out.findings


def analyze_paths(
    paths: Sequence[PathLike],
) -> List[ConcurrencyFinding]:
    """Analyze files/directories (directories are walked recursively)."""
    return analyze_sources(load_sources(paths))


# ---------------------------------------------------------------------------
# Baseline
# ---------------------------------------------------------------------------


def default_baseline_path() -> Path:
    """The checked-in baseline shipped next to this module."""
    return Path(__file__).resolve().parent / "concurrency_baseline.json"


def load_baseline(path: PathLike) -> Dict[str, str]:
    """``{finding key: acceptance reason}`` from a baseline file."""
    raw = json.loads(Path(path).read_text(encoding="utf-8"))
    if raw.get("schema_version") != BASELINE_SCHEMA_VERSION:
        raise ValueError(
            f"unsupported baseline schema {raw.get('schema_version')!r} "
            f"in {path}")
    entries = raw.get("entries", [])
    baseline: Dict[str, str] = {}
    for entry in entries:
        baseline[str(entry["key"])] = str(entry.get("reason", "accepted"))
    return baseline


def apply_baseline(
    findings: Sequence[ConcurrencyFinding],
    baseline: Dict[str, str],
) -> BaselineResult:
    """Split findings into new vs baseline-accepted, and report stale keys.

    *Add* semantics: a finding whose key is absent from the baseline is
    new and fails the scan.  *Expire* semantics: a baseline key that no
    longer matches any finding is stale — reported so ``--write-baseline``
    can drop it, but never a failure by itself.
    """
    result = BaselineResult()
    matched: Set[str] = set()
    for item in findings:
        if item.key in baseline:
            matched.add(item.key)
            result.accepted.append(item.finding)
        else:
            result.new.append(item.finding)
    result.stale_keys = sorted(set(baseline) - matched)
    return result


def write_baseline(
    findings: Sequence[ConcurrencyFinding],
    path: PathLike,
    previous: Optional[Dict[str, str]] = None,
) -> None:
    """Write a baseline accepting exactly the given findings.

    Reasons from ``previous`` are carried over for keys that survive, so
    regenerating after unrelated churn keeps the documented rationale.
    """
    previous = previous or {}
    entries = [
        {
            "key": item.key,
            "reason": previous.get(item.key, "accepted"),
        }
        for item in sorted(findings, key=lambda c: c.key)
    ]
    payload = {
        "schema_version": BASELINE_SCHEMA_VERSION,
        "tool": "gmap-concurrency",
        "entries": entries,
    }
    Path(path).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
