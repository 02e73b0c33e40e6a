"""Engine capability table: which configuration features each engine refuses.

Two fast engines sit in front of the scalar event-loop oracle: ``array``
(the array-resident flat replay, :mod:`repro.memsim.vectorized`) and
``analytic`` (the O(histogram) stack-distance predictor,
:mod:`repro.analytical.analytic`).  Each row of :data:`CAPABILITIES` is
one configuration feature with one reason wording and the engines it
refuses; the oracle refuses nothing.  Trace-level and model-state reasons
(texture/constant traffic, unprofiled line sizes) are added on top by the
engines themselves.
"""

from __future__ import annotations

from typing import Any, Callable, FrozenSet, Iterable, List, NamedTuple, Sequence

from repro.memsim.config import SimConfig

#: Engines with capability rows (the oracle, ``"oracle"``, accepts all).
ENGINES = ("array", "analytic")

#: Per-set LRU stacks are tracked to this depth; deeper reuses collapse
#: into one ≥-depth bucket (they miss at any tracked associativity).
TRACKED_SET_DEPTH = 4096


class UnsupportedConfigError(ValueError):
    """A config (or trace, or model state) an engine cannot run.

    Carries the machine-readable ``reasons`` so callers can record *why*
    the engine declined before falling back — the sweep artifact, the
    service degradation layer and ``gmap check`` surface them verbatim.
    """

    def __init__(self, reasons: Sequence[str]) -> None:
        self.reasons: List[str] = list(reasons)
        super().__init__(
            "configuration needs a fallback engine: " + "; ".join(self.reasons)
        )


class Capability(NamedTuple):
    """One row: a config feature, the engines it refuses, its one wording.

    ``refuses`` tests the L1 and then the L2 :class:`CacheConfig` when
    ``per_level`` is set, else the whole :class:`SimConfig`; ``wording``
    is a :meth:`str.format` template over ``config``, ``level``, ``cache``
    and ``depth`` (:data:`TRACKED_SET_DEPTH`).
    """

    feature: str
    refused_by: FrozenSet[str]
    per_level: bool
    refuses: Callable[[Any], bool]
    wording: str

    def reasons(self, config: SimConfig) -> List[str]:
        """This row's reasons for ``config`` (empty when it does not apply)."""
        scopes = ((("l1", config.l1), ("l2", config.l2)) if self.per_level
                  else ((None, config),))
        return [
            self.wording.format(config=config, level=level, cache=scope,
                                depth=TRACKED_SET_DEPTH)
            for level, scope in scopes if self.refuses(scope)
        ]


_BOTH = frozenset(ENGINES)

#: The capability table, one row per configuration feature.
CAPABILITIES = (
    Capability(
        "prefetchers", _BOTH, False,
        lambda c: c.l1_prefetcher is not None or c.l2_prefetcher is not None,
        "prefetchers rewrite the demand stream and require exact event "
        "ordering"),
    Capability(
        "replacement", _BOTH, True,
        lambda cache: cache.replacement != "lru",
        "{level} replacement {cache.replacement!r} is not true LRU "
        "(process-seeded RNG / FIFO stamps)"),
    Capability(
        "write-policy", _BOTH, True,
        lambda cache: (cache.write_policy != "write-back"
                       or not cache.write_allocate),
        "{level} write policy {cache.write_policy}/"
        "allocate={cache.write_allocate} bypasses the write-back LRU stack"),
    Capability(
        "inclusive-l2", _BOTH, False,
        lambda c: c.l2_inclusion != "non-inclusive",
        "{config.l2_inclusion} L2 back-invalidates L1 lines outside the LRU "
        "stack"),
    Capability(
        "set-depth", frozenset({"analytic"}), True,
        lambda cache: cache.assoc > TRACKED_SET_DEPTH,
        "{level} associativity {cache.assoc} exceeds the tracked stack "
        "depth {depth}"),
)


def fallback_reasons(config: SimConfig, engine: str) -> List[str]:
    """Every reason ``engine`` refuses ``config``, in table order.

    An empty list means the engine can run the config, subject to its own
    trace-level or model-state checks.
    """
    if engine not in ENGINES:
        raise ValueError(f"engine must be one of {ENGINES}, got {engine!r}")
    return [reason for row in CAPABILITIES if engine in row.refused_by
            for reason in row.reasons(config)]


def merge_reasons(*groups: Iterable[str]) -> List[str]:
    """Concatenate reason lists in order, dropping repeats."""
    merged: List[str] = []
    for group in groups:
        for reason in group:
            if reason not in merged:
                merged.append(reason)
    return merged
