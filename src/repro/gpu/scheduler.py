"""Warp scheduling policies.

G-MAP accounts for GPU thread-level parallelism with a *per-core warp queue*
(paper section 4.5): the queue initially holds all active warps ordered by
warp identifier; a scheduling policy picks which ready warp issues its next
(coalesced) memory request, and an issuing warp is delayed in proportion to
the request's latency before it becomes ready again.  The queue itself
lives in the locals of the simulator's per-core issue generator
(:meth:`repro.memsim.simulator._CoreState.issue`), created once per run
and resumed for each of the core's turns; a policy only sees the
ascending ids of the ready warps.

Policies:

* :class:`LrrScheduler` — loose round robin, the baseline policy of Table 2;
* :class:`GtoScheduler` — greedy-then-oldest: keep issuing the same warp
  until it stalls, then fall back to the oldest ready warp;
* :class:`SchedPselfScheduler` — the paper's abstraction of arbitrary
  policies by a single number ``SchedP_self``: the probability of scheduling
  the same warp consecutively (section 4.5).  LRR corresponds to a low
  ``SchedP_self`` and GTO to a high one.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from bisect import bisect_right
from typing import Optional, Sequence


class WarpScheduler(ABC):
    """Chooses the next warp to issue from the ready set of one core."""

    @abstractmethod
    def select(self, ready: Sequence[int], last: Optional[int]) -> int:
        """Pick a warp id from ``ready`` (non-empty, ascending order).

        ``last`` is the warp this core issued most recently (None initially
        or if that warp has retired).
        """

    def clone(self) -> "WarpScheduler":
        """Fresh instance with the same parameters (one per core)."""
        return type(self)()  # stateless subclasses; overridden otherwise


class LrrScheduler(WarpScheduler):
    """Loose round robin: the ready warp after ``last`` in cyclic id order."""

    name = "lrr"

    def select(self, ready: Sequence[int], last: Optional[int]) -> int:
        if last is None:
            return ready[0]
        index = bisect_right(ready, last)
        return ready[index] if index < len(ready) else ready[0]


class GtoScheduler(WarpScheduler):
    """Greedy-then-oldest: same warp while ready, else the oldest ready.

    "Oldest" is the smallest warp id, matching the queue's initial ordering
    by warp identifier.
    """

    name = "gto"

    def select(self, ready: Sequence[int], last: Optional[int]) -> int:
        if last is not None and last in ready:
            return last
        return ready[0]


class SchedPselfScheduler(WarpScheduler):
    """Probabilistic policy abstraction via ``SchedP_self``.

    With probability ``p_self`` the previously scheduled warp is reissued
    (if still ready); otherwise the choice falls back to LRR order.  The
    randomness is seeded so scheduling is reproducible.
    """

    name = "schedpself"

    def __init__(self, p_self: float, seed: int = 0) -> None:
        if not 0.0 <= p_self <= 1.0:
            raise ValueError(f"p_self must be in [0, 1], got {p_self}")
        self.p_self = p_self
        self.seed = seed
        self._rng = random.Random(seed)
        self._lrr = LrrScheduler()

    def select(self, ready: Sequence[int], last: Optional[int]) -> int:
        if last is not None and last in ready and self._rng.random() < self.p_self:
            return last
        return self._lrr.select(ready, last)

    def clone(self) -> "SchedPselfScheduler":
        return SchedPselfScheduler(self.p_self, self.seed)


class TwoLevelScheduler(WarpScheduler):
    """Two-level round robin (Narasiman et al., MICRO 2011).

    Warps are statically partitioned into fetch groups of ``group_size``;
    issue round-robins *within* the active group and only moves to the next
    group when the active one has no ready warp.  Groups thus reach their
    long-latency misses staggered in time, overlapping memory with compute
    better than flat LRR on latency-bound kernels.
    """

    name = "twolevel"

    def __init__(self, group_size: int = 8) -> None:
        if group_size < 1:
            raise ValueError(f"group_size must be >= 1, got {group_size}")
        self.group_size = group_size
        self._active_group: Optional[int] = None
        self._lrr = LrrScheduler()

    def select(self, ready: Sequence[int], last: Optional[int]) -> int:
        groups = sorted({warp // self.group_size for warp in ready})
        if self._active_group not in groups:
            # Active group exhausted/stalled: move to the next ready group
            # in cyclic order.
            if self._active_group is None:
                self._active_group = groups[0]
            else:
                nxt = [g for g in groups if g > self._active_group]
                self._active_group = nxt[0] if nxt else groups[0]
        candidates = [
            warp for warp in ready
            if warp // self.group_size == self._active_group
        ]
        return self._lrr.select(candidates, last)

    def clone(self) -> "TwoLevelScheduler":
        return TwoLevelScheduler(self.group_size)


def make_scheduler(policy: str, p_self: float = 0.5, seed: int = 0) -> WarpScheduler:
    """Factory over the policy names used by configs and the CLI."""
    policy = policy.lower()
    if policy == "lrr":
        return LrrScheduler()
    if policy == "gto":
        return GtoScheduler()
    if policy in ("schedpself", "pself"):
        return SchedPselfScheduler(p_self, seed)
    if policy in ("twolevel", "two-level"):
        return TwoLevelScheduler()
    raise ValueError(f"unknown scheduling policy {policy!r}")


def measure_p_self(schedule: Sequence[int]) -> float:
    """Empirical ``SchedP_self`` of an issued-warp sequence.

    The fraction of issue slots that reissued the immediately preceding
    warp — how the profiler summarises an observed scheduling policy.
    """
    if len(schedule) < 2:
        return 0.0
    same = sum(1 for a, b in zip(schedule, schedule[1:]) if a == b)
    return same / (len(schedule) - 1)
