"""Exact LRU stack (reuse) distance computation.

Reuse distance is the number of *distinct* data elements accessed between the
current access and the previous access to the same element (Mattson et al.,
"Evaluation techniques for storage hierarchies", IBM Syst. J. 1970).  G-MAP
tracks intra-thread temporal locality as an LRU stack-distance histogram per
dominant memory-instruction profile (paper section 4.3, Figure 5).

Three implementations are provided:

``naive_stack_distances``
    The textbook O(n * u) LRU stack maintained as a list.  Used as the trusted
    oracle in tests.

``StackDistanceTracker``
    The standard O(n log n) algorithm: a Fenwick (binary indexed) tree over
    access timestamps stores a 1 at the timestamp of the *most recent* access
    to each element.  The distance of an access at time ``t`` to an element
    last touched at time ``t0`` is the number of set bits strictly between
    ``t0`` and ``t`` — i.e. the number of distinct other elements touched in
    between.

``set_stack_distances``
    The offline array kernel (``numpy`` backend): the same distances, per
    cache set, for a whole stream at once from a handful of sorts.
    ``stack_distances_array`` is its one-set case.

Cold (first-touch) accesses have infinite distance, reported as
:data:`COLD_MISS` (-1) so histograms can keep an explicit cold bucket.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator, List, Optional

from repro.core.backend import import_numpy

if TYPE_CHECKING:
    import numpy as np

#: Sentinel distance for a first-touch (compulsory / cold) access.
COLD_MISS = -1


class _FenwickTree:
    """Binary indexed tree supporting point update and prefix sum.

    Indices are 1-based internally; the public methods accept 0-based
    positions.  The tree grows geometrically when an index beyond the current
    capacity is touched, so callers do not need to know the trace length in
    advance.
    """

    __slots__ = ("_tree", "_size")

    def __init__(self, size: int = 1024) -> None:
        self._size = max(1, size)
        self._tree = [0] * (self._size + 1)

    def _grow(self, needed: int) -> None:
        new_size = self._size
        while new_size < needed:
            new_size *= 2
        # Rebuild: Fenwick trees cannot be resized in place cheaply, but a
        # rebuild from point values is O(n) and happens O(log n) times.
        # Node i covers positions (i - lowbit(i), i], so peeling off the
        # sibling subtotals below it leaves the point value at i; the inner
        # loop runs lowbit-length steps, which sums to O(n) over all i.
        old = self._tree
        values = [0] * (new_size + 1)
        for i in range(1, self._size + 1):
            v = old[i]
            j = i - 1
            stop = i - (i & (-i))
            while j > stop:
                v -= old[j]
                j -= j & (-j)
            values[i] = v
        # Classic O(n) construction: each node pushes its subtotal up to
        # its parent once.
        for i in range(1, new_size + 1):
            parent = i + (i & (-i))
            if parent <= new_size:
                values[parent] += values[i]
        self._size = new_size
        self._tree = values

    def add(self, pos: int, delta: int) -> None:
        """Add ``delta`` at 0-based position ``pos``."""
        if pos >= self._size:
            self._grow(pos + 1)
        i = pos + 1
        tree = self._tree
        size = self._size
        while i <= size:
            tree[i] += delta
            i += i & (-i)

    def prefix_sum(self, pos: int) -> int:
        """Sum of values at 0-based positions ``[0, pos]``."""
        if pos < 0:
            return 0
        i = min(pos + 1, self._size)
        tree = self._tree
        total = 0
        while i > 0:
            total += tree[i]
            i -= i & (-i)
        return total

    def range_sum(self, lo: int, hi: int) -> int:
        """Sum of values at 0-based positions ``[lo, hi]``."""
        if hi < lo:
            return 0
        return self.prefix_sum(hi) - self.prefix_sum(lo - 1)


def lookback_gaps(elements: "np.ndarray", positions: "np.ndarray"):
    """Vectorized previous-occurrence gaps (the lookback reuse kernel).

    ``elements[i]`` (e.g. cache-line ids) was touched at instance slot
    ``positions[i]``; for every *repeat* touch the result holds
    ``positions[i] - positions[prev] - 1`` — the number of intervening
    instance slots since the previous touch of the same element, exactly
    what the scalar ``last_instance`` loop feeds the P_R histogram.  First
    touches contribute nothing (they are the cold misses).  Result order is
    a permutation of the scalar emission order, which is irrelevant to the
    histogram.
    """
    np = import_numpy()
    elements = np.asarray(elements, dtype=np.int64)
    positions = np.asarray(positions, dtype=np.int64)
    if len(elements) == 0:
        return np.array([], dtype=np.int64)
    order = np.lexsort((positions, elements))
    e = elements[order]
    p = positions[order]
    repeat = e[1:] == e[:-1]
    return p[1:][repeat] - p[:-1][repeat] - 1


def set_stack_distances(lines, num_sets: int = 1, depth: Optional[int] = None):
    """Exact per-set LRU stack distances of a line stream (``numpy`` backend).

    The distance of an access is the number of distinct *same-set* lines
    touched since the previous access to its line (:data:`COLD_MISS` for a
    first touch) — Mattson's stack position in the set's own LRU stack, the
    quantity a per-set scalar stack walk reports.  All of it is sorts:

    1. a stable argsort by set index makes every set's subsequence
       contiguous and keeps it in access order, so a per-set distance is
       a plain stack distance whose window never crosses a set boundary;
    2. back-to-back repeats are distance 0 and are dropped (removing them
       changes no other window's distinct-line count);
    3. one stable argsort by line pairs every access with its previous
       same-line position ``p``;
    4. the distance of the access at ``i`` is ``(i - p - 1)`` minus the
       reuse intervals strictly nested inside ``(p, i)`` — each such
       interval is one repeated line inside the window — counted by a
       bottom-up merge over the intervals ordered by start
       (:func:`_nested_interval_counts`).

    ``depth`` clips distances at ``depth`` (a stack truncated to its top
    ``depth`` entries holds exactly the true stack's top ``depth``).

    Returns ``(order, distances, last)``: ``order`` is the stable set-major
    permutation of the stream, and ``distances[k]`` / ``last[k]`` describe
    access ``order[k]`` — its distance, and whether it is the final access
    to its line.
    """
    np = import_numpy()
    lines = np.asarray(lines, dtype=np.int64)
    n = len(lines)
    if num_sets > 1:
        sets = set_index(lines, num_sets)
        if num_sets <= 1 << 16:
            sets = sets.astype(np.uint16)  # stable sort is a radix sort
        order = np.argsort(sets, kind="stable")
        stream = lines[order]
    else:
        order = np.arange(n, dtype=np.int64)
        stream = lines
    distances = np.zeros(n, dtype=np.int64)
    last = np.zeros(n, dtype=bool)
    if n == 0:
        return order, distances, last
    # Collapse runs: ``starts[r]`` is run r's first position in ``stream``.
    head = np.empty(n, dtype=bool)
    head[0] = True
    np.not_equal(stream[1:], stream[:-1], out=head[1:])
    starts = np.flatnonzero(head)
    runs = stream[starts]
    m = len(runs)
    by_line = np.argsort(runs, kind="stable")
    repeat = runs[by_line[1:]] == runs[by_line[:-1]]
    next_use = np.full(m, -1, dtype=np.int64)
    next_use[by_line[:-1][repeat]] = by_line[1:][repeat]
    reused = np.flatnonzero(next_use >= 0)  # interval starts, ascending
    reuse = next_use[reused]
    # Each set's intervals are one contiguous block; none nests across.
    offsets = np.arange(len(reused), dtype=np.int64)
    if num_sets > 1 and len(reused):
        interval_sets = set_index(runs[reused], num_sets)
        new_set = np.empty(len(reused), dtype=bool)
        new_set[0] = True
        np.not_equal(interval_sets[1:], interval_sets[:-1], out=new_set[1:])
        offsets -= np.maximum.accumulate(np.where(new_set, offsets, 0))
    window = reuse - reused - 1
    window -= _nested_interval_counts(reuse, m, offsets)
    if depth is not None:
        np.minimum(window, depth, out=window)
    run_distance = np.full(m, COLD_MISS, dtype=np.int64)
    run_distance[reuse] = window
    distances[starts] = run_distance
    final = next_use < 0
    run_ends = np.empty(m, dtype=np.int64)
    run_ends[:-1] = starts[1:] - 1
    run_ends[-1] = n - 1
    last[run_ends[final]] = True
    return order, distances, last


def set_index(lines, num_sets: int):
    """Cache-set index of every line (``&`` for power-of-two set counts)."""
    if num_sets & (num_sets - 1) == 0:
        return lines & (num_sets - 1)
    return lines % num_sets


def _nested_interval_counts(ends, bound: int, offsets):
    """``counts[k] = #{j > k : ends[j] < ends[k]}`` within ``k``'s block.

    With intervals ordered by start, this is the number of intervals
    nested strictly inside interval ``k``.  ``offsets[k]`` is ``k``'s
    position inside its block of intervals that may nest (one cache set);
    ``bound`` exceeds every end.  Bottom-up merge sort inside each block:
    at each level every pair of adjacent sorted runs is merged by one
    stable argsort of ``(pair start, end)`` keys, and an element of the
    left run gains exactly the right-run elements that overtake it — its
    merged position minus its position before the merge.  The merge stops
    at the widest block, not the whole array.  Keys stay below
    ``size * bound``, far inside int64 for any stream that fits in memory.
    """
    np = import_numpy()
    size = len(ends)
    position = np.arange(size, dtype=np.int64)
    values = ends
    counts = np.zeros(size, dtype=np.int64)
    index = position
    widest = int(offsets.max()) + 1 if size else 0
    width = 1
    while width < widest:
        pair_start = position - (offsets & (2 * width - 1))
        step = np.argsort(pair_start * bound + values, kind="stable")
        # New slot q holds old slot step[q]; a positive shift is a left
        # element overtaken by smaller right elements.
        counts = counts[step]
        counts += np.maximum(position - step, 0)
        values = values[step]
        index = index[step]
        width *= 2
    out = np.empty(size, dtype=np.int64)
    out[index] = counts
    return out


def stack_distances_array(elements) -> "np.ndarray":
    """LRU stack distances of an element array (``numpy`` backend).

    :func:`set_stack_distances` with one set and no depth cap, returned in
    access order as one ``int64`` array (cold misses as
    :data:`COLD_MISS`) that downstream histogram construction can consume
    with a single ``np.unique``.
    """
    np = import_numpy()
    order, distances, _ = set_stack_distances(elements)
    out = np.empty(len(distances), dtype=np.int64)
    out[order] = distances
    return out


class StackDistanceTracker:
    """Streaming exact LRU stack-distance tracker.

    Feed elements (any hashable — G-MAP uses cache-line numbers) one at a time
    with :meth:`access`; each call returns the LRU stack distance of that
    access, or :data:`COLD_MISS` for a first touch.

    >>> t = StackDistanceTracker()
    >>> [t.access(x) for x in ["a", "b", "b", "a"]]
    [-1, -1, 0, 1]
    """

    __slots__ = ("_last_time", "_tree", "_clock")

    def __init__(self) -> None:
        self._last_time: dict = {}
        self._tree = _FenwickTree()
        self._clock = 0

    def access(self, element) -> int:
        """Record an access and return its LRU stack distance."""
        now = self._clock
        self._clock = now + 1
        prev = self._last_time.get(element)
        if prev is None:
            distance = COLD_MISS
        else:
            distance = self._tree.range_sum(prev + 1, now - 1)
            self._tree.add(prev, -1)
        self._last_time[element] = now
        self._tree.add(now, 1)
        return distance

    @property
    def unique_elements(self) -> int:
        """Number of distinct elements seen so far."""
        return len(self._last_time)

    @property
    def accesses(self) -> int:
        """Total number of accesses recorded."""
        return self._clock


def stack_distances(trace: Iterable) -> Iterator[int]:
    """Yield the LRU stack distance of every access in ``trace``.

    First touches yield :data:`COLD_MISS`.
    """
    tracker = StackDistanceTracker()
    for element in trace:
        yield tracker.access(element)


def naive_stack_distances(trace: Iterable) -> List[int]:
    """O(n*u) oracle implementation using an explicit LRU stack."""
    stack: List = []
    out: List[int] = []
    for element in trace:
        try:
            depth = stack.index(element)
        except ValueError:
            out.append(COLD_MISS)
        else:
            out.append(depth)
            del stack[depth]
        stack.insert(0, element)
    return out


def miss_rate_from_distances(distances: Iterable[int], capacity: int) -> float:
    """Fully-associative LRU miss rate implied by a stack-distance stream.

    An access misses in a fully-associative LRU cache of ``capacity`` lines
    iff its stack distance is >= ``capacity`` (cold misses always miss).
    Returns 0.0 for an empty stream.
    """
    misses = 0
    total = 0
    for d in distances:
        total += 1
        if d == COLD_MISS or d >= capacity:
            misses += 1
    return misses / total if total else 0.0
