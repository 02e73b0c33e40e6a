"""Per-layer tracing installed from outside the program.

A :class:`Tracer` replaces chosen attributes (methods, classmethods, or
functions a consumer module imported by name) with timing wrappers and puts
every original back when it is closed.  Each wrapped call is one of:

* a **span** — a coarse call (a sweep point, ``SimtSimulator.run``, a
  pipeline build) recorded individually with its name, start, end, parent
  span and run id;
* a **leaf** — a hot call (millions of cache accesses, scheduler picks)
  folded into a per-``(parent, name)`` aggregate of count, total time and
  self time, so memory stays bounded however long the run.

Every call, span or leaf, also feeds the aggregate table.  Self time is a
call's duration minus the time of the traced calls nested inside it.  An
``observe`` callback sees each return value and adds to a named counter
(cache hits, MSHR merges), so ratios are counted where the work happens.

The tracer keeps one call stack and is meant for single-threaded code;
threaded callers record their own spans with :meth:`Tracer.record`.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: ``observe(label, result)`` returns counter increments for that call.
Observer = Callable[[str, Any], Optional[Dict[str, float]]]


class Tracer:
    """Spans, leaf aggregates and counters from installed wrappers."""

    def __init__(self, run_id: str = "run") -> None:
        self.run_id = run_id
        self.spans: List[Dict[str, Any]] = []
        #: ``(parent, name) -> [calls, total_s, self_s]``.
        self.aggregates: Dict[Tuple[str, str], List[float]] = {}
        self.counters: Dict[str, float] = {}
        self._origin = time.perf_counter()
        # A frame is [label, child_seconds, span_id or None].
        self._stack: List[List[Any]] = [["root", 0.0, None]]
        self._patches: List[Tuple[Any, str, Any]] = []
        self._next_span = 0
        self._record_lock = threading.Lock()

    # -- installing wrappers -------------------------------------------------

    def patch(
        self,
        owner: Any,
        attr: str,
        name: str,
        *,
        span: bool = False,
        label: Optional[Callable[[Any], str]] = None,
        observe: Optional[Observer] = None,
    ) -> None:
        """Wrap ``owner.attr`` (class or module attribute) until :meth:`close`.

        ``label(first_argument)`` names the call per instance (L1 vs L2
        caches are one class told apart by instance name); otherwise every
        call is ``name``.  Classmethods and staticmethods are rewrapped as
        the same descriptor kind.
        """
        raw = owner.__dict__[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(self._wrap(raw.__func__, name, span, label,
                                           observe))
        else:
            wrapped = self._wrap(raw, name, span, label, observe)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def close(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.close()

    def _wrap(self, fn: Callable[..., Any], name: str, span: bool,
              label: Optional[Callable[[Any], str]],
              observe: Optional[Observer]) -> Callable[..., Any]:
        stack = self._stack
        aggregates = self.aggregates
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            call = label(args[0]) if label is not None else name
            parent = stack[-1]
            frame = [call, 0.0, self._new_span_id() if span else None]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                parent[1] += elapsed
                entry = aggregates.get((parent[0], call))
                if entry is None:
                    entry = aggregates[(parent[0], call)] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - frame[1]
                if span:
                    self._append_span(call, start, end, frame[2])
            if observe is not None:
                increments = observe(call, result)
                if increments:
                    for key, value in increments.items():
                        self.counters[key] = self.counters.get(key, 0) + value
            return result

        return wrapper

    # -- spans ---------------------------------------------------------------

    def _new_span_id(self) -> int:
        self._next_span += 1
        return self._next_span

    def _parent_span(self) -> Optional[int]:
        for frame in reversed(self._stack):
            if frame[2] is not None:
                return frame[2]
        return None

    def _append_span(self, name: str, start: float, end: float,
                     span_id: int) -> None:
        self.spans.append({
            "run": self.run_id, "id": span_id,
            "parent": self._parent_span(), "name": name,
            "start": round(start - self._origin, 9),
            "end": round(end - self._origin, 9),
        })

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span around a block of the benchmark's own code."""
        frame = [name, 0.0, self._new_span_id()]
        parent = self._stack[-1]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            parent[1] += end - start
            self._append_span(name, start, end, frame[2])

    def record(self, name: str, start: float, end: float, *,
               run: Optional[str] = None,
               parent: Optional[int] = None) -> int:
        """Record a finished span from any thread; returns its id."""
        with self._record_lock:
            self._next_span += 1
            span_id = self._next_span
            self.spans.append({
                "run": run or self.run_id, "id": span_id, "parent": parent,
                "name": name, "start": round(start - self._origin, 9),
                "end": round(end - self._origin, 9),
            })
        return span_id

    # -- reading the aggregates ------------------------------------------------

    def _entries(self, name: str) -> List[List[float]]:
        # Recursive calls (a scheduler delegating to another) count once.
        return [entry for (parent, call), entry in self.aggregates.items()
                if call == name and parent != name]

    def calls(self, name: str) -> int:
        """Outermost calls of ``name``."""
        return int(sum(entry[0] for entry in self._entries(name)))

    def total(self, name: str) -> float:
        """Seconds inside outermost calls of ``name``."""
        return sum(entry[1] for entry in self._entries(name))

    def self_time(self, name: str) -> float:
        """Seconds in ``name`` itself, nested traced calls excluded."""
        return sum(entry[2] for (_, call), entry in self.aggregates.items()
                   if call == name)

    def write_jsonl(self, path: str) -> None:
        """Spans, then one line per ``(parent, name)`` aggregate."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            for (parent, call), (count, total, own) in sorted(
                    self.aggregates.items()):
                fh.write(json.dumps({
                    "kind": "aggregate", "parent": parent, "name": call,
                    "calls": int(count), "total_s": round(total, 9),
                    "self_s": round(own, 9),
                }) + "\n")
