"""Interprocedural analysis core for the concurrency rule family.

Three layers, built in one pass over a project's Python sources:

* a **project symbol table** (:class:`Project`): every module, class and
  function keyed by a stable qualified name (``service/server.py`` becomes
  module ``service.server``; ``GmapService.submit`` becomes
  ``service.server:GmapService.submit``), plus per-class knowledge of which
  attributes hold ``threading`` primitives (``self._lock =
  threading.Lock()`` in ``__init__`` makes ``_lock`` a known lock);
* **per-function summaries** (:class:`FunctionSummary`): every lock
  acquire/release (``with``, manual ``.acquire()``),
  blocking call, fork/process spawn, thread spawn, signal-handler
  registration, and shared-state access, each annotated with the set of
  locks structurally held at that point;
* a **call graph** over resolvable call sites with iterative-fixpoint
  propagation, so "this handler *transitively* acquires a lock" and "this
  callee *eventually* blocks" are first-class queries
  (:meth:`Project.transitive_blocking` and friends).

The analysis is a *may*-analysis and deliberately syntactic: ``with
self._lock:`` holds the lock for the lexical body, a manual ``.acquire()``
holds it for the rest of the function, and unresolvable calls (dynamic
dispatch, callables passed as values) contribute no edges.  The rule layer
(:mod:`repro.analysis.concurrency`) pairs every rule with known-good
fixtures so the approximations stay honest.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

PathLike = Union[str, Path]

#: ``threading`` constructors that create a mutual-exclusion primitive a
#: ``with`` block or ``.acquire()`` can hold.
_LOCK_FACTORIES = {
    "threading.Lock",
    "threading.RLock",
    "threading.Condition",
    "threading.Semaphore",
    "threading.BoundedSemaphore",
    "multiprocessing.Lock",
    "multiprocessing.RLock",
}

#: ``threading`` constructors whose ``.wait()`` blocks but whose ``with``
#: semantics (none) must not be mistaken for a lock.
_EVENT_FACTORIES = {"threading.Event", "multiprocessing.Event"}

#: Canonical callables that block the calling thread.  ``Condition.wait``
#: is handled separately (it *releases* the lock it waits on).
_BLOCKING_CALLS = {
    "time.sleep",
    "select.select",
    "socket.create_connection",
    "urllib.request.urlopen",
    "subprocess.run",
    "subprocess.call",
    "subprocess.check_call",
    "subprocess.check_output",
    "repro.service.backoff.sleep_backoff",
    "repro.service.backoff.poll_until",
    "repro.service.router.http_json",
}

#: Method names that block on whatever object they are called on.  These
#: only fire for receivers the symbol table knows to be blocking-capable
#: (process/thread handles are untracked, so ``proc.wait()`` needs the
#: canonical forms above), except ``communicate``/``wait_for`` which are
#: unambiguous in this codebase.
_BLOCKING_METHODS = {"communicate"}

#: Mutable module-level containers whose cross-thread mutation the
#: shared-state rule reasons about.
_MUTABLE_FACTORIES = {"dict", "list", "set", "collections.defaultdict",
                      "collections.deque", "collections.OrderedDict",
                      "collections.Counter"}

@dataclass(frozen=True)
class LockEvent:
    """One acquire/release of a lock, with the locks already held."""

    lock: str
    action: str  #: ``"acquire"`` | ``"release"``
    style: str  #: ``"with"`` | ``"manual"``
    line: int
    held: Tuple[str, ...]
    #: ``True`` when release is structurally guaranteed (``with`` body or a
    #: ``finally`` block), ``False`` for bare manual calls.
    structured: bool


@dataclass(frozen=True)
class Effect:
    """A side effect relevant to concurrency rules."""

    kind: str  #: ``"blocking"`` | ``"fork"`` | ``"thread-start"`` | ``"signal-register"``
    name: str  #: canonical callee / handler / target
    line: int
    held: Tuple[str, ...]


@dataclass(frozen=True)
class AttrAccess:
    """One ``self.<attr>`` access inside a method."""

    attr: str
    #: ``"read"`` for loads, ``"write"`` for rebinding, ``"mutate"`` for
    #: aug-assign / subscript-store (read-modify-write on shared state).
    mode: str
    line: int
    held: Tuple[str, ...]
    in_init: bool


@dataclass(frozen=True)
class GlobalWrite:
    """A write to module-level state from function scope."""

    name: str
    line: int
    held: Tuple[str, ...]


@dataclass(frozen=True)
class CallSite:
    """An outgoing call with the locks held at the point of call."""

    callee: str  #: canonical dotted name (best effort)
    resolved: Optional[str]  #: project qualname when the target is local
    line: int
    held: Tuple[str, ...]


@dataclass
class FunctionSummary:
    """Everything the rule layer needs to know about one function."""

    qualname: str
    rel_path: str
    line: int
    module: str
    cls: Optional[str] = None
    name: str = ""
    lock_events: List[LockEvent] = field(default_factory=list)
    calls: List[CallSite] = field(default_factory=list)
    effects: List[Effect] = field(default_factory=list)
    attr_accesses: List[AttrAccess] = field(default_factory=list)
    global_writes: List[GlobalWrite] = field(default_factory=list)
    #: qualnames this function hands to ``threading.Thread(target=...)``.
    thread_targets: List[str] = field(default_factory=list)
    #: qualnames this function hands to ``Process(target=...)``.
    fork_targets: List[str] = field(default_factory=list)
    #: ``(signal handler qualname, line)`` registrations.
    signal_handlers: List[Tuple[str, int]] = field(default_factory=list)

    @property
    def is_init(self) -> bool:
        return self.name == "__init__"


@dataclass
class ModuleInfo:
    """Per-module symbol information."""

    rel_path: str
    module: str
    imports: Dict[str, str] = field(default_factory=dict)
    from_imports: Dict[str, str] = field(default_factory=dict)
    #: class name -> attrs assigned a lock factory in any method.
    lock_attrs: Dict[str, Set[str]] = field(default_factory=dict)
    #: class name -> attrs assigned an event factory.
    event_attrs: Dict[str, Set[str]] = field(default_factory=dict)
    #: module-level names bound to lock factories.
    module_locks: Set[str] = field(default_factory=set)
    module_events: Set[str] = field(default_factory=set)
    #: module-level names bound to mutable containers.
    module_mutables: Set[str] = field(default_factory=set)
    #: class name -> method names.
    classes: Dict[str, Set[str]] = field(default_factory=dict)
    #: module-level function names.
    functions: Set[str] = field(default_factory=set)
    spawns_threads: bool = False
    spawns_forks: bool = False


class Project:
    """Symbol table + summaries + call graph for one analyzed tree."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self.functions: Dict[str, FunctionSummary] = {}
        self._transitive: Dict[str, Dict[str, Set[str]]] = {}

    # -- symbol resolution -------------------------------------------------

    def resolve_module(self, dotted: str) -> Optional[str]:
        """Map an imported module path onto an analyzed module.

        Imports name modules by their installed path
        (``repro.service.backoff``) while the scan keys them relative to the
        scan root (``service.backoff``); matching the longest suffix bridges
        the two without knowing the package prefix.
        """
        parts = dotted.split(".")
        for start in range(len(parts)):
            candidate = ".".join(parts[start:])
            if candidate in self.modules:
                return candidate
        return None

    def resolve_function(self, dotted: str) -> Optional[str]:
        """Map a canonical dotted callable onto a project qualname."""
        if ":" in dotted and dotted in self.functions:
            return dotted
        parts = dotted.rsplit(".", 1)
        if len(parts) != 2:
            return None
        mod_path, name = parts
        module = self.resolve_module(mod_path)
        if module is None:
            # ``pkg.mod.Class.method`` → try splitting off the class too.
            outer = mod_path.rsplit(".", 1)
            if len(outer) == 2:
                module = self.resolve_module(outer[0])
                if module is not None:
                    qual = f"{module}:{outer[1]}.{name}"
                    return qual if qual in self.functions else None
            return None
        info = self.modules[module]
        if name in info.functions:
            return f"{module}:{name}"
        if name in info.classes:
            qual = f"{module}:{name}.__init__"
            return qual if qual in self.functions else None
        return None

    # -- call graph --------------------------------------------------------

    def callees(self, qualname: str) -> Set[str]:
        summary = self.functions.get(qualname)
        if summary is None:
            return set()
        return {c.resolved for c in summary.calls if c.resolved}

    def _fixpoint(self, kind: str) -> Dict[str, Set[str]]:
        """Transitive closure of a per-function fact over the call graph."""
        if kind in self._transitive:
            return self._transitive[kind]
        facts: Dict[str, Set[str]] = {}
        for qual, summary in self.functions.items():
            direct: Set[str] = set()
            if kind == "blocking":
                direct |= {e.name for e in summary.effects
                           if e.kind == "blocking"}
            elif kind == "fork":
                direct |= {e.name for e in summary.effects if e.kind == "fork"}
            elif kind == "acquires":
                direct |= {ev.lock for ev in summary.lock_events
                           if ev.action == "acquire"}
            facts[qual] = direct
        changed = True
        while changed:
            changed = False
            for qual in self.functions:
                merged = facts[qual]
                before = len(merged)
                for callee in self.callees(qual):
                    merged |= facts.get(callee, set())
                if len(merged) != before:
                    changed = True
        self._transitive[kind] = facts
        return facts

    def transitive_blocking(self, qualname: str) -> Set[str]:
        """Blocking callables reachable from ``qualname`` (inclusive)."""
        return self._fixpoint("blocking").get(qualname, set())

    def transitive_forks(self, qualname: str) -> Set[str]:
        return self._fixpoint("fork").get(qualname, set())

    def transitive_acquires(self, qualname: str) -> Set[str]:
        return self._fixpoint("acquires").get(qualname, set())

    def thread_entry_points(self) -> Set[str]:
        """Qualnames used as ``Thread(target=...)`` anywhere in the project."""
        targets: Set[str] = set()
        for summary in self.functions.values():
            targets.update(summary.thread_targets)
        return targets

    def reachable_from(self, roots: Set[str]) -> Set[str]:
        """All functions reachable over call edges from ``roots``."""
        seen: Set[str] = set()
        stack = [r for r in roots if r in self.functions]
        while stack:
            qual = stack.pop()
            if qual in seen:
                continue
            seen.add(qual)
            stack.extend(self.callees(qual) - seen)
        return seen


# ---------------------------------------------------------------------------
# Per-module scan
# ---------------------------------------------------------------------------


def _dotted(node: ast.expr) -> Optional[str]:
    """``a.b.c`` attribute chains as raw dotted text (no import resolution)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _canonical(node: ast.expr, info: ModuleInfo) -> Optional[str]:
    """Resolve a name/attribute chain through the module's import aliases."""
    raw = _dotted(node)
    if raw is None:
        return None
    head, _, rest = raw.partition(".")
    base = info.from_imports.get(head) or info.imports.get(head)
    if base is None:
        return None
    return f"{base}.{rest}" if rest else base


class _ModuleScanner:
    """First pass: imports, classes, lock/event/mutable bindings."""

    def __init__(self, rel_path: str, tree: ast.Module) -> None:
        self.info = ModuleInfo(
            rel_path=rel_path,
            module=rel_path[:-3].replace("/", ".")
            if rel_path.endswith(".py") else rel_path.replace("/", "."),
        )
        self._scan(tree)

    def _scan(self, tree: ast.Module) -> None:
        info = self.info
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    info.imports[alias.asname or alias.name.split(".")[0]] = (
                        alias.name if alias.asname
                        else alias.name.split(".")[0]
                    )
            elif isinstance(node, ast.ImportFrom):
                if node.module is None or node.level:
                    continue
                for alias in node.names:
                    info.from_imports[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info.functions.add(stmt.name)
            elif isinstance(stmt, ast.ClassDef):
                methods = {
                    item.name
                    for item in stmt.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                }
                info.classes[stmt.name] = methods
                self._scan_class_attrs(stmt)
            elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target = stmt.targets[0]
                if isinstance(target, ast.Name):
                    self._classify_module_binding(target.id, stmt.value)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                callee = _canonical(node.func, info)
                if callee == "threading.Thread":
                    info.spawns_threads = True
                if callee == "os.fork" or self._is_process_ctor(node, callee):
                    info.spawns_forks = True

    @staticmethod
    def _is_process_ctor(node: ast.Call, callee: Optional[str]) -> bool:
        has_target = any(kw.arg == "target" for kw in node.keywords)
        if callee in ("multiprocessing.Process",):
            return True
        # ``ctx.Process(target=...)`` from ``get_context("fork")`` — the
        # receiver is a local, so match on the attribute + target kwarg.
        return (isinstance(node.func, ast.Attribute)
                and node.func.attr == "Process" and has_target)

    def _classify_module_binding(self, name: str, value: ast.expr) -> None:
        info = self.info
        if isinstance(value, ast.Call):
            callee = _canonical(value.func, info) or _dotted(value.func)
            if callee in _LOCK_FACTORIES:
                info.module_locks.add(name)
            elif callee in _EVENT_FACTORIES:
                info.module_events.add(name)
            elif callee in _MUTABLE_FACTORIES:
                info.module_mutables.add(name)
        elif isinstance(value, (ast.Dict, ast.List, ast.Set)):
            info.module_mutables.add(name)

    def _scan_class_attrs(self, cls: ast.ClassDef) -> None:
        locks = self.info.lock_attrs.setdefault(cls.name, set())
        events = self.info.event_attrs.setdefault(cls.name, set())
        for node in ast.walk(cls):
            if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
                continue
            target = node.targets[0]
            if not (isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                    and isinstance(node.value, ast.Call)):
                continue
            callee = (_canonical(node.value.func, self.info)
                      or _dotted(node.value.func))
            if callee in _LOCK_FACTORIES:
                locks.add(target.attr)
            elif callee in _EVENT_FACTORIES:
                events.add(target.attr)


class _FunctionWalker:
    """Second pass: one function body → a :class:`FunctionSummary`.

    Walks statements recursively, threading the tuple of held lock ids
    through ``with`` bodies; expressions are scanned for calls, which are
    classified against the canonical blocking/fork/thread tables.
    """

    def __init__(self, summary: FunctionSummary, info: ModuleInfo) -> None:
        self.summary = summary
        self.info = info
        self._manual_held: Tuple[str, ...] = ()
        self._globals: Set[str] = set()

    # -- lock identification ----------------------------------------------

    def _lock_id(self, node: ast.expr) -> Optional[str]:
        """Stable id when the expression denotes a known lock, else None."""
        info = self.info
        cls = self.summary.cls
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self" and cls is not None):
            known = info.lock_attrs.get(cls, set())
            if node.attr in known:
                return f"{info.module}:{cls}.{node.attr}"
            if node.attr in info.event_attrs.get(cls, set()):
                return None
            if "lock" in node.attr.lower() or "mutex" in node.attr.lower():
                return f"{info.module}:{cls}.{node.attr}"
            return None
        if isinstance(node, ast.Name):
            if node.id in info.module_locks:
                return f"{info.module}:{node.id}"
            if node.id in info.module_events:
                return None
            origin = info.from_imports.get(node.id)
            lockish = ("lock" in node.id.lower()
                       or "mutex" in node.id.lower())
            if origin is not None and lockish:
                # An imported lock object: key it by its *defining* module
                # so both importers acquire the same identity.
                mod, _, name = origin.rpartition(".")
                return f"{mod}:{name}"
            if lockish:
                return f"{info.module}:{node.id}"
        return None

    def _event_receiver(self, node: ast.expr) -> bool:
        """True when the expression denotes a known Event/Condition."""
        info = self.info
        cls = self.summary.cls
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self" and cls is not None):
            return (node.attr in info.event_attrs.get(cls, set())
                    or node.attr in info.lock_attrs.get(cls, set()))
        if isinstance(node, ast.Name):
            return (node.id in info.module_events
                    or node.id in info.module_locks)
        return False

    # -- statement walk ----------------------------------------------------

    def walk(self, body: Sequence[ast.stmt]) -> None:
        self._walk_block(body, held=(), in_finally=False)

    def _walk_block(self, body: Sequence[ast.stmt], held: Tuple[str, ...],
                    in_finally: bool) -> None:
        for stmt in body:
            self._walk_stmt(stmt, held, in_finally)

    def _walk_stmt(self, stmt: ast.stmt, held: Tuple[str, ...],
                   in_finally: bool) -> None:
        all_held = held + self._manual_held
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            inner = held
            for item in stmt.items:
                lock = self._lock_id(item.context_expr)
                if lock is not None:
                    self.summary.lock_events.append(LockEvent(
                        lock=lock, action="acquire", style="with",
                        line=stmt.lineno, held=inner + self._manual_held,
                        structured=True))
                    inner = inner + (lock,)
                else:
                    self._visit_expr(item.context_expr, inner)
            self._walk_block(stmt.body, inner, in_finally)
            return
        if isinstance(stmt, ast.Try):
            self._walk_block(stmt.body, held, in_finally)
            for handler in stmt.handlers:
                self._walk_block(handler.body, held, in_finally)
            self._walk_block(stmt.orelse, held, in_finally)
            self._walk_block(stmt.finalbody, held, in_finally=True)
            return
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Nested defs are summarised separately; the closure body does
            # not run here.
            return
        if isinstance(stmt, ast.ClassDef):
            return
        if isinstance(stmt, ast.Global):
            self._globals.update(stmt.names)
            return
        if isinstance(stmt, ast.If):
            self._visit_expr(stmt.test, held)
            self._walk_block(stmt.body, held, in_finally)
            self._walk_block(stmt.orelse, held, in_finally)
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._visit_expr(stmt.iter, held)
            self._record_store(stmt.target, all_held, mode="write")
            self._walk_block(stmt.body, held, in_finally)
            self._walk_block(stmt.orelse, held, in_finally)
            return
        if isinstance(stmt, ast.While):
            self._visit_expr(stmt.test, held)
            self._walk_block(stmt.body, held, in_finally)
            self._walk_block(stmt.orelse, held, in_finally)
            return
        if isinstance(stmt, ast.Assign):
            self._visit_expr(stmt.value, held)
            for target in stmt.targets:
                self._record_store(target, all_held, mode="write")
            return
        if isinstance(stmt, ast.AugAssign):
            self._visit_expr(stmt.value, held)
            self._record_store(stmt.target, all_held, mode="mutate")
            return
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._visit_expr(stmt.value, held)
                self._record_store(stmt.target, all_held, mode="write")
            return
        if isinstance(stmt, ast.Expr):
            self._visit_expr(stmt.value, held, in_finally=in_finally)
            return
        if isinstance(stmt, (ast.Return, ast.Raise)):
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self._visit_expr(child, held)
            return
        if isinstance(stmt, ast.Assert):
            self._visit_expr(stmt.test, held)
            return
        # Pass/Break/Continue/Import/Delete/Nonlocal: nothing held-relevant.

    # -- stores ------------------------------------------------------------

    def _record_store(self, target: ast.expr, held: Tuple[str, ...],
                      mode: str) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._record_store(element, held, mode)
            return
        if isinstance(target, ast.Starred):
            self._record_store(target.value, held, mode)
            return
        line = target.lineno
        if isinstance(target, ast.Name):
            if target.id in self._globals:
                self.summary.global_writes.append(
                    GlobalWrite(name=target.id, line=line, held=held))
            return
        if isinstance(target, ast.Subscript):
            base = target.value
            # ``X[k] = v`` / ``X[k] += v`` on module-level containers.
            if (isinstance(base, ast.Name)
                    and base.id in self.info.module_mutables):
                self.summary.global_writes.append(
                    GlobalWrite(name=base.id, line=line, held=held))
                return
            if (isinstance(base, ast.Attribute)
                    and isinstance(base.value, ast.Name)
                    and base.value.id == "self"):
                self.summary.attr_accesses.append(AttrAccess(
                    attr=base.attr, mode="mutate", line=line, held=held,
                    in_init=self.summary.is_init))
            return
        if (isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"):
            self.summary.attr_accesses.append(AttrAccess(
                attr=target.attr,
                mode="mutate" if mode == "mutate" else "write",
                line=line, held=held, in_init=self.summary.is_init))

    # -- expressions -------------------------------------------------------

    def _visit_expr(self, node: ast.expr, held: Tuple[str, ...],
                    in_finally: bool = False) -> None:
        all_held = held + self._manual_held
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                self._classify_call(sub, all_held, in_finally)
            elif (isinstance(sub, ast.Attribute)
                  and isinstance(sub.ctx, ast.Load)
                  and isinstance(sub.value, ast.Name)
                  and sub.value.id == "self"):
                self.summary.attr_accesses.append(AttrAccess(
                    attr=sub.attr, mode="read", line=sub.lineno,
                    held=all_held, in_init=self.summary.is_init))

    def _classify_call(self, node: ast.Call, held: Tuple[str, ...],
                       in_finally: bool) -> None:
        info = self.info
        summary = self.summary
        line = node.lineno
        callee = _canonical(node.func, info)
        raw = _dotted(node.func)

        # manual Lock.acquire()/release() --------------------------------
        if isinstance(node.func, ast.Attribute) and node.func.attr in (
                "acquire", "release"):
            lock = self._lock_id(node.func.value)
            if lock is not None:
                action = node.func.attr
                summary.lock_events.append(LockEvent(
                    lock=lock, action=action, style="manual", line=line,
                    held=held, structured=in_finally))
                if action == "acquire":
                    self._manual_held = self._manual_held + (lock,)
                elif lock in self._manual_held:
                    kept = list(self._manual_held)
                    kept.remove(lock)
                    self._manual_held = tuple(kept)
                return

        # thread / process / signal --------------------------------------
        if callee == "threading.Thread":
            target = self._target_qualname(node)
            summary.effects.append(Effect(
                kind="thread-start", name=target or "<unresolved>",
                line=line, held=held))
            if target:
                summary.thread_targets.append(target)
            return
        if callee == "os.fork":
            summary.effects.append(Effect(
                kind="fork", name="os.fork", line=line, held=held))
            return
        if _ModuleScanner._is_process_ctor(node, callee):
            target = self._target_qualname(node)
            summary.effects.append(Effect(
                kind="fork", name=callee or f"{raw or 'Process'}",
                line=line, held=held))
            if target:
                summary.fork_targets.append(target)
            return
        if callee == "signal.signal" and len(node.args) == 2:
            handler = self._handler_qualname(node.args[1])
            summary.effects.append(Effect(
                kind="signal-register", name=handler or "<unresolved>",
                line=line, held=held))
            if handler:
                summary.signal_handlers.append((handler, line))
            return

        # blocking calls --------------------------------------------------
        if callee in _BLOCKING_CALLS:
            summary.effects.append(Effect(
                kind="blocking", name=callee, line=line, held=held))
            self._record_callsite(callee, line, held)
            return
        if (isinstance(node.func, ast.Attribute)
                and node.func.attr in _BLOCKING_METHODS):
            summary.effects.append(Effect(
                kind="blocking", name=f"<receiver>.{node.func.attr}",
                line=line, held=held))
            return
        if (isinstance(node.func, ast.Attribute)
                and node.func.attr == "wait"
                and self._event_receiver(node.func.value)):
            # ``Event.wait`` blocks; ``Condition.wait`` on a *held* condition
            # releases it while waiting, which is the sanctioned pattern.
            lock = self._lock_id(node.func.value)
            if lock is None or lock not in held:
                name = _dotted(node.func) or "wait"
                summary.effects.append(Effect(
                    kind="blocking", name=name, line=line, held=held))
            return

        # plain calls -----------------------------------------------------
        if callee is not None:
            self._record_callsite(callee, line, held)
        elif raw is not None:
            self._record_callsite(raw, line, held, local=True)

    def _record_callsite(self, callee: str, line: int,
                         held: Tuple[str, ...], local: bool = False) -> None:
        summary = self.summary
        resolved: Optional[str] = None
        if local:
            head, _, rest = callee.partition(".")
            if head == "self" and summary.cls is not None and rest:
                method = rest.split(".")[0]
                if method in self.info.classes.get(summary.cls, set()):
                    resolved = f"{self.info.module}:{summary.cls}.{method}"
            elif not rest:
                if head in self.info.functions:
                    resolved = f"{self.info.module}:{head}"
                elif head in self.info.classes:
                    qual = f"{self.info.module}:{head}.__init__"
                    resolved = qual
        summary.calls.append(CallSite(
            callee=callee, resolved=resolved, line=line, held=held))

    def _target_qualname(self, node: ast.Call) -> Optional[str]:
        for kw in node.keywords:
            if kw.arg == "target":
                return self._handler_qualname(kw.value)
        return None

    def _handler_qualname(self, node: ast.expr) -> Optional[str]:
        info = self.info
        summary = self.summary
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self" and summary.cls is not None):
            if node.attr in info.classes.get(summary.cls, set()):
                return f"{info.module}:{summary.cls}.{node.attr}"
            return None
        if isinstance(node, ast.Name):
            if node.id in info.functions:
                return f"{info.module}:{node.id}"
            origin = info.from_imports.get(node.id)
            if origin is not None:
                return origin  # resolved against the project later
        return None


# ---------------------------------------------------------------------------
# Project construction
# ---------------------------------------------------------------------------


AnyFunctionDef = Union[ast.FunctionDef, ast.AsyncFunctionDef]


def _iter_functions(
    tree: ast.Module,
) -> Iterator[Tuple[Optional[str], AnyFunctionDef]]:
    """(class name or None, function node) for every top-level def/method."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield None, stmt
        elif isinstance(stmt, ast.ClassDef):
            for item in stmt.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield stmt.name, item


def scan_module(rel_path: str, text: str) -> Tuple[ModuleInfo,
                                                   List[FunctionSummary]]:
    """Scan one module's source into its info + function summaries."""
    tree = ast.parse(text)
    scanner = _ModuleScanner(rel_path, tree)
    info = scanner.info
    summaries: List[FunctionSummary] = []
    for cls, func in _iter_functions(tree):
        qual = (f"{info.module}:{cls}.{func.name}" if cls
                else f"{info.module}:{func.name}")
        summary = FunctionSummary(
            qualname=qual, rel_path=rel_path, line=func.lineno,
            module=info.module, cls=cls, name=func.name)
        walker = _FunctionWalker(summary, info)
        walker.walk(func.body)
        summaries.append(summary)
    return info, summaries


def build_project(
    sources: Dict[str, str],
) -> Project:
    """Build the project model from ``{relative posix path: source text}``.

    Files that fail to parse are skipped — the plain linter already reports
    ``syntax-error`` for them.
    """
    project = Project()
    scanned: List[Tuple[ModuleInfo, List[FunctionSummary]]] = []
    for rel_path in sorted(sources):
        try:
            scanned.append(scan_module(rel_path, sources[rel_path]))
        except SyntaxError:
            continue
    for info, summaries in scanned:
        project.modules[info.module] = info
        for summary in summaries:
            project.functions[summary.qualname] = summary
    # Second pass: resolve cross-module call sites and imported handler /
    # thread-target references against the now-complete symbol table, and
    # canonicalise lock ids minted from import paths (``repro.core.x:lock``)
    # onto the scan-relative module keys (``core.x:lock``) so both sides of
    # a cross-module acquisition share one identity.

    def _canon_lock(lock: str) -> str:
        mod, sep, name = lock.rpartition(":")
        if not sep:
            return lock
        resolved = project.resolve_module(mod)
        if resolved is not None and resolved != mod:
            return f"{resolved}:{name}"
        return lock

    def _canon_held(held: Tuple[str, ...]) -> Tuple[str, ...]:
        return tuple(_canon_lock(h) for h in held)

    for summary in project.functions.values():
        summary.lock_events = [
            replace(ev, lock=_canon_lock(ev.lock), held=_canon_held(ev.held))
            for ev in summary.lock_events
        ]
        summary.effects = [
            replace(e, held=_canon_held(e.held)) for e in summary.effects
        ]
        summary.attr_accesses = [
            replace(a, held=_canon_held(a.held))
            for a in summary.attr_accesses
        ]
        summary.global_writes = [
            replace(w, held=_canon_held(w.held))
            for w in summary.global_writes
        ]
        summary.calls = [
            CallSite(
                callee=site.callee,
                resolved=site.resolved
                or project.resolve_function(site.callee),
                line=site.line,
                held=_canon_held(site.held),
            )
            for site in summary.calls
        ]
        summary.thread_targets = [
            project.resolve_function(t) or t for t in summary.thread_targets
        ]
        summary.fork_targets = [
            project.resolve_function(t) or t for t in summary.fork_targets
        ]
        summary.signal_handlers = [
            (project.resolve_function(h) or h, line)
            for h, line in summary.signal_handlers
        ]
    return project


def load_sources(paths: Sequence[PathLike],
                 exclude_parts: Tuple[str, ...] = ("__pycache__",),
                 ) -> Dict[str, str]:
    """Read ``.py`` files under files/directories into a sources map."""
    sources: Dict[str, str] = {}
    for entry in paths:
        entry = Path(entry)
        if entry.is_dir():
            for path in sorted(entry.rglob("*.py")):
                if any(part in exclude_parts for part in path.parts):
                    continue
                rel = path.relative_to(entry).as_posix()
                sources[rel] = path.read_text(encoding="utf-8")
        elif entry.suffix == ".py":
            sources[entry.name] = entry.read_text(encoding="utf-8")
    return sources
