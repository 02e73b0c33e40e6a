"""The built-in determinism rules.

Each rule guards one way a change can silently break G-MAP's bit-identical
replay guarantee (sweeps are compared across ``--jobs`` counts and resumed
from journals, so any hidden global state or ordering dependence corrupts
the evidence).  Rule ids are stable — they are the suppression tokens and
the ``rule`` field of the JSON output.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, FrozenSet, Iterator, Optional

from repro.analysis.rules import Rule, RuleHit, register

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.analysis.engine import LintContext

#: Module-level functions of :mod:`random` that mutate/draw from the hidden
#: global ``Random`` instance.
_RANDOM_GLOBAL_FNS: FrozenSet[str] = frozenset(
    {
        "betavariate", "choice", "choices", "expovariate", "gammavariate",
        "gauss", "getrandbits", "lognormvariate", "normalvariate",
        "paretovariate", "randbytes", "randint", "random", "randrange",
        "sample", "seed", "shuffle", "triangular", "uniform",
        "vonmisesvariate", "weibullvariate",
    }
)

#: Legacy ``numpy.random`` module-level API (global ``RandomState``).
_NUMPY_GLOBAL_FNS: FrozenSet[str] = frozenset(
    {
        "binomial", "bytes", "choice", "exponential", "normal",
        "permutation", "poisson", "rand", "randint", "randn", "random",
        "random_sample", "seed", "shuffle", "standard_normal", "uniform",
    }
)

#: ``numpy.random`` bit-generator classes; constructing one without a seed
#: draws OS entropy exactly like an argless ``default_rng()``.
_NUMPY_BITGENS: FrozenSet[str] = frozenset(
    {"MT19937", "PCG64", "PCG64DXSM", "Philox", "SFC64"}
)

_WALLCLOCK_FNS: FrozenSet[str] = frozenset(
    {
        "time.time", "time.time_ns",
        "time.monotonic", "time.monotonic_ns",
        "time.perf_counter", "time.perf_counter_ns",
        "datetime.datetime.now", "datetime.datetime.utcnow",
        "datetime.datetime.today", "datetime.date.today",
    }
)

_MUTABLE_CONSTRUCTORS: FrozenSet[str] = frozenset(
    {
        "list", "dict", "set", "bytearray",
        "collections.defaultdict", "collections.deque",
        "collections.Counter", "collections.OrderedDict",
        "repro.core.distributions.Histogram", "Histogram",
    }
)

_SET_OPS: FrozenSet[str] = frozenset(
    {"intersection", "union", "difference", "symmetric_difference"}
)


def _call_name(node: ast.Call, ctx: "LintContext") -> Optional[str]:
    return ctx.resolve(node.func)


@register
class UnseededRandomRule(Rule):
    """Module-level RNG draws share hidden global state.

    Any import-order or call-order change reshuffles every downstream draw;
    a seeded ``random.Random(seed)`` / ``numpy.random.default_rng(seed)``
    instance keeps each component's stream independent and reproducible.
    Seeded generators pass clean; entropy-seeded construction — argless
    ``default_rng()`` or an argless bit generator like
    ``Generator(PCG64())`` — is flagged.
    """

    id = "unseeded-random"
    node_types = (ast.Call,)

    def check(self, node: ast.AST, ctx: "LintContext") -> Iterator[RuleHit]:
        assert isinstance(node, ast.Call)
        name = _call_name(node, ctx)
        if name is None:
            return
        hit: Optional[str] = None
        module, _, fn = name.rpartition(".")
        if module == "random" and fn in _RANDOM_GLOBAL_FNS:
            hit = (
                f"call to the global-state RNG random.{fn}(); use a "
                f"seeded random.Random(seed) instance instead"
            )
        elif name == "random.SystemRandom":
            hit = (
                "random.SystemRandom draws OS entropy and can never be "
                "replayed; use a seeded random.Random(seed)"
            )
        elif module == "numpy.random" and fn in _NUMPY_GLOBAL_FNS:
            hit = (
                f"call to the legacy global numpy.random.{fn}(); use a "
                f"seeded numpy.random.default_rng(seed) generator"
            )
        elif name == "numpy.random.default_rng" and not node.args and not node.keywords:
            hit = (
                "numpy.random.default_rng() without a seed is entropy-"
                "seeded; pass an explicit seed"
            )
        elif (
            module == "numpy.random"
            and fn in _NUMPY_BITGENS
            and not node.args
            and not node.keywords
        ):
            hit = (
                f"numpy.random.{fn}() without a seed is entropy-seeded; "
                f"pass an explicit seed (or use "
                f"numpy.random.default_rng(seed))"
            )
        if hit is not None:
            yield node.lineno, node.col_offset, hit


@register
class WallClockRule(Rule):
    """Wall-clock reads inside simulation packages.

    Scoped to ``core/``, ``memsim/`` and ``gpu/``: simulated time must be
    a pure function of the input stream, never of the host clock (timing
    instrumentation belongs in the validation/CLI layers).
    """

    id = "wallclock-in-sim"
    node_types = (ast.Call,)

    def check(self, node: ast.AST, ctx: "LintContext") -> Iterator[RuleHit]:
        assert isinstance(node, ast.Call)
        if not ctx.in_sim_path:
            return
        name = _call_name(node, ctx)
        if name in _WALLCLOCK_FNS:
            yield (
                node.lineno,
                node.col_offset,
                f"wall-clock read {name}() inside a simulation path; "
                f"simulated results must not depend on host time",
            )


@register
class SaltedHashRule(Rule):
    """The builtin ``hash()`` inside simulation packages.

    ``hash()`` of a ``str`` or ``bytes`` is salted per process
    (``PYTHONHASHSEED``), so a value derived from it — an RNG seed, a set
    index — differs between two runs of the same command.  Scoped like
    ``wallclock-in-sim``; seed from a stable hash such as ``zlib.crc32``.
    """

    id = "salted-hash"
    node_types = (ast.Call,)

    def check(self, node: ast.AST, ctx: "LintContext") -> Iterator[RuleHit]:
        assert isinstance(node, ast.Call)
        if not ctx.in_sim_path:
            return
        func = node.func
        if (
            isinstance(func, ast.Name)
            and func.id == "hash"
            and ctx.resolve(func) is None  # not an imported ``hash``
        ):
            yield (
                node.lineno,
                node.col_offset,
                "builtin hash() is salted per process for str/bytes; "
                "use a stable hash such as zlib.crc32",
            )


def _is_unordered(expr: ast.expr, ctx: "LintContext") -> Optional[str]:
    """Describe why iterating ``expr`` has no stable order, if it hasn't."""
    if isinstance(expr, ast.Set):
        return "a set literal"
    if isinstance(expr, ast.SetComp):
        return "a set comprehension"
    if isinstance(expr, ast.Call):
        func = expr.func
        if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
            return f"{func.id}()"
        if isinstance(func, ast.Attribute) and func.attr in _SET_OPS:
            if _is_unordered(func.value, ctx) is not None:
                return f"a set .{func.attr}()"
        if isinstance(func, ast.Attribute) and func.attr == "keys":
            return ".keys()"
    if isinstance(expr, ast.BinOp) and isinstance(
        expr.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        for side in (expr.left, expr.right):
            reason = _is_unordered(side, ctx)
            if reason is not None and reason != ".keys()":
                return f"a set expression ({reason})"
    return None


@register
class UnorderedIterationRule(Rule):
    """Iteration whose order is not defined by the data structure.

    Set iteration order depends on hash seeding and insertion history —
    feeding it into RNG draws, output files, or scheduling decisions makes
    runs diverge.  Wrap the iterable in ``sorted(...)``.  ``dict.keys()``
    is insertion-ordered but flagged too: iterate the dict directly (same
    semantics, no ambiguity) or sort when the order reaches an artifact.
    """

    id = "unordered-iteration"
    node_types = (ast.For, ast.AsyncFor, ast.comprehension)

    def check(self, node: ast.AST, ctx: "LintContext") -> Iterator[RuleHit]:
        iterable = node.iter  # type: ignore[union-attr]
        reason = _is_unordered(iterable, ctx)
        if reason is None:
            return
        if reason == ".keys()":
            message = (
                "iteration over dict.keys(); iterate the dict directly, "
                "or sorted(...) if the order feeds output or RNG draws"
            )
        else:
            message = (
                f"iteration over {reason} has no stable order; wrap in "
                f"sorted(...) so replays are bit-identical"
            )
        yield iterable.lineno, iterable.col_offset, message


@register
class FloatEqRule(Rule):
    """``==``/``!=`` against non-integral float literals.

    Accumulated float error makes exact comparison order- and
    parallelism-sensitive.  Integral sentinels (``x != 1.0`` default
    checks) are exempt — they compare bit-exact stored values, not
    computed ones.
    """

    id = "float-eq"
    node_types = (ast.Compare,)

    def check(self, node: ast.AST, ctx: "LintContext") -> Iterator[RuleHit]:
        assert isinstance(node, ast.Compare)
        operands = [node.left, *node.comparators]
        for index, op in enumerate(node.ops):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            for operand in (operands[index], operands[index + 1]):
                if (
                    isinstance(operand, ast.Constant)
                    and isinstance(operand.value, float)
                    and not operand.value.is_integer()
                ):
                    yield (
                        node.lineno,
                        node.col_offset,
                        f"float equality against {operand.value!r}; use "
                        f"math.isclose or an explicit tolerance",
                    )
                    return


@register
class MutableDefaultRule(Rule):
    """Mutable default arguments are shared across every call."""

    id = "mutable-default"
    node_types = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)

    def check(self, node: ast.AST, ctx: "LintContext") -> Iterator[RuleHit]:
        args = node.args  # type: ignore[union-attr]
        defaults = list(args.defaults) + [
            d for d in args.kw_defaults if d is not None
        ]
        for default in defaults:
            mutable: Optional[str] = None
            if isinstance(default, (ast.List, ast.Dict, ast.Set)):
                mutable = type(default).__name__.lower() + " literal"
            elif isinstance(default, ast.Call):
                name = ctx.resolve(default.func)
                if name is None and isinstance(default.func, ast.Name):
                    name = default.func.id
                if name in _MUTABLE_CONSTRUCTORS:
                    mutable = f"{name}()"
            if mutable is not None:
                yield (
                    default.lineno,
                    default.col_offset,
                    f"mutable default argument ({mutable}) is shared "
                    f"across calls; default to None and build inside",
                )


@register
class BareExceptRule(Rule):
    """``except:`` swallows SystemExit/KeyboardInterrupt and hides faults.

    The resilient sweep engine classifies failures by exception type; a
    bare handler erases that signal.  Catch ``Exception`` (or narrower).
    """

    id = "bare-except"
    node_types = (ast.ExceptHandler,)

    def check(self, node: ast.AST, ctx: "LintContext") -> Iterator[RuleHit]:
        assert isinstance(node, ast.ExceptHandler)
        if node.type is None:
            yield (
                node.lineno,
                node.col_offset,
                "bare except swallows SystemExit/KeyboardInterrupt; "
                "catch Exception or a specific type",
            )


@register
class EnvReadRule(Rule):
    """``os.environ`` reads outside the CLI and config modules.

    Hidden environment dependence makes two runs of the same command
    diverge between machines.  Environment resolution is centralised in
    ``cli.py`` and the config/cache/resilience modules (see
    ``EngineConfig.env_read_allowed``).
    """

    id = "env-read"
    node_types = (ast.Call, ast.Subscript)

    def check(self, node: ast.AST, ctx: "LintContext") -> Iterator[RuleHit]:
        if ctx.env_reads_allowed:
            return
        if isinstance(node, ast.Call):
            name = _call_name(node, ctx)
            if name == "os.getenv" or (
                name is not None and name.startswith("os.environ.")
            ):
                yield (
                    node.lineno,
                    node.col_offset,
                    f"environment read {name}() outside cli/config "
                    f"modules; thread the value through configuration",
                )
        elif isinstance(node, ast.Subscript):
            if ctx.resolve(node.value) == "os.environ":
                yield (
                    node.lineno,
                    node.col_offset,
                    "environment read os.environ[...] outside cli/config "
                    "modules; thread the value through configuration",
                )
