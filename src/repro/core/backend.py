"""Compute-backend selection for the G-MAP hot kernels.

Two implementations of the pipeline's hot paths coexist:

``python``
    The original scalar reference implementation — per-access loops over
    dicts and ``random.Random``.  It is the oracle: every vectorized result
    is validated against it (bit-exact for the deterministic profiling and
    coalescing stages, statistically for generation, whose RNG stream
    necessarily differs).

``numpy``
    Array kernels in :mod:`repro.core.vectorized` — batched histogram
    construction, ``searchsorted`` sampling over precomputed CDFs, and
    per-warp ``np.unique`` coalescing.

NumPy is loaded through one lazy seam: :func:`import_numpy` imports it on
first use, and :func:`numpy_available` is the one answer to "does NumPy
import" (``_HAVE_NUMPY``, ``None`` until first asked).  Only the array-only
:mod:`repro.core.vectorized` and :mod:`repro.memsim.arrays` import it at
load time, and only numpy-backend code and ``.npz`` containers use them,
so a ``python``-backend process does not load NumPy.

Resolution order: an explicit ``backend=`` argument, the ``GMAP_BACKEND``
environment variable, then :data:`DEFAULT_BACKEND`.  Requesting ``numpy``
on an interpreter without NumPy raises immediately (a silent fallback would
make two machines' "same" run use different code paths); the *environment*
variable, by contrast, degrades gracefully so a global setting does not
break stripped-down installs.
"""

from __future__ import annotations

import os
from typing import Callable, List, Optional, Tuple, TypeVar

_T = TypeVar("_T")

#: Environment variable selecting the default backend.
ENV_BACKEND = "GMAP_BACKEND"

BACKENDS: Tuple[str, ...] = ("python", "numpy")

#: The scalar reference implementation stays the default: it has no
#: third-party dependency and is the oracle the array path is checked
#: against.
DEFAULT_BACKEND = "python"

_HAVE_NUMPY: Optional[bool] = None


def numpy_available() -> bool:
    """Whether NumPy imports (so the ``numpy`` backend can run); the first
    call tries the import, as a found module can still fail to import."""
    global _HAVE_NUMPY
    if _HAVE_NUMPY is None:
        try:
            import numpy  # noqa: F401
            _HAVE_NUMPY = True
        except ImportError:
            _HAVE_NUMPY = False
    return _HAVE_NUMPY


def import_numpy(needed_by: str = "this array path"):
    """NumPy, imported on first use (every array path gets it here);
    ``RuntimeError`` naming ``needed_by`` where it does not import."""
    if not numpy_available():
        raise RuntimeError(f"{needed_by} requires numpy")
    import numpy
    return numpy


def resolve_backend(backend: Optional[str] = None) -> str:
    """Normalise a backend request to ``"python"`` or ``"numpy"``.

    ``backend=None`` consults ``$GMAP_BACKEND`` and falls back to
    :data:`DEFAULT_BACKEND`.  An unknown name, or an explicit ``numpy``
    request without NumPy installed, raises ``ValueError``; an
    environment-supplied ``numpy`` without NumPy degrades to ``python``.
    """
    from_env = backend is None
    if backend is None:
        backend = os.environ.get(ENV_BACKEND) or DEFAULT_BACKEND
    backend = backend.lower()
    if backend not in BACKENDS:
        raise ValueError(
            f"backend must be one of {BACKENDS}, got {backend!r}"
        )
    if backend == "numpy" and not numpy_available():
        if from_env:
            return "python"
        raise ValueError(
            "backend 'numpy' requested but numpy is not importable"
        )
    return backend


def fallback_chain(backend: Optional[str] = None) -> Tuple[str, ...]:
    """The ordered backends to try for one unit of work.

    The resolved request first; if that is not the scalar reference
    implementation, the reference follows as the oracle fallback.  The
    chain is what the service layer's degradation policy walks when a
    vectorized path keeps failing.
    """
    resolved = resolve_backend(backend)
    if resolved == DEFAULT_BACKEND:
        return (resolved,)
    return (resolved, DEFAULT_BACKEND)


def run_with_fallback(
    fn: Callable[[str], _T],
    backend: Optional[str] = None,
    on_fallback: Optional[Callable[[str, Exception], None]] = None,
) -> Tuple[_T, str, List[Tuple[str, str]]]:
    """Run ``fn(backend_name)`` down the fallback chain.

    Returns ``(result, backend_used, fallback_errors)`` where
    ``fallback_errors`` lists ``(backend, "ExcType: message")`` for every
    backend that failed before one succeeded — non-empty means the result
    is *degraded*: produced by the oracle path after the requested backend
    broke.  The last backend's exception propagates unchanged (there is
    nothing left to degrade to).  ``on_fallback`` is notified before each
    retry — the service circuit breaker hooks in here.
    """
    chain = fallback_chain(backend)
    errors: List[Tuple[str, str]] = []
    for index, name in enumerate(chain):
        try:
            return fn(name), name, errors
        except Exception as exc:
            if index == len(chain) - 1:
                raise
            errors.append((name, f"{type(exc).__name__}: {exc}"))
            if on_fallback is not None:
                on_fallback(name, exc)
    raise AssertionError("unreachable: fallback chain is never empty")
