"""Recorded result digests: the benchmark's known answers.

``digests.json`` holds, for seed 1234, a digest of every sweep point's
original and proxy :class:`~repro.memsim.stats.SimResult`, and for every
serve-mix key the digest of its ``simulate`` result (served results do not
depend on the seed, so those are checked at every seed).  A change that
alters any simulated statistic fails the run's correctness check.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, Optional

PATH = Path(__file__).resolve().parent / "digests.json"
#: The seed the sweep digests were recorded at.
SEED = 1234


def result_digest(result: Any) -> str:
    """Short stable hash of a JSON-serialisable result."""
    text = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _load() -> Dict[str, Any]:
    if not PATH.exists():
        return {"seed": SEED, "sweeps": {}, "serve": {}}
    return json.loads(PATH.read_text(encoding="utf-8"))


def expected_sweep(name: str, seed: int) -> Optional[Dict[str, str]]:
    """Recorded point digests for a sweep workload, or None at other seeds."""
    if seed != SEED:
        return None
    return _load()["sweeps"].get(name)


def expected_serve() -> Dict[str, str]:
    """Recorded per-key digests of served results."""
    return dict(_load()["serve"])


def record_sweep(name: str, digests: Dict[str, str]) -> None:
    """Store a sweep workload's seed-1234 point digests."""
    data = _load()
    data["sweeps"][name] = dict(sorted(digests.items()))
    data["sweeps"] = dict(sorted(data["sweeps"].items()))
    _save(data)


def record_serve(digests: Dict[str, str]) -> None:
    """Store the per-key digests of served results."""
    data = _load()
    data["serve"] = dict(sorted(digests.items()))
    _save(data)


def _save(data: Dict[str, Any]) -> None:
    PATH.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
