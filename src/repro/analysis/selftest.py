"""``gmap check --self-test``: run every rule against known-bad fixtures.

A fast CI sanity gate: each lint rule is exercised against a deliberately
broken source snippet (written to a temporary directory — the fixtures live
here as string literals precisely so scanning the installed package never
flags them), and each verifier rule against a deliberately broken payload.
A rule that fails to fire means the gate has silently gone blind, which is
worse than a missing gate — so the self-test fails loudly.
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Dict, List, Tuple

from repro.analysis.engine import EngineConfig, lint_file
from repro.analysis.rules import rule_ids
from repro.analysis.verify import (
    verify_artifact_payload,
    verify_profile_payload,
    verify_sim_config,
)

#: rule id -> (relative path the fixture pretends to live at, bad source).
LINT_FIXTURES: Dict[str, Tuple[str, str]] = {
    "unseeded-random": (
        "core/fixture.py",
        "import random\nrandom.seed(42)\nx = random.random()\n",
    ),
    # ``rule:variant`` keys re-exercise a rule against another bad shape;
    # each numpy entropy-seeded form gets its own fixture so one regressed
    # detection cannot hide behind the others.
    "unseeded-random:numpy-global": (
        "core/fixture.py",
        "import numpy as np\nx = np.random.random()\n",
    ),
    "unseeded-random:numpy-default-rng": (
        "core/fixture.py",
        "import numpy as np\nrng = np.random.default_rng()\n",
    ),
    "unseeded-random:numpy-bitgen": (
        "core/fixture.py",
        "import numpy as np\n"
        "gen = np.random.Generator(np.random.PCG64())\n",
    ),
    "wallclock-in-sim": (
        "memsim/fixture.py",
        "import time\nstart = time.time()\n",
    ),
    "salted-hash": (
        "memsim/fixture.py",
        "def seed(name):\n    return hash(name) | 1\n",
    ),
    "unordered-iteration": (
        "core/fixture.py",
        "items = [3, 1]\nfor value in set(items):\n    print(value)\n",
    ),
    "float-eq": (
        "core/fixture.py",
        "def f(x):\n    return x == 0.1\n",
    ),
    "mutable-default": (
        "core/fixture.py",
        "def f(bins=[]):\n    return bins\n",
    ),
    "bare-except": (
        "core/fixture.py",
        "try:\n    pass\nexcept:\n    pass\n",
    ),
    "env-read": (
        "core/fixture.py",
        "import os\nflag = os.environ.get('GMAP_FLAG')\n",
    ),
    "syntax-error": (
        "core/fixture.py",
        "def broken(:\n",
    ),
    "unknown-suppression": (
        "core/fixture.py",
        "x = 1  # gmap: allow(no-such-rule)\n",
    ),
    "service-backoff": (
        "service/fixture.py",
        "import time\n"
        "def retry(fn):\n"
        "    fn()\n"
        "    time.sleep(1.0)\n",
    ),
    "service-backoff:unbounded-loop": (
        "service/fixture.py",
        "def wait_for(check):\n"
        "    while True:\n"
        "        if check():\n"
        "            print('ready')\n",
    ),
}

#: Seeded RNG construction in every supported spelling; a false positive
#: here would block each legitimate generator in the codebase.
CLEAN_RNG_FIXTURE: Tuple[str, str] = (
    "core/fixture.py",
    "import random\n"
    "import numpy as np\n"
    "from numpy.random import PCG64, Generator, default_rng\n"
    "r = random.Random(3)\n"
    "a = default_rng(1234)\n"
    "b = np.random.default_rng(seed=7)\n"
    "c = Generator(PCG64(99))\n",
)

#: Stable hashes and a ``hash`` method, which must not be mistaken for
#: the salted builtin.
CLEAN_HASH_FIXTURE: Tuple[str, str] = (
    "memsim/fixture.py",
    "import hashlib\n"
    "import zlib\n"
    "def seed(name, table):\n"
    "    digest = hashlib.sha256(name.encode()).hexdigest()\n"
    "    return zlib.crc32(name.encode()) | 1, table.hash(digest)\n",
)

#: The sanctioned service-layer wait spellings, plus a bounded ``while
#: True`` and an out-of-scope sleep; a false positive on any of these
#: would block the whole service package.
CLEAN_BACKOFF_FIXTURE: Tuple[str, str] = (
    "service/fixture.py",
    "from repro.service.backoff import poll_until, sleep_backoff\n"
    "def wait(ready, stop):\n"
    "    sleep_backoff(1, base=0.1)\n"
    "    poll_until(ready, timeout=5.0, wake=stop)\n"
    "    stop.wait(0.5)\n"
    "    while True:\n"
    "        if ready():\n"
    "            break\n"
    "        if not poll_until(ready, timeout=1.0):\n"
    "            return False\n"
    "    return True\n",
)


#: concurrency rule id (optionally ``:variant``) -> a tiny multi-file
#: project (``{rel posix path: source}``) the rule must flag.  Several are
#: deliberately *interprocedural* — the hazard only exists across a call
#: or module boundary, which is exactly what the PR 3 single-node rules
#: could not see.
CONCURRENCY_BAD_FIXTURES: Dict[str, Dict[str, str]] = {
    "lock-discipline": {
        "app/work.py":
            "import threading\n"
            "_lock = threading.Lock()\n"
            "def unsafe():\n"
            "    _lock.acquire()\n"
            "    step()\n"
            "    _lock.release()\n"
            "def step():\n"
            "    pass\n",
    },
    "blocking-under-lock": {
        "app/server.py":
            "import threading\n"
            "from app.util import backoff\n"
            "_lock = threading.Lock()\n"
            "def handler():\n"
            "    with _lock:\n"
            "        backoff()\n",
        "app/util.py":
            "import time\n"
            "def backoff():\n"
            "    time.sleep(1.0)\n",
    },
    "lock-order": {
        "app/ab.py":
            "import threading\n"
            "lock_a = threading.Lock()\n"
            "lock_b = threading.Lock()\n"
            "def one():\n"
            "    with lock_a:\n"
            "        with lock_b:\n"
            "            pass\n"
            "def two():\n"
            "    with lock_b:\n"
            "        with lock_a:\n"
            "            pass\n",
    },
    "lock-order:transitive": {
        "app/locks.py":
            "import threading\n"
            "lock_a = threading.Lock()\n"
            "lock_b = threading.Lock()\n",
        "app/one.py":
            "from app.locks import lock_a\n"
            "from app.two import take_b\n"
            "def one():\n"
            "    with lock_a:\n"
            "        take_b()\n",
        "app/two.py":
            "from app.locks import lock_a, lock_b\n"
            "def take_b():\n"
            "    with lock_b:\n"
            "        pass\n"
            "def two():\n"
            "    with lock_b:\n"
            "        with lock_a:\n"
            "            pass\n",
    },
    "fork-safety": {
        "app/forker.py":
            "import os\n"
            "import threading\n"
            "_lock = threading.Lock()\n"
            "def spawn():\n"
            "    with _lock:\n"
            "        return os.fork()\n",
    },
    "fork-safety:threads": {
        "app/mixed.py":
            "import os\n"
            "import threading\n"
            "def monitor():\n"
            "    threading.Thread(target=work).start()\n"
            "def work():\n"
            "    pass\n"
            "def spawn_worker():\n"
            "    return os.fork()\n",
    },
    "signal-safety": {
        "app/sig.py":
            "import signal\n"
            "import threading\n"
            "_lock = threading.Lock()\n"
            "def handler(signum, frame):\n"
            "    with _lock:\n"
            "        pass\n"
            "def install():\n"
            "    signal.signal(signal.SIGTERM, handler)\n",
    },
    "signal-safety:blocking": {
        "app/sig.py":
            "import signal\n"
            "from app.util import backoff\n"
            "def handler(signum, frame):\n"
            "    backoff()\n"
            "def install():\n"
            "    signal.signal(signal.SIGTERM, handler)\n",
        "app/util.py":
            "import time\n"
            "def backoff():\n"
            "    time.sleep(1.0)\n",
    },
    "shared-state-race": {
        "app/stats.py":
            "import threading\n"
            "class Stats:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._counts = {}\n"
            "    def guarded(self, key):\n"
            "        with self._lock:\n"
            "            self._counts[key] += 1\n"
            "    def unguarded(self, key):\n"
            "        self._counts[key] += 1\n",
    },
    "shared-state-race:thread-reachable": {
        "app/worker.py":
            "import threading\n"
            "class Worker:\n"
            "    def __init__(self):\n"
            "        self._done = 0\n"
            "    def start(self):\n"
            "        threading.Thread(target=self._loop).start()\n"
            "    def _loop(self):\n"
            "        self._done += 1\n",
    },
    "shared-state-race:module-global": {
        "app/registry.py":
            "import threading\n"
            "_counts = {}\n"
            "def start():\n"
            "    threading.Thread(target=worker).start()\n"
            "def worker():\n"
            "    _counts['n'] = 1\n",
    },
}

#: concurrency rule id -> a project using the *sanctioned* pattern the
#: rule must stay silent on; a false positive here would block the whole
#: service layer.
CONCURRENCY_GOOD_FIXTURES: Dict[str, Dict[str, str]] = {
    "lock-discipline": {
        "app/work.py":
            "import threading\n"
            "_lock = threading.Lock()\n"
            "def safe_with():\n"
            "    with _lock:\n"
            "        pass\n"
            "def safe_finally():\n"
            "    _lock.acquire()\n"
            "    try:\n"
            "        return 1\n"
            "    finally:\n"
            "        _lock.release()\n",
    },
    "blocking-under-lock": {
        "app/queue.py":
            "import threading\n"
            "import time\n"
            "class Q:\n"
            "    def __init__(self):\n"
            "        self._cond = threading.Condition()\n"
            "        self._items = []\n"
            "    def get(self):\n"
            "        with self._cond:\n"
            "            while not self._items:\n"
            "                self._cond.wait(0.1)\n"
            "            return self._items.pop()\n"
            "def outside():\n"
            "    time.sleep(0.1)\n",
    },
    "lock-order": {
        "app/ab.py":
            "import threading\n"
            "lock_a = threading.Lock()\n"
            "lock_b = threading.Lock()\n"
            "def one():\n"
            "    with lock_a:\n"
            "        with lock_b:\n"
            "            pass\n"
            "def two():\n"
            "    with lock_a:\n"
            "        with lock_b:\n"
            "            pass\n",
    },
    "fork-safety": {
        "app/forker.py":
            "import os\n"
            "def spawn():\n"
            "    return os.fork()\n",
    },
    "signal-safety": {
        "app/sig.py":
            "import signal\n"
            "import threading\n"
            "_stop = threading.Event()\n"
            "def handler(signum, frame):\n"
            "    _stop.set()\n"
            "def install():\n"
            "    signal.signal(signal.SIGTERM, handler)\n",
    },
    "shared-state-race": {
        "app/stats.py":
            "import threading\n"
            "class Stats:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._counts = {}\n"
            "    def add(self, key):\n"
            "        with self._lock:\n"
            "            self._counts[key] += 1\n"
            "    def start(self):\n"
            "        threading.Thread(target=self._loop).start()\n"
            "    def _loop(self):\n"
            "        with self._lock:\n"
            "            self._counts['beat'] = 1\n",
    },
}


def _concurrency_lines() -> Tuple[bool, List[str]]:
    """Exercise every concurrency rule on bad *and* good projects."""
    from repro.analysis.concurrency import (
        CONCURRENCY_RULE_IDS,
        analyze_sources,
    )

    lines: List[str] = []
    ok = True
    for key, sources in sorted(CONCURRENCY_BAD_FIXTURES.items()):
        rule = key.split(":", 1)[0]
        fired = any(c.finding.rule == rule for c in analyze_sources(sources))
        ok &= fired
        lines.append(f"conc  {key:<24} {'OK' if fired else 'MISSING'}")
    for rule, sources in sorted(CONCURRENCY_GOOD_FIXTURES.items()):
        clean = not any(
            c.finding.rule == rule for c in analyze_sources(sources))
        ok &= clean
        lines.append(
            f"conc  {rule + ':clean':<24} "
            f"{'OK' if clean else 'FALSE POSITIVE'}"
        )
    bad_rules = {key.split(":", 1)[0] for key in CONCURRENCY_BAD_FIXTURES}
    good_rules = {key.split(":", 1)[0] for key in CONCURRENCY_GOOD_FIXTURES}
    for rule in CONCURRENCY_RULE_IDS:
        if rule not in bad_rules:
            ok = False
            lines.append(f"conc  {rule:<24} NO BAD FIXTURE")
        if rule not in good_rules:
            ok = False
            lines.append(f"conc  {rule:<24} NO GOOD FIXTURE")
    return ok, lines


def _minimal_profile() -> Dict[str, Any]:
    """A smallest well-formed kernel-profile payload to mutate per fixture."""
    return {
        "schema_version": 1,
        "name": "fixture",
        "grid_dim": [1, 1, 1],
        "block_dim": [32, 1, 1],
        "unit": "warp",
        "segment_size": 128,
        "scale_factor": 1.0,
        "sched_p_self": 0.5,
        "total_transactions": 8,
        "avg_warp_occupancy": 1.0,
        "pi_profiles": [
            {
                "sequence": [80, 88],
                "probability": 1.0,
                "reuse": {"0": 4},
                "reuse_fraction": 0.5,
            }
        ],
        "instructions": {
            "80": {
                "pc": 80,
                "base_address": 0x1000_0000,
                "inter_stride": {"128": 7},
                "intra_stride": {},
                "txns_per_access": {"1": 8},
                "txn_stride": {},
                "intra_markov": {},
                "size": 128,
                "is_store": False,
                "dynamic_count": 8,
            },
            "88": {
                "pc": 88,
                "base_address": 0x1000_a000,
                "inter_stride": {"128": 7},
                "intra_stride": {},
                "txns_per_access": {"1": 8},
                "txn_stride": {},
                "intra_markov": {},
                "size": 128,
                "is_store": True,
                "dynamic_count": 8,
            },
        },
    }


def _verify_fixtures() -> Dict[str, Dict[str, Any]]:
    fixtures: Dict[str, Dict[str, Any]] = {}

    bad = _minimal_profile()
    bad["pi_profiles"] = []
    bad["instructions"] = {}
    fixtures["empty-profile"] = bad

    bad = _minimal_profile()
    bad["pi_profiles"][0]["probability"] = 0.9  # off by far more than 1e-6
    fixtures["q-not-normalized"] = bad

    bad = _minimal_profile()
    bad["pi_profiles"][0]["probability"] = 1.5
    fixtures["q-out-of-range"] = bad

    bad = _minimal_profile()
    bad["instructions"]["80"]["inter_stride"] = {"128": -3}
    fixtures["hist-negative-bin"] = bad

    bad = _minimal_profile()
    bad["instructions"]["80"]["inter_stride"] = {"128": "seven"}
    fixtures["hist-bad-bin"] = bad

    bad = _minimal_profile()
    bad["pi_profiles"][0]["sequence"] = [80, 999]
    fixtures["pi-unknown-pc"] = bad

    bad = _minimal_profile()
    bad["pi_profiles"][0]["reuse_fraction"] = 1.5
    fixtures["reuse-fraction-range"] = bad

    bad = _minimal_profile()
    bad["scale_factor"] = 4.0
    bad["pi_profiles"][0]["reuse"] = {"50": 2}
    fixtures["reuse-exceeds-sequence"] = bad

    bad = _minimal_profile()
    bad["instructions"]["80"]["base_address"] = 0x1000_0005
    fixtures["base-misaligned"] = bad

    bad = _minimal_profile()
    bad["instructions"]["80"]["txns_per_access"] = {"0": 8}
    fixtures["txns-nonpositive"] = bad

    bad = _minimal_profile()
    bad["total_transactions"] = -1
    fixtures["negative-count"] = bad

    return fixtures


def _config_fixtures() -> Dict[str, Any]:
    """Duck-typed bad configs (the real constructors reject these shapes)."""
    def cache(**overrides: Any) -> SimpleNamespace:
        base = dict(
            size=16 * 1024, assoc=4, line_size=128, num_sets=32, mshrs=64
        )
        base.update(overrides)
        return SimpleNamespace(**base)

    good_dram = SimpleNamespace(frfcfs_window=16)
    return {
        "config-size-mismatch": SimpleNamespace(
            l1=cache(size=16 * 1024 + 128), l2=cache(), dram=good_dram
        ),
        "config-assoc-pow2": SimpleNamespace(
            l1=cache(assoc=3, num_sets=42), l2=cache(), dram=good_dram
        ),
        "config-mshr-positive": SimpleNamespace(
            l1=cache(mshrs=0), l2=cache(), dram=good_dram
        ),
        "config-queue-positive": SimpleNamespace(
            l1=cache(), l2=cache(), dram=SimpleNamespace(frfcfs_window=0)
        ),
    }


def _minimal_sweep() -> Dict[str, Any]:
    """A smallest well-formed analytic sweep artifact to mutate.

    One analytic prediction plus one explained fallback to the array
    engine — exercising both sides of the two-way fallback consistency
    contract from a clean base.
    """
    def stats(accesses: int, hits: int) -> Dict[str, int]:
        return {"accesses": accesses, "hits": hits, "misses": accesses - hits}

    def block() -> Dict[str, Any]:
        return {
            "requests_issued": 8,
            "cycles": 64.0,
            "l1": stats(8, 2),
            "l2": stats(6, 1),
        }

    return {
        "format": "gmap-sweep",
        "schema_version": 1,
        "target": "fixture",
        "backend": "numpy",
        "engine": "analytic",
        "num_configs": 2,
        "tolerance": 0.12,
        "results": [
            {"config": "cfg-a", "engine": "analytic", "result": block()},
            {"config": "cfg-b", "engine": "array", "result": block()},
        ],
        "fallbacks": [
            {"index": 1, "reasons": ["l1 prefetcher outside the model"]},
        ],
    }


def _sweep_fixtures() -> Dict[str, Dict[str, Any]]:
    """rule id -> :func:`_minimal_sweep` with one mutation that breaks it."""
    fixtures: Dict[str, Dict[str, Any]] = {}

    bad = _minimal_sweep()
    bad["num_configs"] = 5
    fixtures["sweep-count"] = bad

    bad = _minimal_sweep()
    bad["results"][0] = {"config": "cfg-a", "engine": "analytic"}
    fixtures["sweep-bad-block"] = bad

    bad = _minimal_sweep()
    bad["results"][0]["result"]["l1"]["hits"] = 5  # 5 + 6 != 8
    fixtures["sweep-totals"] = bad

    bad = _minimal_sweep()
    bad["results"][1]["result"]["cycles"] = 99.0
    fixtures["sweep-trace-mismatch"] = bad

    bad = _minimal_sweep()
    del bad["results"][0]["engine"]
    fixtures["sweep-engine"] = bad

    bad = _minimal_sweep()
    bad["tolerance"] = 0.0  # a zero bound can never admit a prediction
    fixtures["sweep-tolerance"] = bad

    bad = _minimal_sweep()
    bad["fallbacks"] = [{"index": 9, "reasons": ["x"]}]
    fixtures["sweep-fallback-index"] = bad

    bad = _minimal_sweep()
    bad["fallbacks"][0]["reasons"] = []
    fixtures["sweep-fallback-reasons"] = bad

    bad = _minimal_sweep()
    bad["fallbacks"] = []  # the array-engine block left unexplained
    fixtures["sweep-fallback-unexplained"] = bad

    bad = _minimal_sweep()
    bad["results"][1]["engine"] = "analytic"  # the reason says otherwise
    fixtures["sweep-fallback-contradiction"] = bad

    bad = _minimal_sweep()
    bad["format"] = "gmap-analytic-sweep"  # a retired sweep format
    fixtures["unknown-artifact-format"] = bad

    return fixtures


def _determinism_traces() -> List[List[Tuple[int, int, int, int]]]:
    """Tiny synthetic per-core streams mixing reuse, strides and stores."""
    from repro.gpu.instructions import pack

    cores = []
    for core in range(2):
        base = 0x1000_0000 + core * 0x4000
        trace = []
        for i in range(24):
            trace.append(pack(80, base + (i % 6) * 128, 128, False))
            trace.append(pack(88, base + i * 256, 32, i % 3 == 0))
        cores.append(trace)
    return cores


def _memsim_determinism_lines() -> Tuple[bool, List[str]]:
    """Replay one fixed trace twice per backend; any drift means the memsim
    engine has picked up hidden state (the array backend must match the
    python oracle bit-for-bit on supported configs)."""
    from repro.core.backend import numpy_available
    from repro.memsim.config import PAPER_BASELINE
    from repro.memsim.vectorized import simulate_flat_runs

    traces = _determinism_traces()
    config = PAPER_BASELINE.with_(num_cores=len(traces))
    lines: List[str] = []
    ok = True
    reference: Any = None
    for backend in ("python", "numpy"):
        label = f"memsim-determinism:{backend}"
        if backend == "numpy" and not numpy_available():
            lines.append(f"verify {label:<23} SKIPPED (no numpy)")
            continue
        runs = [
            simulate_flat_runs(traces, [config], backend)[0][1].to_dict()
            for _ in range(2)
        ]
        stable = runs[0] == runs[1]
        ok &= stable
        lines.append(
            f"verify {label:<23} {'OK' if stable else 'NONDETERMINISTIC'}")
        if reference is None:
            reference = runs[0]
        else:
            matches = runs[0] == reference
            ok &= matches
            lines.append(
                f"verify {'memsim-backend-match':<23} "
                f"{'OK' if matches else 'ORACLE MISMATCH'}"
            )
    return ok, lines


def run_self_test() -> Tuple[bool, List[str]]:
    """Exercise every rule; returns ``(all_fired, report_lines)``."""
    lines: List[str] = []
    ok = True

    with tempfile.TemporaryDirectory(prefix="gmap-selftest-") as tmp:
        root = Path(tmp)
        for key, (rel_path, source) in sorted(LINT_FIXTURES.items()):
            rule = key.split(":", 1)[0]
            path = root / rel_path
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(source, encoding="utf-8")
            findings = lint_file(path, root=root, config=EngineConfig())
            fired = any(f.rule == rule for f in findings)
            ok &= fired
            lines.append(f"lint  {key:<24} {'OK' if fired else 'MISSING'}")
            path.unlink()

        for label, rule, (rel_path, source) in (
            ("seeded-rng-passes", "unseeded-random", CLEAN_RNG_FIXTURE),
            ("stable-hash-passes", "salted-hash", CLEAN_HASH_FIXTURE),
            ("backoff-helpers-pass", "service-backoff",
             CLEAN_BACKOFF_FIXTURE),
        ):
            path = root / rel_path
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(source, encoding="utf-8")
            findings = lint_file(path, root=root, config=EngineConfig())
            clean = not any(f.rule == rule for f in findings)
            ok &= clean
            lines.append(
                f"lint  {label:<24} "
                f"{'OK' if clean else 'FALSE POSITIVE'}"
            )
            path.unlink()

    untested = (
        set(rule_ids())
        - {key.split(":", 1)[0] for key in LINT_FIXTURES}
        - {"syntax-error"}
    )
    for rule in sorted(untested):
        ok = False
        lines.append(f"lint  {rule:<24} NO FIXTURE")

    conc_ok, conc_lines = _concurrency_lines()
    ok &= conc_ok
    lines.extend(conc_lines)

    for rule, payload in sorted(_verify_fixtures().items()):
        findings = verify_profile_payload(payload, origin="<selftest>")
        fired = any(f.rule == rule for f in findings)
        ok &= fired
        lines.append(f"verify {rule:<23} {'OK' if fired else 'MISSING'}")

    for rule, config in sorted(_config_fixtures().items()):
        findings = verify_sim_config(config, origin="<selftest>")
        fired = any(f.rule == rule for f in findings)
        ok &= fired
        lines.append(f"verify {rule:<23} {'OK' if fired else 'MISSING'}")

    for rule, payload in sorted(_sweep_fixtures().items()):
        findings = verify_artifact_payload(payload, origin="<selftest>")
        fired = any(f.rule == rule for f in findings)
        ok &= fired
        lines.append(f"verify {rule:<23} {'OK' if fired else 'MISSING'}")

    clean_sweep = not verify_artifact_payload(_minimal_sweep(), "<selftest>")
    ok &= clean_sweep
    lines.append(
        f"verify {'clean-sweep-passes':<23} "
        f"{'OK' if clean_sweep else 'FALSE POSITIVE'}"
    )

    det_ok, det_lines = _memsim_determinism_lines()
    ok &= det_ok
    lines.extend(det_lines)

    # A well-formed payload/config must stay clean, or the gate would block
    # every legitimate sweep.
    clean_profile = not verify_profile_payload(_minimal_profile(), "<selftest>")
    ok &= clean_profile
    lines.append(
        f"verify {'clean-profile-passes':<23} "
        f"{'OK' if clean_profile else 'FALSE POSITIVE'}"
    )
    lines.append(f"self-test: {'all rules fire' if ok else 'FAILURES'}")
    return ok, lines
