#!/usr/bin/env python3
"""Run one benchmark workload, check its outputs, and print every metric.

    python3 bench/run.py --workload fig6a-simt --seed 1234
    python3 bench/run.py --workload serve-mix --seed 4321 --trace 1
    python3 bench/run.py --workload all --seed 1234 --out results.json

Prints one line per metric (name, value, unit) and, as the last line, one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  An untraced run reports the end-to-end metrics named in
BENCHMARK.json; ``--trace 1`` makes a separate run that reports the
per-layer ones (a layer the workload never enters reads 0).  The exit
status is 0 when every correctness check passed.  When the program under
test (``src/repro`` next to this directory) cannot be imported, the run
exits 2 without printing a result.
"""

from __future__ import annotations

import time

# Set-up is timed from here, so it includes importing the program.
_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List, Optional  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = ROOT / "BENCHMARK.json"
#: Work directories, traces and result files (ignored by git).
OUT_DIR = ROOT / ".bench_out"
SWEEP_WORKLOADS = ("fig6a-simt", "dram-prefetch-simt", "analytic-small")
SERVE_WORKLOAD = "serve-mix"
WORKLOADS = SWEEP_WORKLOADS + (SERVE_WORKLOAD,)
#: Set-ups per sweep run: this process plus fresh-process repeats.
SETUPS = 3


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1234,
                        help="drives proxy generation and the request stream")
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]),
                        help="measured seconds per run (default: "
                             "BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0,
                        help="1: traced run reporting per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="one pass at reduced sizes (all four workloads "
                             "in well under 90 s), for CI")
    parser.add_argument("--out", default=None,
                        help="also write the full result as JSON here")
    parser.add_argument("--record-digests", action="store_true",
                        help="store this run's result digests in "
                             "bench/digests.json (sweeps: at seed 1234)")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _program_importable() -> bool:
    try:
        import repro
    except ImportError as exc:
        print(f"bench: cannot import the program under test: {exc}",
              file=sys.stderr)
        return False
    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"bench: repro imported from {repro.__file__}, not from "
              f"{ROOT / 'src'}", file=sys.stderr)
        return False
    return True


def _hermetic(workdir: Path) -> None:
    """Keep every file the run or the program writes inside the checkout."""
    workdir.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(workdir)
    os.environ["GMAP_CACHE_DIR"] = str(workdir / "cache")
    os.environ["GMAP_JOURNAL_DIR"] = str(workdir / "journal")
    tempfile.tempdir = None


def _setup_sample(args: argparse.Namespace) -> float:
    """Set-up seconds of a fresh process (imports, inputs, warm-up)."""
    argv = [sys.executable, str(Path(__file__).resolve()),
            "--workload", args.workload, "--seed", str(args.seed),
            "--setup-only"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=True)
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def _finish(args: argparse.Namespace, result: Dict[str, Any],
             layers: Any) -> Dict[str, Any]:
    """Add set-up time; a traced run must report exactly its layers."""
    if not args.trace:
        result["metrics"]["setup_s"] = statistics.median(
            result["details"]["setup_seconds"])
    elif set(result["metrics"]) != set(layers):
        raise RuntimeError(f"{args.workload} reported layer metrics "
                           f"{sorted(set(result['metrics']) ^ set(layers))} "
                           f"unlike its declared list")
    return result


def _run_sweep(args: argparse.Namespace, trace_path: Optional[str]
               ) -> Dict[str, Any]:
    from bench.calibrate import HostClock

    with HostClock(started=_STARTED) as setup:
        from bench import digest, sweeps

        spec = sweeps.WORKLOADS[args.workload]
        kernels, configs = sweeps.prepare(spec, args.smoke)
    setups = [setup.seconds]
    if args.setup_only:
        return {"setup_s": setups[0]}
    if not args.smoke:
        setups += [_setup_sample(args) for _ in range(SETUPS - 1)]
    key = args.workload + (":smoke" if args.smoke else "")
    expected = (None if args.record_digests
                else digest.expected_sweep(key, args.seed))
    result = sweeps.run(spec, args.workload, args.seed, args.seconds,
                        bool(args.trace), args.smoke, kernels, configs,
                        expected, trace_path)
    details = result["details"]
    if args.record_digests and args.seed == digest.SEED:
        digest.record_sweep(key, details["digests"])
    elif expected is None and args.seed == digest.SEED:
        details["missing_reference"] = key
    details["setup_seconds"] = setups
    return _finish(args, result, sweeps.LAYER_METRICS)


def _run_serve(args: argparse.Namespace, workdir: Path,
               trace_path: Optional[str]) -> Dict[str, Any]:
    from bench import digest, serve

    if args.record_digests:
        digest.record_serve(serve.record_digests())
    expected = digest.expected_serve()
    result = serve.run(ROOT, workdir, args.seed, args.seconds,
                       bool(args.trace), args.smoke, expected, trace_path)
    if not expected:
        result["details"]["missing_reference"] = "serve"
    return _finish(args, result, serve.LAYER_METRICS)


def _emit(args: argparse.Namespace, run: Dict[str, Any]) -> bool:
    """Print the metrics and the result line; returns ``correct``."""
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    table = spec["per_layer"] if args.trace else spec["end_to_end"]
    measured = run["metrics"]
    unknown = set(measured) - {entry["name"] for entry in table}
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {unknown}")
    metrics = {}
    for entry in table:
        name = entry["name"]
        if name not in measured and not args.trace:
            raise KeyError(f"{args.workload} did not measure {name}")
        # A traced workload reports its own layers; the others read 0.
        metrics[name] = {"value": float(measured.get(name, 0.0)),
                         "unit": entry["unit"]}
        print(f"{args.workload}  {name:<30} {metrics[name]['value']:>18.6f}"
              f"  {entry['unit']}")
    details = run["details"]
    if "trace_file" in details:
        details["trace_file"] = os.path.relpath(details["trace_file"], ROOT)
    for note in ("latency_samples", "latency_tail_supported",
                 "latency_limit_met", "missing_reference", "trace_file"):
        if note in details:
            print(f"{args.workload}  {note}: {details[note]}")
    correct = run["failed"] == 0 and "missing_reference" not in details
    result = {"correct": correct, "attempted": run["attempted"],
              "failed": run["failed"], "metrics": metrics}
    if args.out:
        Path(args.out).write_text(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "trace": args.trace, "smoke": args.smoke,
            "seconds": args.seconds, **result, "details": details,
        }, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return correct


def _run_all(args: argparse.Namespace) -> int:
    """Every workload in its own fresh process, then a summary line."""
    results = []
    for name in WORKLOADS:
        out = OUT_DIR / f"result-{name}-{os.getpid()}.json"
        argv = [sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--out", str(out)]
        argv += ["--smoke"] * args.smoke
        argv += ["--record-digests"] * args.record_digests
        done = subprocess.run(argv, cwd=ROOT, timeout=900)
        if not out.exists():
            return done.returncode or 1
        results.append(json.loads(out.read_text(encoding="utf-8")))
        out.unlink()
    summary = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {f"{r['workload']}/{name}": metric
                    for r in results for name, metric in r["metrics"].items()},
    }
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=1) + "\n",
                                  encoding="utf-8")
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    OUT_DIR.mkdir(exist_ok=True)
    if args.workload == "all":
        return _run_all(args)
    workdir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    _hermetic(workdir)
    try:
        if not _program_importable():
            return 2
        trace_path = (str(OUT_DIR / f"trace-{args.workload}-seed{args.seed}"
                          ".jsonl") if args.trace else None)
        if args.workload == SERVE_WORKLOAD:
            run = _run_serve(args, workdir, trace_path)
        else:
            run = _run_sweep(args, trace_path)
        if args.setup_only:
            print(json.dumps(run))
            return 0
        return 0 if _emit(args, run) else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    # Import the benchmark as the ``bench`` package and the program from
    # src/, never modules of this directory as top-level names.
    sys.path[0:1] = [str(ROOT), str(ROOT / "src")]
    sys.exit(main())
