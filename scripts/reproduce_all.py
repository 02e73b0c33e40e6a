#!/usr/bin/env python
"""Run the complete reproduction and collect its evidence in one place.

Executes, in order: the unit/property/integration test suite, every
table/figure bench (reduced or, with --full, paper-sized sweeps), and the
examples; tees everything under ``results/<timestamp>/`` so a reviewer gets
one directory containing the whole paper-vs-measured story.

Usage:
    python scripts/reproduce_all.py [--full] [--skip-tests] [--skip-examples]
"""

from __future__ import annotations

import argparse
import datetime as _dt
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

EXAMPLES = (
    "quickstart.py",
    "proprietary_sharing.py",
    "design_space_exploration.py",
    "miniaturization_study.py",
    "scheduling_study.py",
    "multi_kernel_application.py",
    "custom_kernel_dsl.py",
    "analytical_comparison.py",
)


def run(cmd, log_path: Path, env=None) -> int:
    print(f"--> {' '.join(cmd)}")
    with log_path.open("w", encoding="utf-8") as log:
        process = subprocess.Popen(
            cmd, cwd=REPO, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True, env=env,
        )
        assert process.stdout is not None
        for line in process.stdout:
            sys.stdout.write(line)
            log.write(line)
        process.wait()
    print(f"    exit {process.returncode}; log: {log_path}")
    return process.returncode


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--full", action="store_true",
                        help="paper-sized sweeps (GMAP_FULL=1); much slower")
    parser.add_argument("-j", "--jobs", type=int, default=None,
                        help="sweep-engine worker processes for the validate "
                             "stages (default: all CPUs)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the artifact cache for validate stages")
    parser.add_argument("--resume", action="store_true",
                        help="resume interrupted validate stages from their "
                             "run journals (skips completed sweep chunks)")
    parser.add_argument("--timeout", type=float, default=None,
                        help="per-chunk watchdog (seconds) for the validate "
                             "stages")
    parser.add_argument("--retries", type=int, default=None,
                        help="retries per failing sweep chunk before it is "
                             "quarantined")
    parser.add_argument("--skip-tests", action="store_true")
    parser.add_argument("--skip-examples", action="store_true")
    parser.add_argument("--skip-check", action="store_true",
                        help="skip the gmap check static-analysis gate")
    args = parser.parse_args()

    stamp = _dt.datetime.now().strftime("%Y%m%d-%H%M%S")
    outdir = REPO / "results" / stamp
    outdir.mkdir(parents=True, exist_ok=True)
    failures = []

    # Static analysis first: a determinism hazard or malformed bundled
    # artifact invalidates everything downstream, so fail in milliseconds
    # before hours of sweeps start.
    if not args.skip_check:
        if run([sys.executable, "-m", "repro.cli", "check", "--self-test"],
               outdir / "check_selftest.log"):
            failures.append("check/self-test")
        if run([sys.executable, "-m", "repro.cli", "check",
                "--format", "json"],
               outdir / "check.log"):
            failures.append("check")
        if failures:
            print(f"\nstatic-analysis gate failed ({', '.join(failures)}); "
                  f"aborting before any sweep runs")
            return 1

    if not args.skip_tests:
        if run([sys.executable, "-m", "pytest", "tests/", "-q"],
               outdir / "tests.log"):
            failures.append("tests")

    env = dict(os.environ)
    if args.full:
        env["GMAP_FULL"] = "1"
    if run([sys.executable, "-m", "pytest", "benchmarks/", "-q", "-s"],
           outdir / "benchmarks.log", env=env):
        failures.append("benchmarks")

    if not args.skip_examples:
        for example in EXAMPLES:
            if run([sys.executable, f"examples/{example}"],
                   outdir / f"example_{example}.log"):
                failures.append(f"examples/{example}")

    # Self-contained HTML reports, one per paper figure.  The parallel sweep
    # engine fans each figure's (benchmark, config) grid over worker
    # processes; the artifact cache makes later figures reuse the pipelines
    # profiled for earlier ones.  Each figure journals its sweep chunks, so
    # an interrupted campaign restarts with --resume instead of from zero;
    # a figure whose report is partial (quarantined chunks) exits nonzero
    # and is recorded as a failed stage.
    jobs = str(args.jobs if args.jobs else (os.cpu_count() or 2))
    for figure in ("fig6a", "fig6b", "fig6c", "fig6d", "fig7"):
        cmd = [sys.executable, "-m", "repro.cli", "validate", figure,
               "--jobs", jobs, "--html", str(outdir / f"{figure}.html"),
               "--csv", str(outdir / f"{figure}.csv")]
        if args.no_cache:
            cmd.append("--no-cache")
        if args.resume:
            cmd.append("--resume")
        if args.timeout is not None:
            cmd.extend(["--timeout", str(args.timeout)])
        if args.retries is not None:
            cmd.extend(["--retries", str(args.retries)])
        if args.full:
            cmd.append("--full")
        if run(cmd, outdir / f"validate_{figure}.log"):
            failures.append(f"validate/{figure}")

    print(f"\nartifacts in {outdir}")
    if failures:
        print(f"FAILED stages: {', '.join(failures)}")
        return 1
    print("all stages green")
    return 0


if __name__ == "__main__":
    sys.exit(main())
