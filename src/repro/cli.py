"""Command-line interface: ``gmap <command>``.

Commands mirror the G-MAP workflow:

* ``gmap list`` — available benchmark models;
* ``gmap profile`` — profile a benchmark (or external trace file) into a
  shareable JSON profile;
* ``gmap generate`` — synthesise a proxy trace file from a profile;
* ``gmap simulate`` — run a benchmark or trace through the memory simulator;
* ``gmap validate`` — original-vs-proxy sweep for one experiment;
* ``gmap check`` — determinism linter + statistical-artifact verifier
  (see docs/static-analysis.md).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.core.backend import BACKENDS
from repro.core.generator import ProxyGenerator
from repro.core.miniaturize import miniaturize_profile
from repro.core.profiler import GmapProfiler, unit_streams_from_warp_traces
from repro.gpu.executor import execute_kernel
from repro.io.profile_io import load_profile, save_profile
from repro.io.trace_io import load_warp_traces, save_warp_traces
from repro.memsim.config import PAPER_BASELINE
from repro.memsim.simulator import SimtSimulator
from repro.validation.experiments import EXPERIMENTS
from repro.validation.harness import run_experiment
from repro.workloads import suite


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scale", default="small",
                        help="workload scale preset (tiny/small/default/large)")
    parser.add_argument("--cores", type=int, default=PAPER_BASELINE.num_cores,
                        help="number of SMs to simulate")
    parser.add_argument("--seed", type=int, default=1234,
                        help="proxy generation seed")
    parser.add_argument("--backend", choices=BACKENDS, default=None,
                        help="front-end/profiling/generation kernels: python "
                             "(reference) or numpy (vectorized array core; "
                             "default: $GMAP_BACKEND or python)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gmap",
        description="G-MAP: statistical GPU memory access proxies (DAC 2017)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available benchmark models")

    p = sub.add_parser("inspect", help="summarise a profile file (Table-1 style)")
    p.add_argument("profile", help="profile JSON path")
    p.add_argument("--top", type=int, default=3,
                   help="dominant instructions to show per profile")

    p = sub.add_parser("diff", help="statistical distance between two profiles")
    p.add_argument("profile_a", help="first profile JSON path")
    p.add_argument("profile_b", help="second profile JSON path")

    p = sub.add_parser("profile", help="profile a benchmark into a JSON profile")
    p.add_argument("benchmark", help="benchmark name, or a .trace file path")
    p.add_argument("-o", "--output", required=True, help="profile output path")
    p.add_argument("--no-coalescing", action="store_true",
                   help="profile at scalar-thread granularity")
    p.add_argument("--obfuscate", action="store_true",
                   help="replace base addresses with synthetic ones")
    _add_common(p)

    p = sub.add_parser("generate", help="generate a proxy trace from a profile")
    p.add_argument("profile", help="profile JSON path")
    p.add_argument("-o", "--output", required=True, help="trace output path")
    p.add_argument("--factor", type=float, default=1.0,
                   help="miniaturization factor (e.g. 8 for an 8x smaller clone)")
    p.add_argument("--stride-model", choices=("iid", "markov"), default="iid",
                   help="stride sampling: iid (paper) or first-order markov")
    _add_common(p)

    p = sub.add_parser("simulate", help="simulate a benchmark or trace file")
    p.add_argument("target", help="benchmark name or .trace file path")
    p.add_argument("--l1", default=None, metavar="SIZE,ASSOC,LINE",
                   help="L1 geometry, e.g. 32768,8,128")
    p.add_argument("--l2", default=None, metavar="SIZE,ASSOC,LINE",
                   help="L2 geometry, e.g. 2097152,16,128")
    p.add_argument("--scheduler", default=None,
                   choices=("lrr", "gto", "schedpself", "twolevel"),
                   help="warp scheduling policy (default: lrr)")
    p.add_argument("--dram-preset", default=None,
                   help="memory preset: gddr3-paper, gddr5, hbm2-like")
    p.add_argument("--flat", action="store_true",
                   help="fixed-order flat replay instead of the "
                        "latency-feedback SIMT loop; --backend numpy then "
                        "runs the array-resident memsim engine")
    p.add_argument("--analytic", action="store_true",
                   help="predict miss rates from reuse-distance histograms "
                        "instead of replaying (O(histogram) per config); "
                        "out-of-model configs fall back to flat replay with "
                        "their reasons reported; --backend numpy scans the "
                        "histograms with array sorts")
    p.add_argument("--sweep", choices=("l1", "l2"), default=None,
                   help="one-pass multi-config flat replay over this sweep "
                        "grid (implies --flat; reduced grid unless --full)")
    p.add_argument("--full", action="store_true",
                   help="with --sweep: the full paper-sized grid instead of "
                        "the reduced one")
    p.add_argument("--out", default=None,
                   help="with --sweep: write the per-config stat blocks as "
                        "a gmap-sweep JSON report (validated by 'gmap check')")
    _add_common(p)

    p = sub.add_parser("validate", help="original-vs-proxy accuracy for one figure")
    p.add_argument("experiment", choices=sorted(EXPERIMENTS),
                   help="which paper experiment's sweep to run")
    p.add_argument("--benchmarks", nargs="*", default=None,
                   help="benchmark subset (default: full 18-app suite)")
    p.add_argument("--full", action="store_true",
                   help="run the full paper-sized sweep instead of the reduced one")
    p.add_argument("--csv", default=None,
                   help="also write per-configuration results to this CSV file")
    p.add_argument("--chart", action="store_true",
                   help="render an ASCII error chart of the results")
    p.add_argument("--html", default=None,
                   help="write a self-contained HTML report to this path")
    p.add_argument("-j", "--jobs", type=int, default=None,
                   help="parallel worker processes for the sweep engine "
                        "(default: 1 = serial)")
    p.add_argument("--workers", type=int, default=None,
                   help="deprecated alias for --jobs")
    p.add_argument("--no-cache", action="store_true",
                   help="disable the on-disk artifact cache "
                        "(see GMAP_CACHE_DIR)")
    p.add_argument("--cache-dir", default=None,
                   help="artifact cache location (default: $GMAP_CACHE_DIR "
                        "or ~/.cache/gmap)")
    p.add_argument("--resume", nargs="?", const="auto", default=None,
                   metavar="RUN_ID",
                   help="resume an interrupted run from its journal; with "
                        "no value, resume the run id derived from these "
                        "inputs")
    p.add_argument("--run-id", default=None,
                   help="journal this run under an explicit id (default: "
                        "derived from the sweep inputs)")
    p.add_argument("--no-journal", action="store_true",
                   help="disable the checkpoint/resume run journal")
    p.add_argument("--journal-dir", default=None,
                   help="run journal location (default: $GMAP_JOURNAL_DIR "
                        "or <cache-dir>/journal)")
    p.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                   help="per-chunk watchdog for parallel sweeps; a hung "
                        "chunk is torn down and retried")
    p.add_argument("--retries", type=int, default=2,
                   help="retries per failing chunk before it is quarantined "
                        "as a ChunkFailure (default: 2)")
    p.add_argument("--sim-mode", choices=("simt", "flat", "analytic"),
                   default="simt",
                   help="per-point simulation: simt (latency-feedback loop, "
                        "the default), flat (fixed-order replay; each "
                        "worker chunk becomes a one-pass multi-config run "
                        "on --backend), or analytic (O(histogram) "
                        "reuse-distance prediction with per-config replay "
                        "fallback; --backend numpy runs the array scans)")
    _add_common(p)

    p = sub.add_parser(
        "check",
        help="static analysis: determinism linter + artifact verifier",
    )
    p.add_argument("paths", nargs="*",
                   help="extra targets: .py files/directories to lint, "
                        ".json/.json.gz profile artifacts and .npz binary "
                        "trace containers to verify (default: the repro "
                        "package sources and the bundled experiment "
                        "configurations)")
    p.add_argument("--format", choices=("text", "json", "sarif"),
                   default="text",
                   help="finding output format (default: text); sarif "
                        "emits a SARIF 2.1.0 log for code-scanning upload")
    p.add_argument("--self-test", action="store_true",
                   help="run every rule against bundled known-bad fixtures "
                        "and exit (fast CI sanity gate)")
    p.add_argument("--lint-only", action="store_true",
                   help="skip the artifact verifier pass")
    p.add_argument("--verify-only", action="store_true",
                   help="skip the determinism linter pass")
    p.add_argument("--concurrency", action="store_true",
                   help="also run the interprocedural concurrency rules "
                        "(lock discipline, blocking-under-lock, lock order, "
                        "fork/signal safety, shared-state races)")
    p.add_argument("--baseline", default=None, metavar="PATH",
                   help="concurrency baseline file of accepted findings "
                        "(default: the checked-in package baseline when "
                        "scanning the default scope)")
    p.add_argument("--no-baseline", action="store_true",
                   help="report every concurrency finding, ignoring any "
                        "baseline")
    p.add_argument("--write-baseline", default=None, metavar="PATH",
                   nargs="?", const="", dest="write_baseline",
                   help="accept the current concurrency findings: write "
                        "them as the new baseline (default: the active "
                        "baseline path) and exit 0")

    p = sub.add_parser(
        "serve",
        help="run the supervised job service (profile/generate/simulate/"
             "validate over HTTP)",
    )
    p.add_argument("--host", default=None,
                   help="bind address (default: 127.0.0.1)")
    p.add_argument("--port", type=int, default=None,
                   help="listen port (default: 0 = ephemeral, printed on "
                        "startup)")
    p.add_argument("--serve-workers", type=int, default=None, metavar="N",
                   dest="serve_workers",
                   help="concurrent worker slots (default: 2)")
    p.add_argument("--queue-capacity", type=int, default=None,
                   help="bounded admission queue depth; beyond it requests "
                        "are shed with 429 + Retry-After (default: 32)")
    p.add_argument("--job-timeout", type=float, default=None,
                   metavar="SECONDS",
                   help="per-job wall-clock deadline; a hung worker is "
                        "killed and the attempt typed 'timeout'")
    p.add_argument("--retries", type=int, default=None,
                   help="re-executions after a crash/timeout before the "
                        "job fails for good (default: 1)")
    p.add_argument("--drain-timeout", type=float, default=None,
                   metavar="SECONDS",
                   help="SIGTERM drain: seconds to wait for running jobs "
                        "before checkpointing them (default: 10)")
    p.add_argument("--run-id", default=None,
                   help="journal id for drain checkpoints (default: serve)")
    p.add_argument("--journal-dir", default=None,
                   help="checkpoint journal location (default: "
                        "$GMAP_JOURNAL_DIR or <cache-dir>/journal)")
    p.add_argument("--no-journal", action="store_true",
                   help="disable drain checkpointing / restart resume")
    p.add_argument("--isolation", choices=("process", "thread"), default=None,
                   help="worker isolation (default: process; thread has no "
                        "crash isolation and is for constrained platforms)")
    p.add_argument("--allow-fault-injection", action="store_true",
                   help="accept chaos fault directives on requests "
                        "(test harness only; never in production)")
    p.add_argument("--backend", default=None,
                   help="compute backend for job handlers (python or numpy; "
                        "default: $GMAP_BACKEND or python)")
    p.add_argument("--replica-id", default=None,
                   help="stable label of this replica within a fleet "
                        "(default: r0)")
    p.add_argument("--shared-cache-dir", default=None,
                   help="fleet-shared single-flight result cache directory "
                        "(default: disabled)")
    p.add_argument("--shared-cache-lock", choices=("fcntl", "lease"),
                   default=None,
                   help="single-flight lock backend for the shared cache "
                        "(default: fcntl where available, else lease; pick "
                        "lease on NFS-like filesystems)")
    p.add_argument("--replicas", type=int, default=None, metavar="N",
                   help="run a front-door router on --host/--port plus N "
                        "supervised local replicas that join it, instead "
                        "of a single server")
    p.add_argument("--router-only", action="store_true",
                   help="run only the front-door router (--replicas 0); "
                        "replicas attach with --join")
    p.add_argument("--state-dir", default=None,
                   help="durable router state directory (outcome store); "
                        "restarts and peer routers on the same directory "
                        "recover terminal outcomes and assignments")
    p.add_argument("--join", default=None, metavar="ROUTER_URL",
                   help="register this replica with a router at "
                        "ROUTER_URL and keep re-registering as a heartbeat")
    p.add_argument("--join-interval", type=float, default=None,
                   metavar="SECONDS",
                   help="re-registration heartbeat period for --join "
                        "(default: 2)")
    p.add_argument("--bulk-capacity", type=int, default=None, metavar="N",
                   help="bulk-lane admission bound (default: half of "
                        "--queue-capacity)")
    p.add_argument("--bulk-max-wait", type=float, default=None,
                   metavar="SECONDS",
                   help="anti-starvation bound: a bulk job waiting longer "
                        "is served next regardless of lane weights "
                        "(default: 30)")

    p = sub.add_parser(
        "bench-serve",
        help="closed-loop service benchmark: saturation throughput, tail "
             "latency, overload shedding, kill-recovery (BENCH_serve.json)",
    )
    p.add_argument("--out", default="BENCH_serve.json",
                   help="report path (default: BENCH_serve.json)")
    p.add_argument("--smoke", action="store_true",
                   help="tiny deterministic run for CI gates")
    p.add_argument("--seed", type=int, default=1234,
                   help="workload RNG seed (default: 1234)")
    p.add_argument("--replicas", type=int, default=3,
                   help="fleet size for the scaling phase (default: 3)")
    p.add_argument("--require-scaling", type=float, default=None,
                   metavar="X",
                   help="fail unless fleet throughput >= X * single-replica "
                        "(CI multi-core runners only)")

    return parser


def _print_result(label: str, result) -> None:
    print(f"== {label}")
    print(f"  requests      : {result.requests_issued}")
    print(f"  cycles        : {result.cycles:.0f}")
    print(f"  L1 miss rate  : {result.l1.miss_rate:.4f} "
          f"({result.l1.misses}/{result.l1.accesses})")
    print(f"  L2 miss rate  : {result.l2.miss_rate:.4f} "
          f"({result.l2.misses}/{result.l2.accesses})")
    d = result.dram
    print(f"  DRAM          : RBL={d.row_buffer_locality:.3f} "
          f"queue={d.avg_queue_length:.2f} rdlat={d.avg_read_latency:.1f} "
          f"wrlat={d.avg_write_latency:.1f}")


def _cmd_list(_args) -> int:
    for name in suite.available():
        kernel = suite.make(name, scale="tiny")
        marker = "*" if name in suite.PAPER_SUITE else " "
        print(f"{marker} {name:<18} [{kernel.suite}] grid={kernel.launch.grid_dim} "
              f"block={kernel.launch.block_dim}")
    print("(* = member of the paper's 18-benchmark evaluation suite)")
    from repro.workloads.applications import available_applications, make_application
    for name in available_applications():
        app = make_application(name, "tiny")
        kernels = ", ".join(k.name for k in app)
        print(f"A {name:<18} [application] kernels: {kernels}")
    print("(A = multi-kernel application; profile with "
          "'gmap profile <name> ...')")
    return 0


def _cmd_inspect(args) -> int:
    from repro.core.distributions import reuse_class
    from repro.gpu.memspace import space_of

    profile = load_profile(args.profile)
    print(f"profile {profile.name!r}: unit={profile.unit}, "
          f"grid={profile.grid_dim}, block={profile.block_dim}, "
          f"{profile.total_transactions} transactions, "
          f"scale_factor={profile.scale_factor}, "
          f"warp occupancy={profile.avg_warp_occupancy:.2f}")
    print(f"pi profiles: {profile.num_profiles}")
    for i, pi in enumerate(profile.pi_profiles):
        cls = reuse_class(pi.reuse_fraction)
        print(f"  pi[{i}]: p={pi.probability:.3f}, len={len(pi.sequence)}, "
              f"reuse={pi.reuse_fraction:.2f} ({cls})")
    total = sum(s.dynamic_count for s in profile.instructions.values()) or 1
    print(f"{'PC':>10} {'space':>9} {'%freq':>7} {'inter':>10} {'%':>6} "
          f"{'intra':>10} {'txns':>5} {'st':>3}")
    top = sorted(profile.instructions.values(),
                 key=lambda s: -s.dynamic_count)[: args.top]
    for stats in top:
        inter, inter_freq = stats.inter_stride.dominant()
        intra, _ = stats.intra_stride.dominant()
        txns = stats.txns_per_access.mode() or 1
        print(f"{stats.pc:>#10x} {space_of(stats.base_address).value:>9} "
              f"{stats.dynamic_count / total:>6.1%} "
              f"{inter if inter is not None else '-':>10} "
              f"{inter_freq:>5.0%} "
              f"{intra if intra is not None else '-':>10} {txns:>5} "
              f"{'W' if stats.is_store else 'R':>3}")
    return 0


def _cmd_diff(args) -> int:
    from repro.core.profile import profile_distance

    a = load_profile(args.profile_a)
    b = load_profile(args.profile_b)
    distances = profile_distance(a, b)
    print(f"diff {a.name!r} vs {b.name!r} "
          f"(Hellinger distances, 0 = identical shape):")
    for key in ("inter_stride", "intra_stride", "txns_per_access", "reuse"):
        print(f"  {key:<16} {distances[key]:.4f}")
    print(f"  shared PCs: {int(distances['shared_pcs'])}, "
          f"only in A: {int(distances['only_in_a'])}, "
          f"only in B: {int(distances['only_in_b'])}, "
          f"pi-count delta: {int(distances['pi_count_delta'])}")
    return 0


def _cmd_profile(args) -> int:
    from repro.workloads.applications import APPLICATIONS, make_application

    profiler = GmapProfiler(coalescing=not args.no_coalescing,
                            backend=args.backend)
    if args.benchmark in APPLICATIONS:
        from repro.core.app_pipeline import profile_application
        from repro.io.profile_io import save_application_profile

        app = make_application(args.benchmark, args.scale)
        app_profile = profile_application(app, profiler)
        if args.obfuscate:
            app_profile = app_profile.obfuscated()
        save_application_profile(app_profile, args.output)
        print(f"profiled application {app_profile.name}: "
              f"{len(app_profile)} kernels, "
              f"{app_profile.total_transactions} transactions -> {args.output}")
        return 0
    if args.benchmark.endswith((".ttrace", ".ttrace.gz", ".ttrace.npz")):
        from repro.io.thread_trace_io import warp_traces_from_thread_file

        traces, launch = warp_traces_from_thread_file(
            args.benchmark, backend=args.backend,
            mmap=args.benchmark.endswith(".npz"),
        )
        units = unit_streams_from_warp_traces(traces)
        profile = profiler.profile_unit_streams(
            units, "warp", name=args.benchmark,
            grid_dim=(launch.grid_dim.x, launch.grid_dim.y, launch.grid_dim.z),
            block_dim=(launch.block_dim.x, launch.block_dim.y,
                       launch.block_dim.z),
        )
    elif args.benchmark.endswith((".trace", ".trace.gz", ".trace.npz")):
        traces = load_warp_traces(args.benchmark)
        units = unit_streams_from_warp_traces(traces)
        profile = profiler.profile_unit_streams(units, "warp", name=args.benchmark)
    else:
        kernel = suite.make(args.benchmark, scale=args.scale)
        profile = profiler.profile(kernel)
    if args.obfuscate:
        profile = profile.obfuscated()
    save_profile(profile, args.output)
    print(f"profiled {profile.name}: {profile.num_profiles} pi profiles, "
          f"{profile.num_instructions} static instructions, "
          f"{profile.total_transactions} transactions -> {args.output}")
    return 0


def _cmd_generate(args) -> int:
    from repro.analysis import format_findings, verify_profile

    profile = load_profile(args.profile)
    findings = verify_profile(profile, origin=args.profile)
    if findings:
        print(format_findings(findings), file=sys.stderr)
        print(f"{args.profile}: profile fails verification; re-export it "
              f"or run 'gmap check {args.profile}' for details",
              file=sys.stderr)
        return 1
    if args.factor != 1.0:
        profile = miniaturize_profile(profile, args.factor)
    generator = ProxyGenerator(profile, seed=args.seed,
                               stride_model=args.stride_model,
                               backend=args.backend)
    traces = generator.generate_warp_traces()
    save_warp_traces(traces, args.output)
    total = sum(len(t.transactions) for t in traces)
    print(f"generated {len(traces)} warps, {total} transactions -> {args.output}")
    return 0


def _cmd_simulate(args) -> int:
    if args.target.endswith((".trace", ".trace.gz", ".trace.npz")):
        from repro.gpu.executor import assignments_from_traces

        traces = load_warp_traces(args.target)
        assignments = assignments_from_traces(traces, args.cores)
        label = args.target
    else:
        kernel = suite.make(args.target, scale=args.scale)
        assignments = execute_kernel(kernel, args.cores, backend=args.backend)
        label = args.target
    config = PAPER_BASELINE.with_(num_cores=args.cores)
    config = _apply_sim_overrides(config, args)
    if args.sweep:
        return _cmd_simulate_sweep(args, assignments, label)
    if args.analytic:
        from repro.analytical.analytic import AnalyticCacheModel
        from repro.gpu.executor import flat_drain

        traces = flat_drain(assignments)
        model = AnalyticCacheModel.from_flat(traces, args.backend)
        reasons = model.applicability(config)
        if reasons:
            for reason in reasons:
                print(f"analytic fallback: {reason}", file=sys.stderr)
            result = SimtSimulator(
                config, backend=args.backend).replay_flat(traces)
            _print_result(f"{label} (analytic fallback: flat replay)", result)
        else:
            result = model.predict(config)
            _print_result(f"{label} (analytic)", result)
        return 0
    if args.flat:
        from repro.gpu.executor import flat_drain

        result = SimtSimulator(config, backend=args.backend).replay_flat(
            flat_drain(assignments))
        _print_result(f"{label} (flat replay)", result)
        return 0
    result = SimtSimulator(config).run(assignments)
    _print_result(label, result)
    return 0


def _cmd_simulate_sweep(args, assignments, label: str) -> int:
    """``gmap simulate --sweep``: one-pass multi-config flat replay,
    or analytic O(histogram) prediction with ``--analytic``."""
    import json

    from repro.gpu.executor import flat_drain
    from repro.memsim.simulator import sweep_report
    from repro.validation import sweeps as sweep_grids

    grids = {"l1": sweep_grids.l1_sweep, "l2": sweep_grids.l2_sweep}
    configs = [
        config.with_(num_cores=args.cores)
        for config in grids[args.sweep](reduced=not args.full)
    ]
    report = sweep_report(
        flat_drain(assignments), configs, backend=args.backend,
        target=label, analytic=args.analytic)
    requested = report["engine"]
    print(f"== {label}: {requested} {args.sweep} sweep, "
          f"{report['num_configs']} configs, backend={report['backend']}")
    for entry in report["results"]:
        block = entry["result"]
        marker = " " if entry["engine"] == requested else "*"
        print(f" {marker}{entry['config'][:12]}  "
              f"L1 {block['l1']['misses']:>8}/{block['l1']['accesses']:<8} "
              f"L2 {block['l2']['misses']:>8}/{block['l2']['accesses']:<8} "
              f"cycles {block['cycles']:.0f}  {entry['engine']}")
    for fallback in report["fallbacks"]:
        print(f"  *config[{fallback['index']}] fell back from {requested}: "
              + "; ".join(fallback["reasons"]))
    if args.out:
        from pathlib import Path

        Path(args.out).write_text(
            json.dumps(report, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {args.out}")
    return 0


def _parse_cache_spec(spec: str, template):
    from dataclasses import replace

    try:
        size, assoc, line = (int(part) for part in spec.split(","))
    except ValueError:
        raise SystemExit(
            f"bad cache spec {spec!r}: expected SIZE,ASSOC,LINE (bytes)"
        )
    return replace(template, size=size, assoc=assoc, line_size=line)


def _apply_sim_overrides(config, args):
    if getattr(args, "l1", None):
        config = config.with_(l1=_parse_cache_spec(args.l1, config.l1))
    if getattr(args, "l2", None):
        config = config.with_(l2=_parse_cache_spec(args.l2, config.l2))
    if getattr(args, "scheduler", None):
        config = config.with_(scheduler=args.scheduler)
    if getattr(args, "dram_preset", None):
        from repro.memsim.presets import dram_preset

        config = config.with_(dram=dram_preset(args.dram_preset))
    return config


def _cmd_check(args) -> int:
    from pathlib import Path

    import repro
    from repro.analysis import (
        findings_to_json,
        format_findings,
        lint_paths,
        verify_profile_file,
        verify_sim_config,
        verify_sweep_configs,
        verify_trace_file,
    )

    if args.self_test:
        from repro.analysis.selftest import run_self_test

        ok, lines = run_self_test()
        print("\n".join(lines))
        return 0 if ok else 1

    lint_targets = []
    artifact_targets = []
    trace_targets = []
    for entry in args.paths:
        path = Path(entry)
        if path.suffix == ".npz" and path.is_file():
            trace_targets.append(path)
        elif path.suffix in (".json", ".gz") and path.is_file():
            artifact_targets.append(path)
        else:
            lint_targets.append(path)
    default_scope = not args.paths

    findings = []
    if not args.verify_only:
        if default_scope:
            lint_targets = [Path(repro.__file__).parent]
        findings.extend(lint_paths(lint_targets))
    stale_keys: list = []
    if args.concurrency:
        from repro.analysis.concurrency import (
            analyze_paths,
            apply_baseline,
            default_baseline_path,
            load_baseline,
            write_baseline,
        )

        conc_targets = (lint_targets if lint_targets
                        else [Path(repro.__file__).parent])
        conc = analyze_paths(conc_targets)
        baseline_path = None
        if args.baseline is not None:
            baseline_path = Path(args.baseline)
        elif default_scope and not args.no_baseline:
            baseline_path = default_baseline_path()
        baseline = {}
        if (baseline_path is not None and not args.no_baseline
                and baseline_path.is_file()):
            baseline = load_baseline(baseline_path)
        if args.write_baseline is not None:
            target = (Path(args.write_baseline) if args.write_baseline
                      else baseline_path)
            if target is None:
                print("check: --write-baseline needs a path outside the "
                      "default scope", file=sys.stderr)
                return 2
            write_baseline(conc, target, previous=baseline)
            print(f"check: wrote {len(conc)} accepted concurrency "
                  f"finding(s) to {target}")
            return 0
        result = apply_baseline(conc, baseline)
        findings.extend(result.new)
        stale_keys = result.stale_keys
    if not args.lint_only:
        for artifact in artifact_targets:
            findings.extend(verify_profile_file(artifact))
        for trace in trace_targets:
            findings.extend(verify_trace_file(trace))
        if default_scope:
            # The repo's bundled artifacts: the paper-baseline configuration
            # and every experiment's reduced + full sweep grids.
            findings.extend(verify_sim_config(PAPER_BASELINE, "PAPER_BASELINE"))
            for name in sorted(EXPERIMENTS):
                spec = EXPERIMENTS[name]
                for reduced in (True, False):
                    label = f"{name}{'-reduced' if reduced else '-full'}"
                    findings.extend(
                        verify_sweep_configs(spec.configs(reduced=reduced), label)
                    )

    if args.format == "json":
        print(findings_to_json(findings))
    elif args.format == "sarif":
        from repro.analysis.sarif import findings_to_sarif

        print(findings_to_sarif(findings))
    else:
        print(format_findings(findings))
    for key in stale_keys:
        # Stale entries never fail the scan — they are the expire half of
        # the baseline lifecycle; regenerate with --write-baseline to drop.
        print(f"check: stale baseline entry (no longer found): {key}",
              file=sys.stderr)
    return 1 if findings else 0


def _cmd_validate(args) -> int:
    spec = EXPERIMENTS[args.experiment]
    configs = spec.configs(reduced=not args.full)
    # Fail a malformed sweep in milliseconds, before any simulation starts.
    from repro.analysis import format_findings, verify_sweep_configs

    config_findings = verify_sweep_configs(configs, origin=args.experiment)
    if config_findings:
        print(format_findings(config_findings), file=sys.stderr)
        return 1
    metric = spec.metric
    names = args.benchmarks or list(suite.PAPER_SUITE)
    kernels = [suite.make(name, scale=args.scale) for name in names]
    jobs = args.jobs if args.jobs is not None else (args.workers or 1)
    resume = args.resume is not None
    run_id = args.resume if resume and args.resume != "auto" else args.run_id
    use_journal = not args.no_journal
    if args.no_journal and resume:
        raise SystemExit("--resume requires the journal; drop --no-journal")
    report = run_experiment(
        kernels, configs, metric, seed=args.seed, num_cores=args.cores,
        jobs=jobs, use_cache=not args.no_cache, cache_dir=args.cache_dir,
        timeout=args.timeout, retries=args.retries,
        journal=use_journal, journal_dir=args.journal_dir,
        run_id=run_id, resume=resume, backend=args.backend,
        sim_mode=args.sim_mode,
    )
    print(f"{spec.figure} ({spec.description}): metric={metric}, "
          f"{len(configs)} configs x {len(kernels)} benchmarks, "
          f"jobs={jobs}, sim_mode={args.sim_mode}, "
          f"cache={'off' if args.no_cache else 'on'}")
    if report.run_id:
        print(f"run id: {report.run_id} "
              f"(resume an interrupted run with --resume {report.run_id})")
    print(f"paper reports: error {spec.paper_error}, "
          f"correlation {spec.paper_correlation}")
    print(report.format_table())
    if args.csv:
        from repro.validation.report import write_comparison_csv
        write_comparison_csv(report.comparisons, args.csv)
        print(f"wrote {args.csv}")
    if args.chart:
        from repro.validation.report import render_error_chart
        print(render_error_chart(report.comparisons,
                                 title=f"{args.experiment} {metric} error"))
    if args.html:
        from repro.validation.html_report import experiment_html_report
        experiment_html_report(
            f"{spec.figure}: {spec.description}",
            report.comparisons,
            paper_note=(f"The paper reports avg error {spec.paper_error} and "
                        f"avg correlation {spec.paper_correlation} on this "
                        f"experiment."),
            path=args.html,
            failures=report.failures,
        )
        print(f"wrote {args.html}")
    if report.is_partial:
        from repro.validation.report import render_failure_summary
        print(render_failure_summary(report.failures, len(configs),
                                     len(kernels)))
        return 3
    return 0


def _cmd_serve(args) -> int:
    if args.router_only or args.replicas is not None:
        from repro.service.fleet import FleetConfig, serve_fleet

        fleet_config = FleetConfig(
            replicas=0 if args.router_only else args.replicas,
            workers=args.serve_workers or 2,
            queue_capacity=args.queue_capacity or 32,
            job_timeout=args.job_timeout or 120.0,
            retries=args.retries if args.retries is not None else 1,
            isolation=args.isolation,
            backend=args.backend,
            allow_fault_injection=args.allow_fault_injection,
            shared_cache_dir=args.shared_cache_dir,
            shared_cache_lock=args.shared_cache_lock,
            state_dir=args.state_dir,
            bulk_capacity=args.bulk_capacity or 0,
            bulk_max_wait=(args.bulk_max_wait
                           if args.bulk_max_wait is not None else 30.0),
        )
        return serve_fleet(fleet_config, args.host or "127.0.0.1",
                           args.port or 0)

    from repro.service.config import ServiceConfig
    from repro.service.server import serve_forever

    config = ServiceConfig.from_env(
        host=args.host, port=args.port, workers=args.serve_workers,
        queue_capacity=args.queue_capacity, job_timeout=args.job_timeout,
        retries=args.retries, drain_timeout=args.drain_timeout,
        run_id=args.run_id, journal_dir=args.journal_dir,
        journal=False if args.no_journal else None,
        isolation=args.isolation,
        allow_fault_injection=args.allow_fault_injection or None,
        backend=args.backend,
        replica_id=args.replica_id,
        shared_cache_dir=args.shared_cache_dir,
        shared_cache_lock=args.shared_cache_lock,
        join=args.join,
        join_interval=args.join_interval,
        bulk_capacity=args.bulk_capacity,
        bulk_max_wait=args.bulk_max_wait,
    )
    return serve_forever(config)


def _cmd_bench_serve(args) -> int:
    from repro.service.bench import run_bench

    return run_bench(out=args.out, smoke=args.smoke, seed=args.seed,
                     replicas=args.replicas,
                     require_scaling=args.require_scaling)


#: Expected error type -> taxonomy kind for the CLI's exit-2 path.  These
#: are the *operator mistakes* (bad paths, bad values, corrupt inputs) that
#: must print one typed line, not a traceback (see docs/robustness.md).
def _classify_cli_error(exc: BaseException) -> Optional[str]:
    import zlib

    from repro.core.integrity import CorruptArtifactError
    from repro.validation.resilience import JournalLockedError

    if isinstance(exc, CorruptArtifactError):
        return "corrupt_artifact"
    if isinstance(exc, JournalLockedError):
        return "rejected"
    if isinstance(exc, (FileNotFoundError, IsADirectoryError,
                        PermissionError)):
        return "invalid_request"
    if isinstance(exc, (UnicodeDecodeError, KeyError, ValueError,
                        zlib.error, EOFError)):
        # json.JSONDecodeError and gzip's BadGzipFile are ValueError/OSError
        # subclasses; malformed compressed inputs surface as zlib.error or
        # EOFError from the gzip reader.
        return "invalid_request"
    return None


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code.

    Operator mistakes — nonexistent inputs, malformed artifacts, bad
    parameter values — exit with code 2 and a one-line typed error reusing
    the :data:`~repro.validation.resilience.FAILURE_KINDS` taxonomy; a
    traceback from ``gmap`` always indicates a bug, never a bad input.
    """
    args = _build_parser().parse_args(argv)
    handlers = {
        "list": _cmd_list,
        "inspect": _cmd_inspect,
        "diff": _cmd_diff,
        "profile": _cmd_profile,
        "generate": _cmd_generate,
        "simulate": _cmd_simulate,
        "validate": _cmd_validate,
        "check": _cmd_check,
        "serve": _cmd_serve,
        "bench-serve": _cmd_bench_serve,
    }
    try:
        return handlers[args.command](args)
    except BrokenPipeError:
        return 0  # output piped into head/less that exited; not an error
    except KeyboardInterrupt:
        return 130
    except Exception as exc:
        kind = _classify_cli_error(exc)
        if kind is None:
            raise  # a real bug: keep the traceback
        message = str(exc) or type(exc).__name__
        print(f"gmap {args.command}: error [{kind}] {message}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
