#!/usr/bin/env python
"""Proprietary workload sharing: the paper's motivating use case.

An end user (say, a national lab) cannot ship its GPU application or memory
traces to a hardware vendor (section 1).  With G-MAP it instead ships a
small, human-auditable JSON *profile* with obfuscated base addresses; the
vendor regenerates a proxy that behaves like the original on any memory
hierarchy — without ever seeing a single original address.

Run:  python examples/proprietary_sharing.py
"""

import tempfile
from pathlib import Path

from repro import PAPER_BASELINE, GmapProfiler, ProxyGenerator, execute_kernel, simulate
from repro.gpu.executor import kernel_warp_traces
from repro.io.profile_io import load_profile, save_profile
from repro.workloads import suite


def owner_side(workdir: Path) -> Path:
    """The workload owner profiles and obfuscates, then ships a file."""
    secret_app = suite.make("cp", scale="small")  # pretend this is proprietary
    profile = GmapProfiler().profile(secret_app)
    hidden = profile.obfuscated(base_seed=0xC0FFEE)
    path = workdir / "workload_profile.json.gz"
    save_profile(hidden, path)
    size_kb = path.stat().st_size / 1024
    print(f"[owner]  shipped {path.name}: {size_kb:.1f} KB "
          f"(vs. full trace: {profile.total_transactions} transactions)")
    return path


def vendor_side(path: Path):
    """The vendor regenerates a clone and explores the design space."""
    profile = load_profile(path)
    print(f"[vendor] received profile of {profile.name!r}: "
          f"{profile.num_instructions} instructions, unit={profile.unit}")
    proxy = ProxyGenerator(profile, seed=7)
    return proxy.generate(PAPER_BASELINE.num_cores)


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        shipped = owner_side(workdir)
        clone_assignments = vendor_side(shipped)

        # Ground truth (only the owner could compute this).
        secret_app = suite.make("cp", scale="small")
        original = simulate(
            execute_kernel(secret_app, PAPER_BASELINE.num_cores), PAPER_BASELINE
        )
        clone = simulate(clone_assignments, PAPER_BASELINE)

        # Prove no addresses leaked: the two streams share no cache lines.
        original_lines = {
            a >> 7
            for t in kernel_warp_traces(secret_app)
            for _, a, _, _ in t.transactions
        }
        clone_lines = set()
        for assignment in clone_assignments:
            for wave in assignment.waves:
                for t in wave:
                    clone_lines.update(a >> 7 for _, a, _, _ in t.transactions)
        shared = original_lines & clone_lines
        print(f"[check]  cache lines shared between original and clone: "
              f"{len(shared)} (obfuscation {'OK' if not shared else 'LEAKED'})")

        print(f"[check]  L1 miss rate  original={original.l1.miss_rate:.4f}  "
              f"clone={clone.l1.miss_rate:.4f}")
        print(f"[check]  L2 miss rate  original={original.l2.miss_rate:.4f}  "
              f"clone={clone.l2.miss_rate:.4f}")


if __name__ == "__main__":
    main()
