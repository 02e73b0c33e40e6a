"""Extension: sensitivity of the π-clustering threshold Th.

Paper section 4.4: similar profiles join a cluster when their similarity
exceeds Th, "empirically chosen as 0.9 in our experiments".  This bench
sweeps Th and shows why 0.9 is the sweet spot: low thresholds lump
genuinely different execution paths together (losing divergence structure),
Th = 1.0 keeps every distinct sequence (profile bloat for no accuracy
gain), and 0.9 captures the dominant paths with a handful of clusters.
"""

from __future__ import annotations

from repro.core.generator import ProxyGenerator
from repro.core.profiler import GmapProfiler
from repro.gpu.executor import execute_kernel
from repro.memsim.config import PAPER_BASELINE
from repro.memsim.simulator import simulate
from repro.workloads import suite

from benchmarks.conftest import NUM_CORES, SCALE, SEED, print_experiment_header

#: Apps with real divergence structure (thread- and warp-level).
TH_APPS = ("reduction", "bfs", "hotspot")
THRESHOLDS = (0.5, 0.75, 0.9, 1.0)


def test_th_sensitivity():
    print_experiment_header(
        "Th sweep", "pi-clustering threshold sensitivity (section 4.4)",
        paper_error="Th empirically chosen as 0.9", paper_corr="n/a",
    )
    print(f"    {'app':<12} {'Th':>5} {'pi clusters':>12} {'L1 err(pp)':>11}")
    results = {}
    for app in TH_APPS:
        kernel = suite.make(app, SCALE)
        original = simulate(execute_kernel(kernel, NUM_CORES), PAPER_BASELINE)
        for th in THRESHOLDS:
            profile = GmapProfiler(similarity_threshold=th).profile(kernel)
            clone = simulate(
                ProxyGenerator(profile, seed=SEED).generate(NUM_CORES),
                PAPER_BASELINE,
            )
            err = abs(original.l1_miss_rate - clone.l1_miss_rate)
            results[(app, th)] = (profile.num_profiles, err)
            print(f"    {app:<12} {th:>5.2f} {profile.num_profiles:>12} "
                  f"{err * 100:>11.2f}")

    for app in TH_APPS:
        # Cluster count grows monotonically with Th...
        counts = [results[(app, th)][0] for th in THRESHOLDS]
        assert counts == sorted(counts)
        # ...and Th=0.9 is at least as accurate as the coarse Th=0.5.
        assert results[(app, 0.9)][1] <= results[(app, 0.5)][1] + 0.02
