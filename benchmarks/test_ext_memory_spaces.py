"""Extension: cloning shared-memory / texture / constant access patterns.

Paper section 5: "We do not evaluate the performance of shared memory or
texture caches, however, G-MAP's methodology is generic enough to capture
and replicate patterns in accesses to these caches as well."  This bench
substantiates that sentence: three kernels exercising the specialised
on-chip paths are profiled, cloned, and compared on every space's metric.
"""

from __future__ import annotations

from repro.core.generator import ProxyGenerator
from repro.core.profiler import GmapProfiler
from repro.gpu.executor import execute_kernel
from repro.memsim.config import PAPER_BASELINE
from repro.memsim.simulator import simulate
from repro.workloads import suite

from benchmarks.conftest import NUM_CORES, SCALE, SEED, print_experiment_header

EXT_APPS = ("matmul_shared", "convolution_texture", "histogram_shared")


def test_ext_memory_spaces():
    print_experiment_header(
        "Extension", "memory-space cloning (shared / texture / constant)",
        paper_error="n/a ('methodology is generic enough', section 5)",
        paper_corr="n/a",
    )
    config = PAPER_BASELINE
    rows = []
    for app in EXT_APPS:
        kernel = suite.make(app, SCALE)
        profile = GmapProfiler().profile(kernel)
        original = simulate(execute_kernel(kernel, NUM_CORES), config)
        clone = simulate(
            ProxyGenerator(profile, seed=SEED).generate(NUM_CORES), config
        )
        rows.append((app, original, clone))

    print(f"    {'app':<22} {'metric':<18} {'orig':>9} {'clone':>9}")
    for app, original, clone in rows:
        for label, getter in (
            ("L1 miss rate", lambda r: r.l1.miss_rate),
            ("texture miss rate", lambda r: r.texture.miss_rate),
            ("constant miss rate", lambda r: r.constant.miss_rate),
            ("shared accesses", lambda r: r.shared_accesses),
            ("barriers", lambda r: r.barriers_crossed),
        ):
            ov, cv = getter(original), getter(clone)
            if isinstance(ov, float):
                print(f"    {app:<22} {label:<18} {ov:>9.4f} {cv:>9.4f}")
            else:
                print(f"    {app:<22} {label:<18} {ov:>9} {cv:>9}")

    by_app = {app: (o, c) for app, o, c in rows}
    o, c = by_app["matmul_shared"]
    assert c.shared_accesses == o.shared_accesses
    assert abs(o.l1_miss_rate - c.l1_miss_rate) < 0.05
    o, c = by_app["convolution_texture"]
    assert abs(c.texture.accesses - o.texture.accesses) / o.texture.accesses < 0.02
    assert abs(o.texture.miss_rate - c.texture.miss_rate) < 0.10
    assert abs(o.constant.miss_rate - c.constant.miss_rate) < 0.02
    o, c = by_app["histogram_shared"]
    assert abs(c.shared_accesses - o.shared_accesses) / o.shared_accesses < 0.10
