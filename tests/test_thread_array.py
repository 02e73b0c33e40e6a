"""The array form of affine thread programs (``RegularKernel.thread_array``).

On the ``numpy`` backend an affine kernel's threads reach the front end as
one ``(threads, records, 4)`` int64 array instead of per-thread tuples.
Every row must be that thread's program record for record, and the warps
coalesced from it must be the scalar walk's, fallback warps included.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

np = pytest.importorskip("numpy", exc_type=ImportError)

from repro.gpu.executor import kernel_warp_traces  # noqa: E402
from repro.gpu.hierarchy import LaunchConfig  # noqa: E402
from repro.workloads import suite  # noqa: E402
from repro.workloads.base import Layout, RegularKernel, StridedInstr  # noqa: E402

REGULAR = [
    name for name in suite.available()
    if isinstance(suite.make(name, scale="tiny"), RegularKernel)
]


def _rows(kernel):
    return [[tuple(r) for r in thread] for thread in
            kernel.thread_array().tolist()]


def _programs(kernel):
    return [kernel.trace_thread(tid) for tid in kernel.launch.iter_threads()]


def _warp_key(traces):
    return [(w.warp_id, w.block, w.transactions, w.instructions,
             w.active_lanes) for w in traces]


@pytest.mark.parametrize("scale", ["tiny", "small"])
@pytest.mark.parametrize("name", REGULAR)
def test_suite_rows_equal_thread_programs(name, scale):
    kernel = suite.make(name, scale=scale)
    threads = kernel.thread_array()
    assert threads.dtype == np.int64
    assert threads.shape[0] == kernel.total_threads
    assert _rows(kernel) == _programs(kernel)


_instr = st.fixed_dictionaries({
    "inter_stride": st.integers(-64, 256),
    "intra_stride": st.integers(-512, 512),
    "reuse_period": st.integers(1, 12),
    "every": st.integers(1, 4),
    "phase": st.integers(-8, 200),
    "size": st.sampled_from([1, 4, 8, 16]),
    "is_store": st.booleans(),
    "space": st.sampled_from(["global", "global", "global", "shared"]),
})


@settings(max_examples=60, deadline=None)
@given(
    specs=st.lists(_instr, min_size=1, max_size=4),
    iters=st.integers(1, 9),
    sync_every=st.integers(0, 3),
    block=st.sampled_from([32, 48, 64]),
)
def test_strided_rows_equal_thread_programs(specs, iters, sync_every, block):
    """Negative strides, phases, gating, reuse periods, stores, barriers,
    shared arrays and partial warps: rows match and the array-fed warps
    (fast or fallen back to the scalar walk) equal the scalar front end."""
    layout = Layout()
    instrs = []
    for index, spec in enumerate(specs):
        spec = dict(spec)
        space = spec.pop("space")
        layout.alloc(f"a{index}", 1 << 16, space=space)
        # Start mid-array so negative strides stay inside the window.
        spec["phase"] += 1 << 15
        instrs.append(StridedInstr(pc=0x100 + 8 * index, array=f"a{index}",
                                   **spec))
    kernel = RegularKernel(LaunchConfig(grid_dim=2, block_dim=block), layout,
                           instrs, iters=iters, sync_every=sync_every)
    assert _rows(kernel) == _programs(kernel)
    assert (_warp_key(kernel_warp_traces(kernel, backend="numpy"))
            == _warp_key(kernel_warp_traces(kernel, backend="python")))


def test_divergent_kernel_has_no_array():
    layout = Layout()
    layout.alloc("a", 1 << 16)
    layout.alloc("b", 1 << 16)
    kernel = RegularKernel(
        LaunchConfig(grid_dim=2, block_dim=64), layout,
        [StridedInstr(pc=0x10, array="a", inter_stride=4)], iters=4,
        divergent_instrs=[StridedInstr(pc=0x20, array="b", inter_stride=4)],
        divergent_modulo=3,
    )
    assert kernel.thread_array() is None
    assert (_warp_key(kernel_warp_traces(kernel, backend="numpy"))
            == _warp_key(kernel_warp_traces(kernel, backend="python")))


def test_irregular_and_overriding_kernels_have_no_array():
    assert suite.make("bfs", scale="tiny").thread_array() is None

    class Reversed(RegularKernel):
        def thread_program(self, tid):
            return reversed(list(super().thread_program(tid)))

    layout = Layout()
    layout.alloc("a", 1 << 16)
    kernel = Reversed(LaunchConfig(grid_dim=1, block_dim=32), layout,
                      [StridedInstr(pc=0x10, array="a", inter_stride=4,
                                    intra_stride=128)], iters=3)
    assert kernel.thread_array() is None
