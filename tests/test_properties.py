"""Property-based tests over the whole profile→generate pipeline.

Hypothesis builds randomized (but well-formed) affine kernels and checks the
invariants G-MAP must hold for *any* workload: clone size preservation,
π-sequence fidelity, address-space confinement, determinism, and
miniaturization monotonicity.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.generator import ProxyGenerator
from repro.core.miniaturize import miniaturize_profile
from repro.core.profiler import GmapProfiler
from repro.gpu.executor import kernel_warp_traces
from repro.gpu.hierarchy import LaunchConfig
from repro.gpu.instructions import SYNC_PC
from repro.workloads.base import Layout, RegularKernel, StridedInstr


@st.composite
def regular_kernels(draw):
    """A random small RegularKernel with 1-3 instructions."""
    n_instr = draw(st.integers(1, 3))
    iters = draw(st.integers(2, 10))
    blocks = draw(st.integers(1, 2))
    block_size = draw(st.sampled_from([32, 64, 128]))
    sync_every = draw(st.sampled_from([0, 0, 2]))
    layout = Layout()
    instrs = []
    for i in range(n_instr):
        inter = draw(st.sampled_from([4, 8, 64, 512]))
        intra = draw(st.sampled_from([-1024, 0, 4, 128, 4096]))
        period = draw(st.sampled_from([1 << 30, 4, 8]))
        every = draw(st.sampled_from([1, 1, 2]))
        name = f"a{i}"
        span = (blocks * block_size * inter
                + (iters + 2) * (abs(intra) + 1) + 8192)
        layout.alloc(name, span)
        phase = (iters + 1) * abs(intra) if intra < 0 else 0
        instrs.append(
            StridedInstr(pc=0x100 + 8 * i, array=name, inter_stride=inter,
                         intra_stride=intra, reuse_period=period,
                         every=every, phase=phase,
                         is_store=draw(st.booleans()))
        )
    return RegularKernel(
        LaunchConfig(blocks, block_size), layout, instrs, iters=iters,
        sync_every=sync_every,
    )


@settings(max_examples=25, deadline=None)
@given(regular_kernels(), st.integers(0, 2**31))
def test_clone_matches_original_size_and_structure(kernel, seed):
    """For any affine kernel: same warp count, same π skeleton, and a
    transaction count within 10%."""
    profile = GmapProfiler().profile(kernel)
    original = kernel_warp_traces(kernel)
    clone = ProxyGenerator(profile, seed=seed).generate_warp_traces()

    assert len(clone) == len(original)
    orig_txns = sum(len(t.transactions) for t in original)
    clone_txns = sum(len(t.transactions) for t in clone)
    assert abs(clone_txns - orig_txns) <= max(4, 0.1 * orig_txns)

    # Single dominant π profile for divergence-free kernels: the clone's
    # instruction PC sequence equals the original's, warp for warp.
    assert profile.num_profiles == 1
    orig_pcs = [pc for pc, _ in original[0].instructions]
    for trace in clone:
        assert [pc for pc, _ in trace.instructions] == orig_pcs


@settings(max_examples=25, deadline=None)
@given(regular_kernels(), st.integers(0, 2**31))
def test_clone_addresses_confined_to_global_space(kernel, seed):
    from repro.gpu.memspace import MemorySpace, space_of

    profile = GmapProfiler().profile(kernel)
    clone = ProxyGenerator(profile, seed=seed).generate_warp_traces()
    for trace in clone:
        for pc, address, _, _ in trace.transactions:
            if pc == SYNC_PC:
                continue
            assert address >= 0
            assert space_of(address) is MemorySpace.GLOBAL


@settings(max_examples=15, deadline=None)
@given(regular_kernels(), st.integers(0, 2**31))
def test_generation_is_deterministic(kernel, seed):
    profile = GmapProfiler().profile(kernel)
    a = ProxyGenerator(profile, seed=seed).generate_warp_traces()
    b = ProxyGenerator(profile, seed=seed).generate_warp_traces()
    assert [t.transactions for t in a] == [t.transactions for t in b]


@settings(max_examples=15, deadline=None)
@given(regular_kernels(), st.sampled_from([2.0, 4.0, 8.0]))
def test_miniaturization_monotone(kernel, factor):
    """A larger reduction factor never yields a larger clone."""
    profile = GmapProfiler().profile(kernel)
    full = sum(
        len(t.transactions)
        for t in ProxyGenerator(profile, seed=1).generate_warp_traces()
    )
    small_profile = miniaturize_profile(profile, factor)
    small = sum(
        len(t.transactions)
        for t in ProxyGenerator(small_profile, seed=1).generate_warp_traces()
    )
    assert small <= full


@settings(max_examples=15, deadline=None)
@given(regular_kernels())
def test_profile_serialisation_round_trip(kernel):
    from repro.core.profile import GmapProfile

    profile = GmapProfiler().profile(kernel)
    assert GmapProfile.from_dict(profile.to_dict()).to_dict() == profile.to_dict()


@settings(max_examples=15, deadline=None)
@given(regular_kernels(), st.integers(0, 2**31))
def test_store_flags_preserved(kernel, seed):
    """PCs profiled as stores generate store transactions, and vice versa."""
    profile = GmapProfiler().profile(kernel)
    clone = ProxyGenerator(profile, seed=seed).generate_warp_traces()
    store_pcs = {
        pc for pc, stats in profile.instructions.items() if stats.is_store
    }
    for trace in clone:
        for pc, _, _, is_store in trace.transactions:
            if pc == SYNC_PC:
                continue
            assert bool(is_store) == (pc in store_pcs)
