"""Application-level profiling, cloning, and sequential simulation.

Ties the per-kernel G-MAP machinery into the multi-kernel application model
of paper section 2.2: each kernel gets its own statistical profile (π
profiles are a per-kernel notion), clones are generated per kernel, and the
simulation replays kernel launches *in order on one shared memory
hierarchy*, so inter-kernel data reuse (a consumer kernel hitting in the L2
on a producer kernel's output) survives cloning — base addresses tie the
kernels' instruction statistics to the same arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.core.generator import ProxyGenerator
from repro.core.profile import GmapProfile
from repro.core.profiler import GmapProfiler
from repro.gpu.application import Application
from repro.gpu.executor import (
    CoreAssignment,
    assigned_warp_traces,
    execute_kernel,
)
from repro.memsim.config import SimConfig
from repro.memsim.simulator import SimtSimulator
from repro.memsim.stats import SimResult


@dataclass
class ApplicationProfile:
    """One statistical profile per kernel launch, in launch order."""

    name: str
    kernel_profiles: List[GmapProfile] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.kernel_profiles)

    @property
    def total_transactions(self) -> int:
        return sum(p.total_transactions for p in self.kernel_profiles)

    def obfuscated(self, base_seed: int = 0xDEAD_BEEF) -> "ApplicationProfile":
        """Space-preserving obfuscation with *consistent* base remapping.

        All kernels are remapped in one pass
        (:func:`repro.core.profile.obfuscate_profiles`), so an array shared
        between producer and consumer kernels keeps one synthetic region in
        both — preserving inter-kernel reuse in the clone — and arrays
        private to different kernels land in disjoint regions.
        """
        from repro.core.profile import obfuscate_profiles

        return ApplicationProfile(
            name=self.name,
            kernel_profiles=obfuscate_profiles(self.kernel_profiles, base_seed),
        )

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "kernels": [p.to_dict() for p in self.kernel_profiles],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ApplicationProfile":
        return cls(
            name=data["name"],
            kernel_profiles=[
                GmapProfile.from_dict(k) for k in data["kernels"]
            ],
        )


def profile_application(
    app: Application,
    profiler: Optional[GmapProfiler] = None,
    original: Optional[Sequence[List[CoreAssignment]]] = None,
) -> ApplicationProfile:
    """Phase ① for every kernel launch of an application.

    ``original`` is :func:`execute_application`'s output for ``app``.
    Given it, a profiler that :attr:`~GmapProfiler.reads_executed_warps`
    reads each kernel's executed warps back out of those assignments
    (:func:`~repro.gpu.executor.assigned_warp_traces`) instead of running
    the front end a second time, as ``build_pipeline`` does for one
    kernel; the profiles are the same either way.
    """
    profiler = profiler or GmapProfiler()
    if original is not None and len(original) != len(app):
        raise ValueError(
            f"{len(original)} kernel assignments for the {len(app)} kernels "
            f"of {app.name!r}"
        )
    reuse = original is not None and profiler.reads_executed_warps
    return ApplicationProfile(
        name=app.name,
        kernel_profiles=[
            profiler.profile(
                kernel,
                warp_traces=(
                    assigned_warp_traces(original[index]) if reuse else None
                ),
            )
            for index, kernel in enumerate(app)
        ],
    )


def generate_application_proxy(
    profile: ApplicationProfile,
    num_cores: int,
    seed: int = 1234,
    scale_factor: float = 1.0,
    max_blocks_per_core: int = 8,
    stride_model: str = "iid",
) -> List[List[CoreAssignment]]:
    """Per-kernel proxy core assignments, in launch order.

    Kernel k's generator is seeded with ``seed + k`` so distinct kernels
    draw independent streams while the whole application stays
    reproducible.
    """
    assignments = []
    for index, kernel_profile in enumerate(profile.kernel_profiles):
        generation_profile = kernel_profile
        if scale_factor != 1.0:
            from repro.core.miniaturize import miniaturize_profile

            generation_profile = miniaturize_profile(kernel_profile, scale_factor)
        generator = ProxyGenerator(
            generation_profile, seed=seed + index, stride_model=stride_model
        )
        assignments.append(
            generator.generate(num_cores, max_blocks_per_core=max_blocks_per_core)
        )
    return assignments


def execute_application(
    app: Application, num_cores: int, max_blocks_per_core: int = 8
) -> List[List[CoreAssignment]]:
    """Front end for every kernel of the original application."""
    return [
        execute_kernel(kernel, num_cores, max_blocks_per_core)
        for kernel in app
    ]


@dataclass
class ApplicationResult:
    """Combined and per-kernel simulation results of one application run."""

    combined: SimResult
    per_kernel: List[SimResult]


def simulate_application(
    kernel_assignments: Sequence[List[CoreAssignment]],
    config: SimConfig,
) -> ApplicationResult:
    """Run kernel launches back-to-back on one shared memory hierarchy.

    Caches and DRAM state persist across launches (inter-kernel reuse);
    warp-queue state resets per launch, as real kernel boundaries drain the
    SMs.  Per-kernel results are deltas of the cumulative hierarchy
    counters.
    """
    simulator = SimtSimulator(config)
    hierarchy = simulator.hierarchy
    per_kernel: List[SimResult] = []
    total_requests = 0
    total_cycles = 0.0
    total_barriers = 0
    prev_l1 = hierarchy.l1_stats()
    prev_l2 = hierarchy.l2_stats().copy()
    prev_dram = hierarchy.dram_stats().copy()
    for assignments in kernel_assignments:
        run = simulator.run(assignments)
        l1_now = hierarchy.l1_stats()
        l2_now = hierarchy.l2_stats().copy()
        dram_now = hierarchy.dram_stats().copy()
        per_kernel.append(
            SimResult(
                l1=l1_now.diff(prev_l1),
                l2=l2_now.diff(prev_l2),
                dram=dram_now.diff(prev_dram),
                requests_issued=run.requests_issued,
                cycles=run.cycles,
                measured_p_self=run.measured_p_self,
                barriers_crossed=run.barriers_crossed,
            )
        )
        prev_l1, prev_l2, prev_dram = l1_now, l2_now, dram_now
        total_requests += run.requests_issued
        total_cycles += run.cycles
        total_barriers += run.barriers_crossed
    combined = SimResult(
        l1=hierarchy.l1_stats(),
        l2=hierarchy.l2_stats(),
        dram=hierarchy.dram_stats(),
        texture=hierarchy.texture_stats(),
        constant=hierarchy.constant_stats(),
        shared_accesses=hierarchy.shared_accesses,
        requests_issued=total_requests,
        cycles=total_cycles,
        barriers_crossed=total_barriers,
    )
    return ApplicationResult(combined=combined, per_kernel=per_kernel)
