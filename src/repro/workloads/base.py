"""Kernel-model framework for the synthetic GPGPU workload suite.

A :class:`KernelModel` stands in for a real CUDA/OpenCL kernel: it fixes the
launch geometry (grid and block dimensions, kept verbatim by G-MAP proxies)
and emits each thread's dynamic memory access stream.  The profiler, executor
and validation harness all consume kernels only through this interface, so
the suite in :mod:`repro.workloads.suite` is freely extensible.

Most of the paper's 18 benchmarks are *regular*: every static memory
instruction walks an affine function of the thread index and the loop
iteration (section 4.2/4.3).  :class:`RegularKernel` captures that family
declaratively via :class:`StridedInstr`; irregular kernels (hotspot, BFS,
AES) subclass :class:`KernelModel` directly.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.gpu import memspace
from repro.gpu.hierarchy import LaunchConfig
from repro.gpu.instructions import AccessTuple, pack, sync_marker

if TYPE_CHECKING:
    import numpy as np

#: Alignment of array allocations, matching a GDDR row-ish granularity so
#: distinct arrays never share cache lines.
_REGION_ALIGN = 4096


class Layout:
    """Allocates disjoint, aligned base addresses for a kernel's arrays.

    Real kernels receive device pointers from ``cudaMalloc`` (and
    ``__shared__`` / ``__constant__`` / texture bindings); models receive
    them from here.  Allocation order is deterministic, so a kernel model
    always produces the same addresses.  ``space`` places the array in one
    of the GPU memory-space windows (see :mod:`repro.gpu.memspace`).
    """

    def __init__(self, start: int = memspace.GLOBAL_BASE) -> None:
        self._start = start
        self._next: Dict[memspace.MemorySpace, int] = {
            memspace.MemorySpace.GLOBAL: start,
            memspace.MemorySpace.SHARED: memspace.SHARED_BASE,
            memspace.MemorySpace.TEXTURE: memspace.TEXTURE_BASE,
            memspace.MemorySpace.CONSTANT: memspace.CONSTANT_BASE,
        }
        self._regions: Dict[str, Tuple[int, int]] = {}

    def alloc(self, name: str, size_bytes: int, space: str = "global") -> int:
        """Reserve ``size_bytes`` for array ``name``; returns its base."""
        if name in self._regions:
            raise ValueError(f"array {name!r} allocated twice")
        if size_bytes <= 0:
            raise ValueError(f"array {name!r} size must be positive")
        mem_space = memspace.MemorySpace(space)
        base = self._next[mem_space]
        padded = -(-size_bytes // _REGION_ALIGN) * _REGION_ALIGN
        self._next[mem_space] = base + padded
        self._regions[name] = (base, size_bytes)
        return base

    def base(self, name: str) -> int:
        return self._regions[name][0]

    def region(self, name: str) -> Tuple[int, int]:
        """``(base, size)`` of a named array."""
        return self._regions[name]

    @property
    def footprint(self) -> int:
        """Global-space bytes spanned (including padding)."""
        return self._next[memspace.MemorySpace.GLOBAL] - self._start


class KernelModel(ABC):
    """A synthetic GPU kernel: launch geometry + per-thread access streams."""

    #: Short benchmark name (matches the paper's naming, e.g. "kmeans").
    name: str = "kernel"
    #: Originating suite: "rodinia", "sdk" or "ispass".
    suite: str = "synthetic"

    def __init__(self, launch: LaunchConfig) -> None:
        self.launch = launch

    @abstractmethod
    def thread_program(self, tid: int) -> Iterator[AccessTuple]:
        """Yield the dynamic memory accesses of global thread ``tid``.

        The order of the yielded tuples is the thread's dynamic memory
        execution order — exactly what a π profile summarises.
        """

    def trace_thread(self, tid: int) -> List[AccessTuple]:
        """Materialised per-thread trace."""
        return list(self.thread_program(tid))

    def thread_array(self) -> Optional[np.ndarray]:
        """Every thread's program as one ``(threads, records, 4)`` int64
        array, or ``None`` when the kernel has no such form.

        Row ``tid`` equals :meth:`trace_thread` record for record.  Only
        kernels whose threads all run the same affine program have one
        (:class:`RegularKernel`); it needs NumPy, so only the ``numpy``
        front end asks for it.
        """
        return None

    def static_pcs(self) -> List[int]:
        """Distinct static instruction PCs, discovered from thread 0.

        Subclasses with divergent paths whose extra PCs never execute on
        thread 0 should override this.
        """
        seen = dict.fromkeys(pc for pc, *_ in self.thread_program(0))
        return list(seen)

    @property
    def total_threads(self) -> int:
        return self.launch.total_threads

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} {self.name!r} "
            f"grid={self.launch.grid_dim} block={self.launch.block_dim}>"
        )


@dataclass(frozen=True)
class StridedInstr:
    """One affine static memory instruction of a :class:`RegularKernel`.

    Per iteration ``j`` of the kernel's main loop, thread ``tid`` accesses::

        array_base + tid*inter_stride + (j % reuse_period)*intra_stride + phase

    ``reuse_period`` controls temporal locality: the address pattern wraps
    every ``reuse_period`` iterations, so a small period yields the paper's
    "high reuse" class and ``reuse_period >= iters`` yields "low".
    ``every`` gates execution to iterations where ``j % every == 0``, which
    sets the instruction's relative dynamic frequency (Table 1's "%Mem Freq").
    """

    pc: int
    array: str
    inter_stride: int
    intra_stride: int = 0
    reuse_period: int = 1 << 30
    every: int = 1
    phase: int = 0
    size: int = 4
    is_store: bool = False

    def __post_init__(self) -> None:
        if self.every < 1:
            raise ValueError(f"every must be >= 1, got {self.every}")
        if self.reuse_period < 1:
            raise ValueError(f"reuse_period must be >= 1, got {self.reuse_period}")

    def address(self, base: int, tid: int, iteration: int) -> int:
        return (
            base
            + tid * self.inter_stride
            + (iteration % self.reuse_period) * self.intra_stride
            + self.phase
        )


class RegularKernel(KernelModel):
    """Declarative affine kernel: a loop over :class:`StridedInstr` entries.

    ``divergent_fraction`` threads (taken as ``tid % divergent_modulo == 0``)
    additionally execute ``divergent_instrs``, creating a second dominant
    dynamic memory execution profile as in paper Figure 3b.
    """

    def __init__(
        self,
        launch: LaunchConfig,
        layout: Layout,
        instrs: Sequence[StridedInstr],
        iters: int,
        divergent_instrs: Sequence[StridedInstr] = (),
        divergent_modulo: int = 0,
        sync_every: int = 0,
    ) -> None:
        super().__init__(launch)
        if iters < 1:
            raise ValueError(f"iters must be >= 1, got {iters}")
        if not instrs:
            raise ValueError("a RegularKernel needs at least one instruction")
        if divergent_instrs and divergent_modulo < 2:
            raise ValueError("divergent_modulo must be >= 2 when divergent_instrs set")
        if sync_every < 0:
            raise ValueError(f"sync_every must be >= 0, got {sync_every}")
        self.layout = layout
        self.instrs = list(instrs)
        self.divergent_instrs = list(divergent_instrs)
        self.divergent_modulo = divergent_modulo
        self.iters = iters
        self.sync_every = sync_every
        self._bases = {i.array: layout.base(i.array) for i in self.instrs}
        self._bases.update(
            {i.array: layout.base(i.array) for i in self.divergent_instrs}
        )

    def thread_program(self, tid: int) -> Iterator[AccessTuple]:
        bases = self._bases
        divergent = bool(
            self.divergent_instrs
            and self.divergent_modulo
            and tid % self.divergent_modulo == 0
        )
        for j in range(self.iters):
            for instr in self.instrs:
                if j % instr.every == 0:
                    yield pack(
                        instr.pc,
                        instr.address(bases[instr.array], tid, j),
                        instr.size,
                        instr.is_store,
                    )
            if divergent:
                for instr in self.divergent_instrs:
                    if j % instr.every == 0:
                        yield pack(
                            instr.pc,
                            instr.address(bases[instr.array], tid, j),
                            instr.size,
                            instr.is_store,
                        )
            if self.sync_every and (j + 1) % self.sync_every == 0:
                yield sync_marker()  # __syncthreads() at the iteration end

    def thread_array(self) -> Optional[np.ndarray]:
        """The array form of :meth:`thread_program` (``None`` when
        ``divergent_instrs`` make threads differ in length)."""
        if type(self).thread_program is not RegularKernel.thread_program:
            return None  # a subclass's own program has no closed form here
        from repro.core.vectorized import regular_thread_array

        return regular_thread_array(self)

    def static_pcs(self) -> List[int]:
        pcs = [i.pc for i in self.instrs] + [i.pc for i in self.divergent_instrs]
        return list(dict.fromkeys(pcs))


@dataclass
class WorkloadScale:
    """Size knobs for a workload instance.

    ``blocks`` and ``iters_factor`` multiply the model's native geometry and
    loop count.  The named presets keep test suites fast while letting the
    benchmark harness approach paper-scale streams.
    """

    blocks: int
    iters_factor: float = 1.0

    PRESETS = ("tiny", "small", "default", "large")

    @classmethod
    def preset(cls, name: str) -> "WorkloadScale":
        table = {
            "tiny": cls(blocks=2, iters_factor=0.25),
            "small": cls(blocks=4, iters_factor=0.5),
            "default": cls(blocks=8, iters_factor=1.0),
            "large": cls(blocks=16, iters_factor=2.0),
        }
        try:
            return table[name]
        except KeyError:
            raise ValueError(
                f"unknown scale {name!r}; expected one of {cls.PRESETS}"
            ) from None

    def iters(self, native: int) -> int:
        return max(1, int(native * self.iters_factor))
