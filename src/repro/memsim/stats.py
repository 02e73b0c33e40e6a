"""Statistics containers for the memory-system simulator.

Every metric the paper's evaluation reports lives here: L1/L2 miss rates
(Figures 6a-6e), prefetcher usefulness (6c/6d), and the DRAM metrics of
Figure 7 — row buffer locality (RBL), average memory-controller queue length
and average read/write latency.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List


@dataclass
class CacheStats:
    """Demand/prefetch access counters of one cache (or a sum of caches)."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0
    prefetch_issued: int = 0
    prefetch_fills: int = 0
    prefetch_hits: int = 0       # demand hits on prefetched lines
    mshr_merges: int = 0
    mshr_stalls: int = 0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    @property
    def prefetch_accuracy(self) -> float:
        """Fraction of prefetched lines that served a demand hit."""
        return (
            self.prefetch_hits / self.prefetch_fills if self.prefetch_fills else 0.0
        )

    _FIELDS = (
        "accesses", "hits", "misses", "evictions", "writebacks",
        "prefetch_issued", "prefetch_fills", "prefetch_hits",
        "mshr_merges", "mshr_stalls",
    )

    def merge(self, other: "CacheStats") -> None:
        """Accumulate another cache's counters (e.g. summing per-core L1s)."""
        for name in self._FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def copy(self) -> "CacheStats":
        return CacheStats(**{name: getattr(self, name) for name in self._FIELDS})

    def diff(self, earlier: "CacheStats") -> "CacheStats":
        """Counters accumulated since an ``earlier`` snapshot."""
        return CacheStats(**{
            name: getattr(self, name) - getattr(earlier, name)
            for name in self._FIELDS
        })

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in (
            "accesses", "hits", "misses", "evictions", "writebacks",
            "prefetch_issued", "prefetch_fills", "prefetch_hits",
            "mshr_merges", "mshr_stalls",
        )}


@dataclass
class DramStats:
    """Figure 7 metrics: RBL, queue length, read/write latency."""

    reads: int = 0
    writes: int = 0
    row_hits: int = 0
    row_empties: int = 0
    row_conflicts: int = 0
    read_latency_sum: float = 0.0
    write_latency_sum: float = 0.0
    queue_len_sum: float = 0.0
    queue_samples: int = 0

    @property
    def requests(self) -> int:
        return self.reads + self.writes

    @property
    def row_buffer_locality(self) -> float:
        """RBL: fraction of requests served from an open row."""
        return self.row_hits / self.requests if self.requests else 0.0

    @property
    def avg_queue_length(self) -> float:
        return self.queue_len_sum / self.queue_samples if self.queue_samples else 0.0

    @property
    def avg_read_latency(self) -> float:
        return self.read_latency_sum / self.reads if self.reads else 0.0

    @property
    def avg_write_latency(self) -> float:
        return self.write_latency_sum / self.writes if self.writes else 0.0

    @property
    def avg_rw_latency(self) -> float:
        total = self.reads + self.writes
        if not total:
            return 0.0
        return (self.read_latency_sum + self.write_latency_sum) / total

    def achieved_bandwidth(self, txn_bytes: int, elapsed_cycles: float) -> float:
        """Mean delivered bytes per core cycle over ``elapsed_cycles``."""
        if elapsed_cycles <= 0:
            return 0.0
        return self.requests * txn_bytes / elapsed_cycles

    _FIELDS = (
        "reads", "writes", "row_hits", "row_empties", "row_conflicts",
        "read_latency_sum", "write_latency_sum", "queue_len_sum",
        "queue_samples",
    )

    def copy(self) -> "DramStats":
        return DramStats(**{name: getattr(self, name) for name in self._FIELDS})

    def diff(self, earlier: "DramStats") -> "DramStats":
        """Counters accumulated since an ``earlier`` snapshot."""
        return DramStats(**{
            name: getattr(self, name) - getattr(earlier, name)
            for name in self._FIELDS
        })

    def to_dict(self) -> dict:
        return {
            "reads": self.reads,
            "writes": self.writes,
            "row_hits": self.row_hits,
            "row_empties": self.row_empties,
            "row_conflicts": self.row_conflicts,
            "row_buffer_locality": self.row_buffer_locality,
            "avg_queue_length": self.avg_queue_length,
            "avg_read_latency": self.avg_read_latency,
            "avg_write_latency": self.avg_write_latency,
        }


@dataclass
class SimResult:
    """Outcome of one simulation run."""

    l1: CacheStats = field(default_factory=CacheStats)
    l2: CacheStats = field(default_factory=CacheStats)
    dram: DramStats = field(default_factory=DramStats)
    texture: CacheStats = field(default_factory=CacheStats)
    constant: CacheStats = field(default_factory=CacheStats)
    shared_accesses: int = 0
    requests_issued: int = 0
    cycles: float = 0.0
    measured_p_self: float = 0.0
    barriers_crossed: int = 0
    per_core_l1: List[CacheStats] = field(default_factory=list)

    @property
    def l1_miss_rate(self) -> float:
        return self.l1.miss_rate

    @property
    def l2_miss_rate(self) -> float:
        return self.l2.miss_rate

    def metric(self, name: str) -> float:
        """Look up a metric by the names the validation harness sweeps."""
        table = {
            "l1_miss_rate": self.l1.miss_rate,
            "l2_miss_rate": self.l2.miss_rate,
            "texture_miss_rate": self.texture.miss_rate,
            "constant_miss_rate": self.constant.miss_rate,
            "l1_prefetch_accuracy": self.l1.prefetch_accuracy,
            "l2_prefetch_accuracy": self.l2.prefetch_accuracy,
            "dram_rbl": self.dram.row_buffer_locality,
            "dram_queue_length": self.dram.avg_queue_length,
            "dram_rw_latency": self.dram.avg_rw_latency,
            "dram_read_latency": self.dram.avg_read_latency,
            "dram_write_latency": self.dram.avg_write_latency,
            "cycles": self.cycles,
        }
        try:
            return table[name]
        except KeyError:
            raise ValueError(
                f"unknown metric {name!r}; known: {sorted(table)}"
            ) from None

    def copy(self) -> "SimResult":
        """Deep copy: no stats block is shared with this result."""
        return SimResult(
            l1=self.l1.copy(),
            l2=self.l2.copy(),
            dram=self.dram.copy(),
            texture=self.texture.copy(),
            constant=self.constant.copy(),
            shared_accesses=self.shared_accesses,
            requests_issued=self.requests_issued,
            cycles=self.cycles,
            measured_p_self=self.measured_p_self,
            barriers_crossed=self.barriers_crossed,
            per_core_l1=[stats.copy() for stats in self.per_core_l1],
        )

    def to_dict(self) -> dict:
        return {
            "l1": self.l1.to_dict(),
            "l2": self.l2.to_dict(),
            "dram": self.dram.to_dict(),
            "requests_issued": self.requests_issued,
            "cycles": self.cycles,
            "measured_p_self": self.measured_p_self,
        }
