"""Hardware-style performance counters for the simulated machine.

A :class:`Counters` object accumulates everything the cost model needs to
report: cycle totals, kernel launches, per-kernel breakdowns, edges and
vertices touched, atomic traffic, and scan/compact primitive invocations.
Counters are plain data — they never influence results, only reporting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple


@dataclass
class KernelRecord:
    """One simulated kernel launch."""

    name: str
    cycles: float
    items: int
    #: optional tag, e.g. the enactor iteration that issued the launch
    iteration: int = -1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"KernelRecord({self.name!r}, cycles={self.cycles:.0f}, items={self.items})"


@dataclass
class Counters:
    """Accumulated statistics for one simulated run."""

    cycles: float = 0.0
    kernel_launches: int = 0
    edges_visited: int = 0
    vertices_processed: int = 0
    atomics_issued: int = 0
    atomic_conflicts: int = 0
    compact_elements: int = 0
    frontier_peak: int = 0
    iterations: int = 0
    bytes_moved: float = 0.0
    kernels: List[KernelRecord] = field(default_factory=list)

    # -- recording ---------------------------------------------------------

    def record_kernel(self, name: str, cycles: float, items: int, iteration: int = -1) -> None:
        self.cycles += cycles
        self.kernel_launches += 1
        self.kernels.append(KernelRecord(name, cycles, items, iteration))

    def record_edges(self, n: int) -> None:
        self.edges_visited += int(n)

    def record_vertices(self, n: int) -> None:
        self.vertices_processed += int(n)

    def record_atomics(self, issued: int, conflicts: int = 0) -> None:
        self.atomics_issued += int(issued)
        self.atomic_conflicts += int(conflicts)

    def record_frontier(self, size: int) -> None:
        if size > self.frontier_peak:
            self.frontier_peak = int(size)

    def record_bytes(self, n: float) -> None:
        self.bytes_moved += float(n)

    # -- combination and inspection ---------------------------------------

    def merge(self, other: "Counters") -> None:
        """Fold ``other`` into this counter set (kernel list included)."""
        self.cycles += other.cycles
        self.kernel_launches += other.kernel_launches
        self.edges_visited += other.edges_visited
        self.vertices_processed += other.vertices_processed
        self.atomics_issued += other.atomics_issued
        self.atomic_conflicts += other.atomic_conflicts
        self.compact_elements += other.compact_elements
        self.frontier_peak = max(self.frontier_peak, other.frontier_peak)
        self.iterations += other.iterations
        self.bytes_moved += other.bytes_moved
        self.kernels.extend(other.kernels)

    def reset(self) -> None:
        fresh = Counters()
        for name in self.__dataclass_fields__:
            setattr(self, name, getattr(fresh, name))

    def kernel_breakdown(self) -> Dict[str, Tuple[int, float]]:
        """Return ``{kernel name: (launch count, total cycles)}``."""
        out: Dict[str, Tuple[int, float]] = {}
        for rec in self.kernels:
            count, cyc = out.get(rec.name, (0, 0.0))
            out[rec.name] = (count + 1, cyc + rec.cycles)
        return out

    def as_dict(self) -> Dict[str, float]:
        """Scalar summary (kernel list omitted) for logging and tables."""
        return {
            "cycles": self.cycles,
            "kernel_launches": self.kernel_launches,
            "edges_visited": self.edges_visited,
            "vertices_processed": self.vertices_processed,
            "atomics_issued": self.atomics_issued,
            "atomic_conflicts": self.atomic_conflicts,
            "compact_elements": self.compact_elements,
            "frontier_peak": self.frontier_peak,
            "iterations": self.iterations,
            "bytes_moved": self.bytes_moved,
        }
