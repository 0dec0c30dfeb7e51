"""Simulated SIMT GPU substrate (the paper's K40c, see DESIGN.md §2).

Public surface:

* :class:`~repro.simt.machine.GPUSpec` — static machine description.
* :class:`~repro.simt.machine.Machine` — cost accounting + fusion scopes.
* :class:`~repro.simt.counters.Counters` — hardware-style counters.
* :mod:`repro.simt.primitives` — the device kernels operators launch:
  the compaction record, segmented reduce, dedup and relabel (the
  paper's scan is the prefix sum inside ``graph.csr.row_lanes``).
* :mod:`repro.simt.calib` — frozen cost-model constants.
"""

from .counters import Counters, KernelRecord
from .machine import GPUSpec, Machine
from . import calib, primitives

__all__ = ["Counters", "KernelRecord", "GPUSpec", "Machine", "calib", "primitives"]
