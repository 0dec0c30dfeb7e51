"""The simulated SIMT machine.

This module is the substitution for the paper's NVIDIA K40c (see
DESIGN.md §2).  A :class:`Machine` does not execute instructions; NumPy
executes operator semantics.  The machine's job is *cost accounting*: each
operator hands it the per-CTA (or per-element) work distribution it would
have placed on the GPU, and the machine converts that into cycles using a
makespan model over SMX units, then into simulated milliseconds.

Makespan model
--------------
A kernel whose cooperative thread arrays (CTAs) have costs ``c_1..c_k``
runs on ``num_sm`` SMX units under greedy hardware scheduling.  Its
duration is bounded below by both the critical CTA and the average load::

    T = max(max_i c_i, sum_i c_i / num_sm) + launch_overhead

which is the classical 2-approximation bound for list scheduling — tight
enough to expose every load-imbalance effect the paper discusses (a single
half-million-degree "bitcoin" hub serializing a thread-mapped advance, for
example) while remaining a vectorized O(k) computation.

Kernel fusion
-------------
``machine.fused("name")`` opens a fusion scope: every logical operation
recorded inside it contributes cycles to a *single* kernel launch (one
launch overhead, one dispatch overhead).  Gunrock operators fuse their
functor computation into advance/filter launches exactly as Section 4.3
describes; the GAS comparator (:mod:`repro.frameworks.mapgraph`) does not,
and pays per-stage launch and memory-materialization costs.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np

from ..obs.spans import notify_kernel
from . import calib
from .counters import Counters


@dataclass(frozen=True)
class GPUSpec:
    """Static description of the simulated GPU (defaults: K40c)."""

    name: str = "SimK40c"
    num_sm: int = 15
    cores_per_sm: int = 192
    warp_size: int = 32
    cta_size: int = 256
    clock_ghz: float = calib.GPU_CLOCK_GHZ
    launch_overhead_cycles: float = calib.KERNEL_LAUNCH_CYCLES

    @property
    def lanes(self) -> int:
        """Total scalar lanes across the chip."""
        return self.num_sm * self.cores_per_sm

    @property
    def warps_per_cta(self) -> int:
        return self.cta_size // self.warp_size

    def cycles_to_ms(self, cycles: float) -> float:
        return cycles / (self.clock_ghz * 1e9) * 1e3


@dataclass
class _FusionScope:
    name: str
    cycles: float = 0.0
    items: int = 0


@dataclass
class Machine:
    """A simulated GPU: a spec, a counter set, and a fusion stack."""

    spec: GPUSpec = field(default_factory=GPUSpec)
    counters: Counters = field(default_factory=Counters)
    #: when True, kernels skip the generic framework dispatch overhead —
    #: used by the "hardwired" comparators of Section 6.
    hardwired: bool = False
    #: position of this device in a multi-GPU node (0 when standalone)
    device_index: int = 0
    #: optional :class:`repro.resilience.faults.FaultInjector`: consulted
    #: at every iteration-tagged kernel record point, it may inflate the
    #: cycle cost (straggler fault) or raise ``DeviceLost``.  Duck-typed
    #: so the machine layer stays import-free of the resilience package.
    injector: Optional[object] = None
    _fusion_stack: list = field(default_factory=list, repr=False)

    # -- core cost entry points --------------------------------------------

    def makespan_cycles(self, cta_costs: np.ndarray) -> float:
        """Makespan of a CTA cost vector over the chip's SMX units."""
        if len(cta_costs) == 0:
            return 0.0
        total = float(np.sum(cta_costs))
        peak = float(np.max(cta_costs))
        return max(peak, total / self.spec.num_sm)

    def launch(self, name: str, cta_costs: Optional[np.ndarray] = None, *,
               body_cycles: float = 0.0, items: int = 0,
               iteration: int = -1) -> float:
        """Record one kernel launch (or fold it into an open fusion scope).

        ``cta_costs`` is the per-CTA cycle vector computed by a load-balance
        strategy; ``body_cycles`` is an already-reduced cycle count for
        kernels whose work is uniform.  Returns the cycles charged.
        """
        cycles = body_cycles
        if cta_costs is not None:
            cycles += self.makespan_cycles(np.asarray(cta_costs, dtype=np.float64))
        if self._fusion_stack:
            scope = self._fusion_stack[-1]
            scope.cycles += cycles
            scope.items += items
            return cycles
        cycles += self._launch_overhead()
        cycles = self._inject(cycles, iteration)
        self.counters.record_kernel(name, cycles, items, iteration)
        notify_kernel(self, name, cycles, items, iteration)
        return cycles

    def _inject(self, cycles: float, iteration: int) -> float:
        """Fault hook: straggler inflation or device loss at this launch."""
        if self.injector is None or iteration < 0:
            return cycles
        return self.injector.on_launch(iteration, self.device_index, cycles)

    def _launch_overhead(self) -> float:
        overhead = self.spec.launch_overhead_cycles
        if not self.hardwired:
            overhead += calib.FRAMEWORK_DISPATCH_CYCLES
        return overhead

    @contextmanager
    def fused(self, name: str, iteration: int = -1) -> Iterator[None]:
        """Fuse all launches recorded in this scope into one kernel."""
        scope = _FusionScope(name)
        self._fusion_stack.append(scope)
        try:
            yield
        finally:
            self._fusion_stack.pop()
            if self._fusion_stack:
                outer = self._fusion_stack[-1]
                outer.cycles += scope.cycles
                outer.items += scope.items
            else:
                cycles = scope.cycles + self._launch_overhead()
                cycles = self._inject(cycles, iteration)
                self.counters.record_kernel(name, cycles, scope.items, iteration)
                notify_kernel(self, name, cycles, scope.items, iteration)

    def map_kernel(self, name: str, n_items: int, per_item_cycles: float,
                   *, items: Optional[int] = None, iteration: int = -1) -> float:
        """Launch a regular elementwise ("map") kernel over ``n_items``."""
        if n_items <= 0:
            body = 0.0
        else:
            # n_items items spread across the chip's lanes; each lane strip
            # costs per_item_cycles.
            strips = -(-n_items // self.spec.lanes)
            peak = strips * per_item_cycles
            avg = n_items * per_item_cycles / self.spec.lanes
            body = max(peak, avg)
        return self.launch(name, body_cycles=body,
                           items=n_items if items is None else items,
                           iteration=iteration)

    def stall_ms(self, name: str, ms: float, iteration: int = -1) -> None:
        """Charge an idle stall (retry backoff, timeout window) in
        simulated milliseconds; no launch or dispatch overhead applies."""
        if ms <= 0:
            return
        cycles = ms * self.spec.clock_ghz * 1e9 * 1e-3
        self.counters.record_kernel(name, cycles, 0, iteration)
        notify_kernel(self, name, cycles, 0, iteration)

    # -- reporting ----------------------------------------------------------

    def elapsed_ms(self) -> float:
        """Simulated milliseconds accumulated so far."""
        return self.spec.cycles_to_ms(self.counters.cycles)

    def reset(self) -> None:
        self.counters.reset()
        self._fusion_stack.clear()
