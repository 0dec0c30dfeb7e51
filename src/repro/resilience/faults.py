"""Deterministic fault injection for the BSP execution model.

Gunrock's bulk-synchronous structure gives every primitive a natural
recovery boundary — the super-step barrier — so faults are modeled as
events that fire *at* well-defined points of the simulated execution:

* ``transient-kernel`` — a kernel launch aborts before running (caught at
  the enactor's operator wrappers; recovered by replay or rollback),
* ``corruption`` — a detected single-bit flip in a registered problem
  array (ECC-style detection; recovered by checkpoint rollback),
* ``straggler`` — a kernel (or one device of a multi-GPU step) runs
  ``magnitude``x slower; no recovery needed, only a time penalty,
* ``exchange-timeout`` — a frontier exchange over the interconnect times
  out (recovered by retry with exponential backoff),
* ``device-loss`` — a simulated device dies mid-step (recovered by
  redistributing its partition to the survivors).

A :class:`FaultPlan` is a *schedule*: an ordered list of
:class:`FaultSpec` entries, optionally generated pseudo-randomly from a
seed.  The same seed always yields a byte-identical schedule
(:meth:`FaultPlan.to_bytes`), which is what makes chaos runs replayable.
A :class:`FaultInjector` is the runtime object the machine layers poll;
each spec fires ``count`` times and is then spent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, List, Optional, Sequence

import numpy as np


class FaultKind(str, Enum):
    """The injectable fault taxonomy."""

    DEVICE_LOSS = "device-loss"
    EXCHANGE_TIMEOUT = "exchange-timeout"
    TRANSIENT_KERNEL = "transient-kernel"
    CORRUPTION = "corruption"
    STRAGGLER = "straggler"


#: fault kinds that require a multi-GPU run to be observable
MULTI_KINDS = frozenset({FaultKind.DEVICE_LOSS, FaultKind.EXCHANGE_TIMEOUT})
#: fault kinds observable on a single simulated device
SINGLE_KINDS = frozenset({FaultKind.TRANSIENT_KERNEL, FaultKind.CORRUPTION,
                          FaultKind.STRAGGLER})


def parse_kinds(text: str) -> List[FaultKind]:
    """Parse a CLI-style comma list (``device-loss,straggler``)."""
    kinds = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            kinds.append(FaultKind(token))
        except ValueError:
            valid = ", ".join(k.value for k in FaultKind)
            raise ValueError(
                f"unknown fault kind {token!r} (valid: {valid})") from None
    return kinds


# -- fault exceptions ---------------------------------------------------------


class FaultError(RuntimeError):
    """An injected fault, carrying where and when it fired."""

    def __init__(self, kind: FaultKind, *, step: int, site: str = "?",
                 device: Optional[int] = None, detail: str = ""):
        self.kind = kind
        self.step = step
        self.site = site
        self.device = device
        self.detail = detail
        where = f"{site}@step {step}"
        if device is not None:
            where += f" device {device}"
        msg = f"injected {kind.value} fault at {where}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class TransientKernelFault(FaultError):
    """A kernel aborted before execution; safe to retry or replay."""

    def __init__(self, **kw):
        super().__init__(FaultKind.TRANSIENT_KERNEL, **kw)


class DataCorruptionFault(FaultError):
    """A detected bit flip in a registered problem array."""

    def __init__(self, **kw):
        super().__init__(FaultKind.CORRUPTION, **kw)


class DeviceLost(FaultError):
    """A simulated device died; its partition must be redistributed."""

    def __init__(self, **kw):
        super().__init__(FaultKind.DEVICE_LOSS, **kw)


class ExchangeTimeout(FaultError):
    """A frontier exchange exhausted its retry budget."""

    def __init__(self, **kw):
        super().__init__(FaultKind.EXCHANGE_TIMEOUT, **kw)


# -- schedule -----------------------------------------------------------------


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault.

    ``site`` selects where the fault can fire: an enactor operator name
    (``advance`` / ``filter`` / ``compute``), ``kernel`` (any operator or
    machine launch), ``exchange`` (the interconnect), or ``*``.  ``step``
    is the super-step (enactor iteration, multi-GPU depth, or exchange
    ordinal) at which it fires; ``device`` restricts machine-level faults
    to one simulated device; ``count`` is the number of consecutive
    firings (used by exchange timeouts); ``magnitude`` is the straggler
    slowdown factor or the timeout window in simulated ms.
    """

    kind: FaultKind
    step: int
    site: str = "kernel"
    device: Optional[int] = None
    count: int = 1
    magnitude: float = 8.0

    def canonical(self) -> str:
        dev = "*" if self.device is None else str(self.device)
        return (f"{self.kind.value}@{self.step}:{self.site}:dev={dev}"
                f":count={self.count}:mag={self.magnitude:g}")


@dataclass
class FaultPlan:
    """A deterministic schedule of faults (optionally seed-generated)."""

    specs: List[FaultSpec] = field(default_factory=list)
    seed: int = 0

    @classmethod
    def random(cls, seed: int, kinds: Iterable[FaultKind], *, steps: int,
               devices: int = 1, per_kind: int = 1) -> "FaultPlan":
        """Generate a schedule from a seed: ``per_kind`` faults of each
        requested kind at rng-chosen super-steps in ``[1, steps]``.

        The same ``(seed, kinds, steps, devices, per_kind)`` always
        produces the same schedule, byte for byte.
        """
        rng = np.random.default_rng(seed)
        horizon = max(1, int(steps))
        specs: List[FaultSpec] = []
        # canonical kind order keeps generation independent of caller order
        for kind in sorted(set(kinds), key=lambda k: k.value):
            for _ in range(per_kind):
                step = int(rng.integers(1, horizon + 1))
                if kind is FaultKind.DEVICE_LOSS:
                    device = int(rng.integers(0, max(1, devices)))
                    specs.append(FaultSpec(kind, step, site="kernel",
                                           device=device))
                elif kind is FaultKind.EXCHANGE_TIMEOUT:
                    specs.append(FaultSpec(kind, step, site="exchange",
                                           count=2, magnitude=5.0))
                elif kind is FaultKind.TRANSIENT_KERNEL:
                    specs.append(FaultSpec(kind, step, site="advance"))
                elif kind is FaultKind.CORRUPTION:
                    specs.append(FaultSpec(kind, step, site="kernel"))
                else:  # straggler
                    magnitude = float(rng.integers(4, 17))
                    specs.append(FaultSpec(kind, step, site="kernel",
                                           magnitude=magnitude))
        return cls(specs=specs, seed=seed)

    def to_bytes(self) -> bytes:
        """Canonical byte serialization (the determinism contract)."""
        return "\n".join(s.canonical() for s in self.specs).encode("ascii")

    def kinds(self) -> List[FaultKind]:
        return sorted({s.kind for s in self.specs}, key=lambda k: k.value)

    def __len__(self) -> int:
        return len(self.specs)


# -- runtime injector ---------------------------------------------------------


@dataclass(frozen=True)
class FaultEvent:
    """One fault firing, as observed at runtime."""

    kind: FaultKind
    step: int
    site: str
    device: Optional[int]


#: sentinel garbage XOR mask for the corruption fault: bit 40 of the
#: 64-bit cell, high enough to wreck both int64 labels and float64 ranks
_FLIP_BIT = np.uint64(1) << np.uint64(40)


class FaultInjector:
    """Runtime fault firing against a :class:`FaultPlan`.

    The machine layers poll the injector at their fault points; a spec
    whose (kind, site, step, device) matches fires and its remaining
    ``count`` decrements.  All firing is deterministic given the plan.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._remaining = [spec.count for spec in plan.specs]
        self.events: List[FaultEvent] = []
        self._rng = np.random.default_rng(plan.seed)

    # -- matching ------------------------------------------------------------

    @staticmethod
    def _site_match(spec_site: str, site: str) -> bool:
        if spec_site in ("*", site):
            return True
        return spec_site == "kernel" and site in ("advance", "filter",
                                                  "compute")

    def poll(self, *, site: str, step: int,
             kinds: Sequence[FaultKind],
             device: Optional[int] = None) -> Optional[FaultSpec]:
        """Fire (and consume) the first matching scheduled fault, if any."""
        for i, spec in enumerate(self.plan.specs):
            if self._remaining[i] <= 0 or spec.kind not in kinds:
                continue
            if spec.step != step or not self._site_match(spec.site, site):
                continue
            if spec.device is not None and device is not None \
                    and spec.device != device:
                continue
            self._remaining[i] -= 1
            self.events.append(FaultEvent(spec.kind, step, site, device))
            return spec
        return None

    @property
    def injected(self) -> int:
        """Total fault firings so far."""
        return len(self.events)

    def injected_by_kind(self) -> dict:
        out: dict = {}
        for e in self.events:
            out[e.kind.value] = out.get(e.kind.value, 0) + 1
        return out

    def exhausted(self) -> bool:
        """True when every scheduled firing has happened."""
        return all(r <= 0 for r in self._remaining)

    # -- machine-level hook (duck-typed from simt.Machine.launch) -------------

    def on_launch(self, step: int, device: int, cycles: float) -> float:
        """Called by the simulated machine at each kernel record point.

        Returns the (possibly straggler-inflated) cycle cost, or raises
        :class:`DeviceLost`.
        """
        spec = self.poll(site="kernel", step=step, device=device,
                         kinds=(FaultKind.DEVICE_LOSS, FaultKind.STRAGGLER))
        if spec is None:
            return cycles
        if spec.kind is FaultKind.DEVICE_LOSS:
            raise DeviceLost(step=step, site="kernel", device=device)
        return cycles * spec.magnitude

    # -- enactor-level hook --------------------------------------------------

    def on_kernel(self, site: str, step: int, problem) -> None:
        """Called by the enactor's operator wrappers before each kernel.

        Raises :class:`TransientKernelFault` or (after actually flipping a
        bit in a registered array) :class:`DataCorruptionFault`.
        """
        spec = self.poll(site=site, step=step,
                         kinds=(FaultKind.TRANSIENT_KERNEL,
                                FaultKind.CORRUPTION))
        if spec is None:
            return
        if spec.kind is FaultKind.TRANSIENT_KERNEL:
            raise TransientKernelFault(step=step, site=site)
        detail = self._corrupt(problem)
        raise DataCorruptionFault(step=step, site=site, detail=detail)

    def _corrupt(self, problem) -> str:
        """Flip one bit of one cell of one registered array (ECC event)."""
        arrays = {name: arr for name, arr
                  in sorted(problem.registered_arrays().items())
                  if len(arr)}
        if not arrays:
            return "no registered arrays to corrupt"
        name = list(arrays)[int(self._rng.integers(0, len(arrays)))]
        arr = arrays[name]
        idx = int(self._rng.integers(0, len(arr)))
        if arr.dtype == bool:
            arr[idx] = not arr[idx]
        elif arr.dtype.itemsize == 8:
            cell = arr[idx:idx + 1].view(np.uint64)
            cell[...] = cell ^ _FLIP_BIT
        else:
            view = arr[idx:idx + 1].view(np.uint8)
            view[0] = view[0] ^ np.uint8(1 << 5)
        return f"bit flip in '{name}'[{idx}]"


def as_injector(faults) -> Optional[FaultInjector]:
    """Coerce ``None`` | ``FaultPlan`` | spec list | ``FaultInjector``."""
    if faults is None or isinstance(faults, FaultInjector):
        return faults
    if isinstance(faults, FaultPlan):
        return FaultInjector(faults)
    if isinstance(faults, (list, tuple)):
        return FaultInjector(FaultPlan(specs=list(faults)))
    raise TypeError(f"cannot build a fault injector from {type(faults).__name__}")
