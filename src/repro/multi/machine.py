"""Multi-GPU machine: k simulated devices + an interconnect cost model.

Devices execute super-steps concurrently (per-step time is the max over
devices), and frontier exchanges pay PCIe-class transfer costs: a fixed
per-message latency plus bytes / bandwidth.  This is the §7 "multiple
GPUs on a single node" configuration; parameters default to a
Kepler-era node (PCIe 3.0 x16 per device, peer-to-peer through the
switch).

A device has a *slot* (its position in :attr:`MultiMachine.devices`,
what partitions and :meth:`~MultiMachine.fail_device` index) and a
*device id* (its ``Machine.device_index``, what fault specs and
``DeviceLost`` name); :meth:`~MultiMachine.slot_of` maps one to the
other.  They differ when the machine wraps shared devices.

Fault tolerance (:mod:`repro.resilience`): :meth:`MultiMachine.attach`
installs a fault injector on every device so ``device-loss`` and
``straggler`` faults fire inside per-device kernel launches;
:meth:`~MultiMachine.step` accrues a super-step's compute even when a
fault unwinds it (that time really passed); :meth:`exchange` retries
timed-out transfers with exponential backoff; and :meth:`reshard`
charges the traffic of redistributing a dead device's partition to the
survivors (:func:`repro.multi.superstep.run_partitioned` does the rest).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, List, Optional

from ..resilience.faults import ExchangeTimeout, FaultKind, as_injector
from ..resilience.recovery import RecoveryStats, RetryPolicy
from ..simt.machine import GPUSpec, Machine


@dataclass(frozen=True)
class InterconnectSpec:
    """PCIe-class device-to-device link."""

    bandwidth_gbps: float = 12.0      # effective peer-to-peer GB/s
    latency_us: float = 8.0           # per-transfer setup latency

    def transfer_ms(self, total_bytes: float, n_messages: int) -> float:
        return (n_messages * self.latency_us * 1e-3
                + total_bytes / (self.bandwidth_gbps * 1e9) * 1e3)


@dataclass
class MultiMachine:
    """k devices + exchange accounting.

    Device compute time accrues on each device's own :class:`Machine`;
    super-step elapsed time is reconstructed as the max over devices of
    per-step compute, plus exchange time, summed over steps.
    """

    k: int = 2
    spec: GPUSpec = field(default_factory=GPUSpec)
    interconnect: InterconnectSpec = field(default_factory=InterconnectSpec)
    #: pre-built per-device machines to account against instead of fresh
    #: ones — the *replica-aware* configuration: the sharded serving tier
    #: (:mod:`repro.serve.shard`) hands one replica machine per shard
    #: group so fan-out compute lands on the replicas' own clocks while
    #: this wrapper contributes only step-makespan + exchange accounting.
    #: Overrides ``k`` (one slot per machine) when provided.
    shared_devices: Optional[List[Machine]] = None

    def __post_init__(self) -> None:
        if self.shared_devices is not None:
            if not self.shared_devices:
                raise ValueError("shared_devices must name at least one device")
            self.k = len(self.shared_devices)
            self.devices: List[Machine] = list(self.shared_devices)
        else:
            if self.k < 1:
                raise ValueError("need at least one device")
            self.devices = [Machine(spec=self.spec, device_index=i)
                            for i in range(self.k)]
        self.alive: List[bool] = [True] * self.k
        #: device id -> slot; a machine whose ids repeat refuses faults
        self._slots = {dev.device_index: s
                       for s, dev in enumerate(self.devices)}
        self.comm_ms = 0.0
        self.comm_bytes = 0.0
        self.reshard_ms = 0.0
        self.reshard_bytes = 0.0
        #: ordinal of the next/current exchange — the ``step`` that
        #: ``exchange``-site fault specs are matched against
        self.exchanges = 0
        self._step_ms = 0.0
        self.injector = None
        self.retry = RetryPolicy()
        self.recovery = RecoveryStats()

    # -- resilience ----------------------------------------------------------

    def attach(self, faults=None, retry: Optional[RetryPolicy] = None):
        """Install a fault injector (and retry policy) across all devices."""
        self.injector = as_injector(faults)
        if self.injector is not None and len(self._slots) < self.k:
            raise ValueError("fault injection needs distinct device ids")
        if retry is not None:
            self.retry = retry
        for s, dev in enumerate(self.devices):
            dev.injector = self.injector if self.alive[s] else None
        return self.injector

    def slot_of(self, device_id: int) -> int:
        """Slot of the device a fault names by its device id."""
        return self._slots[device_id]

    @property
    def n_alive(self) -> int:
        return sum(self.alive)

    def is_alive(self, device: int) -> bool:
        return self.alive[device]

    def alive_devices(self) -> List[int]:
        return [d for d in range(self.k) if self.alive[d]]

    def fail_device(self, device: int) -> None:
        """Mark the device in slot ``device`` dead; it charges no further
        time and fires no further faults."""
        if not 0 <= device < self.k:
            raise ValueError(f"device {device} out of range for k={self.k}")
        if not self.alive[device]:
            return
        self.alive[device] = False
        self.devices[device].injector = None

    # -- super-step accounting -----------------------------------------------

    @contextmanager
    def step(self) -> Iterator[None]:
        """One concurrent compute phase: on leaving the scope, normally or
        by an exception, the slowest device's compute in it is accrued."""
        marks = [d.elapsed_ms() for d in self.devices]
        try:
            yield
        finally:
            self._step_ms += max(d.elapsed_ms() - m
                                 for d, m in zip(self.devices, marks))

    def exchange(self, total_bytes: float, n_messages: int = None) -> None:
        """An all-to-all frontier exchange of the given volume.

        When a fault injector is attached, ``exchange-timeout`` specs
        whose ``step`` matches this exchange's ordinal fire here: each
        firing wastes the full transfer time plus an exponential-backoff
        wait, then the transfer is retried; a spec with ``count=c``
        times out ``c`` consecutive attempts.  Exhausting
        ``retry.max_retries`` raises :class:`ExchangeTimeout`.
        """
        a = self.n_alive
        msgs = a * (a - 1) if n_messages is None else n_messages
        if self.k <= 1:
            return
        self.exchanges += 1
        attempt = 0
        while self.injector is not None:
            spec = self.injector.poll(site="exchange", step=self.exchanges,
                                      kinds=(FaultKind.EXCHANGE_TIMEOUT,))
            if spec is None:
                break
            self.recovery.record_fault(FaultKind.EXCHANGE_TIMEOUT.value)
            if attempt >= self.retry.max_retries:
                raise ExchangeTimeout(
                    step=self.exchanges, site="exchange",
                    detail=f"retries exhausted after {attempt} attempts")
            # the timed-out attempt occupied the link for the full window,
            # then we back off before going again
            backoff = self.retry.backoff_ms(attempt)
            self.comm_ms += self.interconnect.transfer_ms(total_bytes, msgs) \
                + backoff
            self.recovery.retry_attempts += 1
            self.recovery.backoff_ms += backoff
            self.recovery.faults_recovered += 1
            attempt += 1
        ms = self.interconnect.transfer_ms(total_bytes, msgs)
        self.comm_ms += ms
        self.comm_bytes += total_bytes

    def reshard(self, total_bytes: float) -> None:
        """Charge the traffic of moving a dead device's partition to the
        survivors (graceful-degradation recovery)."""
        ms = self.interconnect.transfer_ms(total_bytes, max(1, self.n_alive))
        self.reshard_ms += ms
        self.reshard_bytes += total_bytes
        self.comm_ms += ms
        self.comm_bytes += total_bytes

    # -- reporting --------------------------------------------------------------

    def elapsed_ms(self) -> float:
        """Makespan: per-step device maxima plus communication."""
        return self._step_ms + self.comm_ms

    def compute_ms(self) -> float:
        return self._step_ms

    def recovery_summary(self) -> Optional[dict]:
        """Recovery statistics for a resilient run (None when inert)."""
        if self.injector is None and self.recovery.faults_seen == 0:
            return None
        out = self.recovery.as_dict()
        out["devices_failed"] = [d for d in range(self.k)
                                 if not self.alive[d]]
        out["reshard_bytes"] = self.reshard_bytes
        out["reshard_ms"] = self.reshard_ms
        if self.injector is not None:
            out["faults_injected"] = self.injector.injected
            out["injected_by_kind"] = self.injector.injected_by_kind()
        return out
