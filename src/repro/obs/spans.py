"""Span tracing: the structural half of the observability layer.

A *span* is one timed region of a run — a primitive enactment, a BSP
super-step, an operator invocation, or a single simulated kernel launch —
carrying structured attributes (primitive, iteration, operator,
load-balance strategy, frontier size, edges touched, simulated cycles).
Spans nest: the observer keeps an open-span stack, and every kernel
record inherits the innermost operator/primitive context, which is what
lets the Chrome-trace export show "this `advance_push[twc]` launch
belonged to iteration 7 of BFS, frontier 8 192, edges 130 310".

**The disabled path is the default path.**  No observer is installed
unless the process opts in (``repro run --trace``, :func:`observe`, or
an explicit :func:`install`).  Every instrumentation site compiles down
to one module-global ``is None`` check returning the shared
:data:`NOOP_SPAN`, so disabled observability costs a few nanoseconds per
*operator* (not per element) and never touches the simulated clock —
counters and cycles are byte-identical with the observer on, off, or
absent (pinned by ``tests/test_obs.py``).

Time is **simulated cycles**, read from the machine that executes the
spanned work (``machine.counters.cycles``).  Spans with no machine (a
run without a cost model, scheduler bookkeeping) fall back to a
deterministic per-observer sequence clock.  Nothing here ever reads a
wall clock, so traces are byte-identical across same-seed runs.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from .metrics import MetricsRegistry

#: span categories (the taxonomy of DESIGN §11)
CAT_PRIMITIVE = "primitive"
CAT_SUPERSTEP = "superstep"
CAT_OPERATOR = "operator"
CAT_KERNEL = "kernel"
CAT_SERVE = "serve"
CAT_RECOVERY = "recovery"
#: sharded-tier events: breaker transitions, failovers, hedges, repairs
CAT_SHARD = "shard"
#: streaming-graph events: delta compactions, incremental result repair
CAT_DYNAMIC = "dynamic"
#: fused-engine regions: one span per specialized primitive run
CAT_FUSED = "fused"
#: linear-algebra engine regions: one span per SpMV/SpMSpV-lowered run
CAT_LA = "la"


@dataclass
class SpanRecord:
    """One closed span: a named, timed region with attributes."""

    name: str
    cat: str
    ts: float                      # simulated cycles at open
    dur: float                     # simulated cycles spanned
    device: int = 0                # machine device index (Chrome tid)
    args: Dict[str, object] = field(default_factory=dict)


@dataclass
class InstantRecord:
    """One point event (a fault, a rollback decision)."""

    name: str
    cat: str
    ts: float
    device: int = 0
    args: Dict[str, object] = field(default_factory=dict)


class Tracer:
    """Append-only event log; export lives in :mod:`repro.obs.export`."""

    def __init__(self) -> None:
        self.spans: List[SpanRecord] = []
        self.instants: List[InstantRecord] = []

    def kernel_spans(self) -> List[SpanRecord]:
        """The leaf spans — exactly one per simulated kernel launch."""
        return [s for s in self.spans if s.cat == CAT_KERNEL]


class _NoopSpan:
    """The disabled-path span: every operation is a no-op.

    A single shared instance stands in for every span when no observer
    is installed, so the instrumented code never branches on enablement
    beyond the initial lookup.
    """

    __slots__ = ()
    enabled = False

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None

    def set(self, **attrs) -> None:
        return None


#: the shared disabled-path span
NOOP_SPAN = _NoopSpan()


class Span:
    """An open span; close it via context-manager exit.

    ``set(**attrs)`` adds attributes any time before close (operators use
    it for output-side facts like the produced frontier size).
    """

    __slots__ = ("observer", "name", "cat", "machine", "args", "ctx",
                 "_start", "_device")
    enabled = True

    def __init__(self, observer: "Observer", name: str, cat: str,
                 machine, args: Dict[str, object]) -> None:
        self.observer = observer
        self.name = name
        self.cat = cat
        self.machine = machine
        self.args = args
        #: inheritable context: parent ctx + this span's identity/attrs;
        #: kernel records read the innermost ctx
        parent = observer._stack[-1].ctx if observer._stack else {}
        self.ctx = {**parent, **args}
        if cat == CAT_PRIMITIVE:
            self.ctx.setdefault("primitive", name)
        elif cat == CAT_OPERATOR:
            self.ctx["operator"] = name
        self._start = observer._now(machine)
        self._device = getattr(machine, "device_index", 0) if machine else 0

    def set(self, **attrs) -> None:
        self.args.update(attrs)

    def __enter__(self) -> "Span":
        self.observer._stack.append(self)
        return self

    def __exit__(self, *exc) -> None:
        ob = self.observer
        stack = ob._stack
        if stack and stack[-1] is self:
            stack.pop()
        else:  # pragma: no cover - misnested spans; drop rather than corrupt
            try:
                stack.remove(self)
            except ValueError:
                pass
        end = ob._now(self.machine)
        if ob.tracer is not None:
            ob.tracer.spans.append(SpanRecord(
                self.name, self.cat, self._start,
                max(0.0, end - self._start), self._device, dict(self.args)))


class Observer:
    """A metrics registry + a tracer + the open-span stack.

    One observer is installed process-wide (see :func:`install` /
    :func:`observe`); everything instrumented reports into it.
    """

    def __init__(self, *, metrics: Optional[MetricsRegistry] = None,
                 trace: bool = True) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer: Optional[Tracer] = Tracer() if trace else None
        self._stack: List[Span] = []
        self._seq = 0.0

    # -- clocks ------------------------------------------------------------

    def _now(self, machine) -> float:
        """Simulated cycles on ``machine``, or the sequence clock."""
        if machine is not None:
            return float(machine.counters.cycles)
        self._seq += 1.0
        return self._seq

    # -- span API ----------------------------------------------------------

    def span(self, name: str, cat: str, machine=None, **attrs) -> Span:
        return Span(self, name, cat, machine, attrs)

    def instant(self, name: str, cat: str, machine=None, **attrs) -> None:
        if self.tracer is None:
            return
        device = getattr(machine, "device_index", 0) if machine else 0
        self.tracer.instants.append(InstantRecord(
            name, cat, self._now(machine), device, attrs))

    # -- the kernel hook ---------------------------------------------------

    def on_kernel(self, machine, name: str, cycles: float, items: int,
                  iteration: int) -> None:
        """Called by :class:`repro.simt.machine.Machine` at every point a
        kernel launch is recorded — the 1:1 source of ``kernel`` spans
        (span count == ``counters.kernel_launches`` by construction)."""
        m = self.metrics
        m.counter("repro_kernel_launches_total", kernel=name).inc()
        m.counter("repro_kernel_cycles_total", kernel=name).inc(cycles)
        if items:
            m.counter("repro_kernel_items_total", kernel=name).inc(items)
        if self.tracer is None:
            return
        args: Dict[str, object] = dict(
            self._stack[-1].ctx) if self._stack else {}
        args["items"] = int(items)
        args["cycles"] = float(cycles)
        if iteration >= 0:
            args["iteration"] = int(iteration)
        end = float(machine.counters.cycles)
        self.tracer.spans.append(SpanRecord(
            name, CAT_KERNEL, max(0.0, end - cycles), float(cycles),
            machine.device_index, args))


#: the installed process-wide observer (None = observability disabled)
_OBSERVER: Optional[Observer] = None


def current_observer() -> Optional[Observer]:
    return _OBSERVER


def is_enabled() -> bool:
    return _OBSERVER is not None


def install(observer: Optional[Observer]) -> Optional[Observer]:
    """Install (or, with None, remove) the process-wide observer;
    returns the previously installed one."""
    global _OBSERVER
    previous = _OBSERVER
    _OBSERVER = observer
    return previous


@contextmanager
def observe(observer: Optional[Observer] = None, *,
            trace: bool = True) -> Iterator[Observer]:
    """Scoped enablement: install an observer, yield it, restore.

    ``with observe() as ob:`` is the one-liner the CLI and tests use.
    """
    ob = observer if observer is not None else Observer(trace=trace)
    previous = install(ob)
    try:
        yield ob
    finally:
        install(previous)


# -- instrumentation-site helpers (the only calls on hot paths) -------------

def span(name: str, cat: str, machine=None, **attrs):
    """A span against the installed observer, or :data:`NOOP_SPAN`."""
    ob = _OBSERVER
    if ob is None:
        return NOOP_SPAN
    return ob.span(name, cat, machine, **attrs)


def instant(name: str, cat: str, machine=None, **attrs) -> None:
    """An instant event against the installed observer, if any."""
    ob = _OBSERVER
    if ob is not None:
        ob.instant(name, cat, machine, **attrs)


def annotate(cat: str, **attrs) -> None:
    """Add attributes to the innermost open span when it is a ``cat``
    span — for code that runs inside a region it did not open."""
    ob = _OBSERVER
    if ob is not None and ob._stack and ob._stack[-1].cat == cat:
        ob._stack[-1].set(**attrs)


def notify_kernel(machine, name: str, cycles: float, items: int,
                  iteration: int) -> None:
    """The machine-side hook: one call per recorded kernel launch."""
    ob = _OBSERVER
    if ob is not None:
        ob.on_kernel(machine, name, cycles, items, iteration)


def metrics() -> Optional[MetricsRegistry]:
    """The installed observer's registry, or None when disabled."""
    ob = _OBSERVER
    return None if ob is None else ob.metrics
