"""Execution-engine selection and dispatch: pooled / fused / la.

The repo runs a primitive one of three ways:

* **pooled** — the library operators (the production default).  The
  textbook bodies they replaced are the oracle in
  ``tests/unpooled_reference.py``.
* **fused** — trace-guided specialization (:mod:`repro.core.fused`):
  the verified operator DAG of a primitive is compiled into a single
  super-step loop with no intermediate frontier materialization.  Only
  primitives whose :mod:`repro.analysis.fusion` verdict is *fusable*
  take this path; everything else silently falls back to pooled with a
  logged reason.
* **la** — the GraphBLAS-style linear-algebra backend
  (:mod:`repro.la`): frontier operations become masked SpMSpV (push)
  or SpMV (pull) over the frozen CSR/CSC artifacts, with a semiring
  per primitive.  Primitives without a linear-algebra lowering fall
  back to pooled with a logged reason (DESIGN §16).

There is one selector: the ``REPRO_ENGINE`` env var (read when this
module is imported), overridden process-wide by :func:`set_engine`,
overridden in a scope by :func:`engine`.  A problem captures none of
it, so a problem built under one engine runs under any other.  The
retired name ``unpooled`` is accepted as an alias of ``pooled``.

:func:`dispatch` is the one way into a specialized engine: the refusal
chain, the fallback record, the dispatch counter and the engine span
live here, and ``fused`` / ``la`` each register a :class:`Backend`
holding only what differs between them.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, List, Mapping, Optional, Tuple

from ..analysis.sanitizer import current_sanitizer
from ..obs.spans import current_observer, span as obs_span

ENGINES = ("pooled", "fused", "la")
#: retired engine names and the engine each selects: ``benchmarks/e2e``
#: still asks for ``unpooled``, whose caches were the only difference
_ALIASES = {"unpooled": "pooled"}

#: process-wide override; None = ``REPRO_ENGINE``, else pooled
_ENGINE: Optional[str] = None
#: ``REPRO_ENGINE`` as the process started with it.  Read once, here:
#: the mode is resolved for every enact, and an
#: ``os.environ`` lookup per super-step once cost road-network
#: traversals ~2.5 %.
_ENV_ENGINE = os.environ.get("REPRO_ENGINE", "").strip().lower()


def _checked(mode: str) -> str:
    mode = _ALIASES.get(mode, mode)
    if mode not in ENGINES:
        raise ValueError(f"unknown engine {mode!r}; expected one of {ENGINES}")
    return mode


def engine_mode() -> str:
    """The engine new enactor runs will use.

    Resolution order: explicit :func:`set_engine` / :func:`engine`
    override, then the ``REPRO_ENGINE`` env var the process started with
    (a value outside :data:`ENGINES` raises ``ValueError`` here rather
    than running pooled unannounced), then ``pooled``.
    """
    if _ENGINE is not None:
        return _ENGINE
    return _checked(_ENV_ENGINE) if _ENV_ENGINE else "pooled"


def set_engine(mode: str) -> str:
    """Select the engine process-wide; returns the previous resolved mode."""
    global _ENGINE
    mode = _checked(mode)
    previous = engine_mode()
    _ENGINE = mode
    return previous


@contextmanager
def engine(mode: str) -> Iterator[None]:
    """Scoped engine selection: ``with engine("fused"): ...``."""
    global _ENGINE
    prev_override = _ENGINE
    set_engine(mode)
    try:
        yield
    finally:
        _ENGINE = prev_override


# -- fallback bookkeeping ----------------------------------------------------
#
# When the engine is ``fused`` or ``la`` but a run cannot take the
# specialized path, the dispatcher records (primitive, reason) here so the
# CLI / tests / serving tier can surface *why* — the fallback contract in
# DESIGN §15 requires the reason to be observable, not just logged.

_FALLBACKS: List[Tuple[str, str]] = []
_FALLBACK_LIMIT = 256
#: fallbacks ever recorded; unlike ``len(_FALLBACKS)`` it never shrinks
_FALLBACK_COUNT = 0


def record_fallback(primitive: str, reason: str) -> None:
    global _FALLBACK_COUNT
    if len(_FALLBACKS) >= _FALLBACK_LIMIT:
        del _FALLBACKS[: _FALLBACK_LIMIT // 2]
    _FALLBACKS.append((primitive, reason))
    _FALLBACK_COUNT += 1


def fallback_log() -> List[Tuple[str, str]]:
    """Recent (primitive, reason) engine-dispatch fallbacks, oldest first."""
    return list(_FALLBACKS)


def fallback_count() -> int:
    """Fallbacks recorded since import.  The log trims its oldest half at
    the limit, so "what was recorded during this call" is the last
    ``fallback_count() - before`` log entries, not a slice by length."""
    return _FALLBACK_COUNT


def last_fallback() -> Optional[Tuple[str, str]]:
    return _FALLBACKS[-1] if _FALLBACKS else None


def clear_fallbacks() -> None:
    del _FALLBACKS[:]


# -- dispatch ----------------------------------------------------------------

@dataclass(frozen=True)
class Backend:
    """What a specialized engine registers with :func:`dispatch`."""

    #: engine label: span prefix, counter infix, ``engine=`` label value
    name: str
    #: primitive name -> ``runner(enactor, frontier) -> Frontier``
    runners: Mapping[str, Callable]
    span_category: str
    #: ``prepare(enactor, primitive) -> (refusal reason or None, span
    #: attributes)``; called only after the common refusals pass
    prepare: Callable
    #: refusal for a primitive outside ``runners`` (``{name}`` formatted)
    no_runner: str


def count_dispatch(engine_name: str, primitive: str,
                   fallback_reason: Optional[str] = None) -> None:
    """Count one dispatch outcome on ``repro_<engine>_dispatch_total``.

    A run the engine took is labelled ``engine=<engine>``; a refusal goes
    on the fallback log with its reason and is labelled
    ``engine="pooled"`` — the path that runs instead.
    """
    if fallback_reason is not None:
        record_fallback(primitive, fallback_reason)
    ob = current_observer()
    if ob is not None:
        ob.metrics.counter(
            f"repro_{engine_name}_dispatch_total", primitive=primitive,
            engine=engine_name if fallback_reason is None else "pooled").inc()


def dispatch(backend: Backend, enactor, frontier):
    """Run ``enactor``'s loop through ``backend``, or return None.

    None means "take the library loop": this run cannot be specialized,
    the (primitive, reason) pair is on the fallback log and the dispatch
    counter has an ``engine="pooled"`` sample.  The common refusals are
    checked first, in this order; ``backend.prepare`` adds its own.
    """
    name = enactor.primitive_name
    run = backend.runners.get(name)
    attrs: dict = {}
    if run is None:
        reason = backend.no_runner.format(name=name)
    elif enactor.sanitize or current_sanitizer() is not None:
        reason = "sanitizer active: library operators carry the kernel scopes"
    elif enactor.injector is not None or enactor.checkpoints is not None:
        reason = ("resilience hooks active: fault windows exist only in "
                  "the library loop")
    else:
        reason, attrs = backend.prepare(enactor, name)
    count_dispatch(backend.name, name, reason)
    if reason is not None:
        return None
    sp = obs_span(f"{backend.name}:{name}", backend.span_category,
                  enactor.problem.machine, primitive=name, **attrs)
    with sp:
        out = run(enactor, frontier)
        sp.set(iterations=enactor.iteration)
    return out
