"""Workspace — the constants and the memo that pay for themselves.

Gunrock preallocates its frontier queues, scan temporaries and bitmap
companions once per problem, because a GPU allocation is expensive.  In
NumPy an ``np.empty`` is cheap, so scratch here is allocated where it
is used and every array an operator returns is owned by its caller.  A
:class:`Workspace` keeps only what a per-role ablation showed to pay
(DESIGN.md §10):

* read-only constant arrays — an iota ramp and all-True / all-False
  masks — whose *identity* operators test to skip scans;
* a per-graph expansion memo, so a frontier pushed again on the same
  graph is not re-expanded.

Every operator has one body, and a workspace is one of two *providers*
answering the same calls:

* the **pooled** provider (every engine but ``unpooled``) caches the
  constants and the memo;
* the **unpooled** provider caches nothing: ``iota`` / ``true_mask`` /
  ``false_mask`` allocate fresh arrays, ``expansion_memo`` always misses
  and ``remember_expansion`` forgets.

This module is the only one that knows which provider it is; operators
and primitives never branch on it (CI's "One operator body" step).
Both providers produce identical arrays and identical simulated-cycle
counters; ``tests/test_unpooled_reference.py`` holds the one body to the
textbook bodies in ``tests/unpooled_reference.py`` under either.

The pooled constants are backed by ``writeable=False`` arrays, so an
accidental in-place write raises instead of corrupting shared state.
The provider follows the engine selection (:mod:`repro.core.engine`) and
is captured by each :class:`Workspace` at construction time — i.e. per
problem — so a single process can build both kinds side by side.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from .engine import engine_mode

#: minimum length of a cached constant; avoids regrowing it while a
#: frontier ramps up from a single source vertex
_MIN_CAPACITY = 1024


def _capacity_for(size: int) -> int:
    """Geometric growth: next power of two, with a floor."""
    cap = _MIN_CAPACITY
    while cap < size:
        cap <<= 1
    return cap


class Workspace:
    """Cached constants and expansion memo for one problem's operator
    invocations (the unpooled provider caches neither)."""

    __slots__ = ("pooled", "_iota", "_true", "_false",
                 "_true_views", "_false_views", "_expand_memo")

    def __init__(self, pooled: Optional[bool] = None):
        if pooled is None:
            pooled = engine_mode() != "unpooled"
        self.pooled = bool(pooled)
        self._iota: Optional[np.ndarray] = None
        self._true: Optional[np.ndarray] = None
        self._false: Optional[np.ndarray] = None
        self._true_views: Dict[int, np.ndarray] = {}
        self._false_views: Dict[int, np.ndarray] = {}
        #: id(graph) -> (graph, frontier, expansion) of the last push
        #: frontier expanded on that graph
        self._expand_memo: Dict[int, tuple] = {}

    # -- cached constant arrays ---------------------------------------------

    def iota(self, size: int) -> np.ndarray:
        """Read-only ``arange(size)`` view (int64), grown geometrically.

        Replaces per-call ``np.arange`` ramps in the expansion hot path;
        callers use it as a read-only operand (e.g. ``np.add(x, iota,
        out=x)``).
        """
        if not self.pooled:
            return np.arange(size, dtype=np.int64)
        if self._iota is None or len(self._iota) < size:
            base = np.arange(_capacity_for(size), dtype=np.int64)
            base.setflags(write=False)
            self._iota = base
        return self._iota[:size]

    def _const_mask(self, size: int, value: bool) -> np.ndarray:
        attr = "_true" if value else "_false"
        views = self._true_views if value else self._false_views
        if not self.pooled:
            return (np.ones if value else np.zeros)(size, dtype=bool)
        base = getattr(self, attr)
        if base is None or len(base) < size:
            base = np.full(_capacity_for(size), value, dtype=bool)
            base.setflags(write=False)
            setattr(self, attr, base)
            views.clear()
        view = views.get(size)
        if view is None:
            view = base[:size]
            views[size] = view
        return view

    def true_mask(self, size: int) -> np.ndarray:
        """Read-only all-True lane mask (the "no functor mask" result)."""
        return self._const_mask(size, True)

    def false_mask(self, size: int) -> np.ndarray:
        """Read-only all-False lane mask (an "admit nothing" result)."""
        return self._const_mask(size, False)

    def is_true_view(self, mask: np.ndarray) -> bool:
        """Whether ``mask`` is this workspace's cached all-True view —
        an O(1) identity test operators use to skip ``.all()`` scans and
        full-copy compactions when no lane was culled."""
        return mask is self._true_views.get(len(mask))

    def is_false_view(self, mask: np.ndarray) -> bool:
        """O(1) identity test for the cached all-False view (lets advance
        skip the output compaction scan when a functor admits nothing)."""
        return mask is self._false_views.get(len(mask))

    # -- frontier-expansion memo ---------------------------------------------

    def expansion_memo(self, graph, f: np.ndarray):
        """Cached ``(srcs, dsts, eids, degs)`` of the last frontier
        expanded on ``graph``, when ``f`` matches it element-wise; else
        None.

        Primitives with slowly-shrinking frontiers (PageRank commits the
        same vertex set for many super-steps) re-expand an identical
        frontier every iteration; an O(|frontier|) compare replaces the
        O(|edges|) rebuild.  One entry per graph, because SALSA and HITS
        alternate between a bipartite graph and its reverse every
        iteration: a single slot would miss on every lookup.  Safe because
        frontier items and the handed-out lane arrays are immutable by
        contract.  The unpooled provider always misses.
        """
        memo = self._expand_memo.get(id(graph))
        if memo is None:
            return None
        cached_g, cached_f, out = memo
        # the entry holds its graph, so its id cannot be reused while
        # the entry lives; the identity test is the key check proper
        if cached_g is graph and (cached_f is f or (
                len(cached_f) == len(f) and np.array_equal(cached_f, f))):
            return out
        return None

    def remember_expansion(self, graph, f: np.ndarray, out) -> None:
        """Store the expansion of ``f`` on ``graph`` for
        :meth:`expansion_memo`, replacing that graph's previous entry
        (a no-op on the unpooled provider)."""
        if self.pooled:
            self._expand_memo[id(graph)] = (graph, f, out)


#: shared provider for callers without a workspace (duck-typed problem
#: views, a bare ``resolve_masks``): unpooled, so it caches nothing
_FALLBACK = Workspace(pooled=False)


def workspace_of(problem) -> Workspace:
    """The problem's workspace, or the shared unpooled provider."""
    ws = getattr(problem, "workspace", None)
    return ws if ws is not None else _FALLBACK
