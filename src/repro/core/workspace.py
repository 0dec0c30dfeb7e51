"""Workspace scratch arena — the wall-clock analogue of Gunrock's
preallocated frontier double-buffers and scan workspaces.

Gunrock allocates its frontier queues, scan temporaries, and bitmap
companions once per problem and reuses them across BSP iterations
(Merrill et al.'s BFS does the same with its double-buffered queues).
That is a decision about who owns memory, not a second copy of each
operator: every operator has one body, and the :class:`Workspace` it
borrows scratch from is one of two *providers* answering the same calls.

* The **pooled** provider (every engine but ``unpooled``) keeps
  reusable buffers keyed by ``(role, dtype)``, growing geometrically and
  handing out exact-size views, plus cached *constant* arrays (iota
  ramps, all-True / all-False masks), sparse-clear bitmaps and a
  per-graph expansion memo.
* The **unpooled** provider lends nothing: ``take`` / ``iota`` /
  ``true_mask`` / ``false_mask`` / ``bitmap_scatter`` allocate fresh
  arrays, ``expansion_memo`` always misses and ``remember_expansion``
  forgets.

This module is the only one that knows which provider it is; operators
and primitives never branch on it (CI's "One operator body" step).

Borrowing invariants (see DESIGN.md §10):

* **Scratch is borrowed, never owned.** A view returned by
  :meth:`Workspace.take` is valid only until the next ``take`` of the
  same role; operators must not let borrowed views escape into
  structures that outlive the operator call (frontiers, piles,
  checkpoints).
* **Frontier items always own their memory.** Operators produce output
  id arrays by fancy indexing (which copies) or by aliasing *immutable*
  inputs (cached iota ramps, CSR ``indices``), never by handing out
  scratch.
* **Constant views are read-only.** Pooled ``iota`` / ``true_mask`` /
  ``false_mask`` views are backed by ``writeable=False`` arrays, so an
  accidental in-place write raises instead of corrupting shared state.
* **Identical results.** Both providers produce identical arrays and
  identical simulated-cycle counters; ``tests/test_unpooled_reference.py``
  holds the one body to the textbook bodies in
  ``tests/unpooled_reference.py`` under either provider.

The provider follows the engine selection (:mod:`repro.core.engine`) and
is captured by each :class:`Workspace` at construction time — i.e. per
problem — so a single process can build both kinds side by side.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from .engine import engine_mode

#: minimum backing-buffer length; avoids churning tiny buffers while a
#: frontier ramps up from a single source vertex
_MIN_CAPACITY = 1024


def pooling_enabled() -> bool:
    """Whether new Workspaces (new problems) default to the pooled
    provider."""
    return engine_mode() != "unpooled"


def _capacity_for(size: int) -> int:
    """Geometric growth: next power of two, with a floor."""
    cap = _MIN_CAPACITY
    while cap < size:
        cap <<= 1
    return cap


class Workspace:
    """Reusable scratch arena for one problem's operator invocations.

    The pooled provider's :meth:`take` returns an exact-size view of a
    geometrically grown backing buffer keyed by ``(role, dtype)``; the
    unpooled provider allocates fresh on every call (what
    ``benchmarks/bench_wallclock.py`` compares against).
    """

    __slots__ = ("pooled", "_pools", "_iota", "_true", "_false",
                 "_true_views", "_false_views", "_bitmaps", "_expand_memo",
                 "stats")

    def __init__(self, pooled: Optional[bool] = None):
        self.pooled = pooling_enabled() if pooled is None else bool(pooled)
        self._pools: Dict[Tuple[str, np.dtype], np.ndarray] = {}
        self._iota: Optional[np.ndarray] = None
        self._true: Optional[np.ndarray] = None
        self._false: Optional[np.ndarray] = None
        self._true_views: Dict[int, np.ndarray] = {}
        self._false_views: Dict[int, np.ndarray] = {}
        #: per-role (backing, last-set-items) pairs for sparse-clear bitmaps
        self._bitmaps: Dict[str, Tuple[np.ndarray, Optional[np.ndarray]]] = {}
        #: id(graph) -> (graph, frontier, expansion) of the last push
        #: frontier expanded on that graph
        self._expand_memo: Dict[int, tuple] = {}
        #: allocation accounting, surfaced by bench_wallclock.py
        self.stats = {"takes": 0, "allocations": 0, "grown_bytes": 0}

    # -- scratch ------------------------------------------------------------

    def take(self, role: str, size: int, dtype=np.int64,
             fill=None) -> np.ndarray:
        """Borrow a ``size``-element scratch buffer for ``role``.

        The view is valid until the next ``take`` of the same role.  When
        ``fill`` is given the view is filled; otherwise contents are
        uninitialized.
        """
        self.stats["takes"] += 1
        dt = np.dtype(dtype)
        if not self.pooled:
            self.stats["allocations"] += 1
            if fill is None:
                return np.empty(size, dtype=dt)
            return np.full(size, fill, dtype=dt)
        key = (role, dt)
        buf = self._pools.get(key)
        if buf is None or len(buf) < size:
            buf = np.empty(_capacity_for(size), dtype=dt)
            self._pools[key] = buf
            self.stats["allocations"] += 1
            self.stats["grown_bytes"] += buf.nbytes
        view = buf[:size]
        if fill is not None:
            view.fill(fill)
        return view

    # -- cached constant arrays ---------------------------------------------

    def iota(self, size: int) -> np.ndarray:
        """Read-only ``arange(size)`` view (int64), grown geometrically.

        Replaces per-call ``np.arange`` ramps in the expansion hot path;
        callers use it as a read-only operand (e.g. ``np.add(x, iota,
        out=x)``).
        """
        if not self.pooled:
            self.stats["allocations"] += 1
            return np.arange(size, dtype=np.int64)
        if self._iota is None or len(self._iota) < size:
            base = np.arange(_capacity_for(size), dtype=np.int64)
            base.setflags(write=False)
            self._iota = base
            self.stats["allocations"] += 1
            self.stats["grown_bytes"] += base.nbytes
        return self._iota[:size]

    def _const_mask(self, size: int, value: bool) -> np.ndarray:
        attr = "_true" if value else "_false"
        views = self._true_views if value else self._false_views
        if not self.pooled:
            self.stats["allocations"] += 1
            return (np.ones if value else np.zeros)(size, dtype=bool)
        base = getattr(self, attr)
        if base is None or len(base) < size:
            base = np.full(_capacity_for(size), value, dtype=bool)
            base.setflags(write=False)
            setattr(self, attr, base)
            views.clear()
            self.stats["allocations"] += 1
            self.stats["grown_bytes"] += base.nbytes
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

    # -- bitmaps with sparse clear ------------------------------------------

    def bitmap_scatter(self, role: str, size: int,
                       items: np.ndarray) -> np.ndarray:
        """Scatter ``items`` into a dense boolean map of ``size``.

        Ids outside ``[0, size)`` raise ``ValueError`` (a negative id
        would otherwise wrap to the end of the map).  The pooled provider
        does not zero the whole map each call: only the positions set by
        the *previous* scatter of this role are cleared — O(previous
        frontier) instead of O(n) — and the map is borrowed until that
        next scatter.  The backing invariant: after every call, the True
        positions in the backing buffer are exactly ``items``.  The
        unpooled provider returns a fresh zeroed map.
        """
        if len(items) and (items.min() < 0 or items.max() >= size):
            raise ValueError("frontier id exceeds bitmap size")
        if not self.pooled:
            self.stats["allocations"] += 1
            view = np.zeros(size, dtype=bool)
            view[items] = True
            return view
        buf, last = self._bitmaps.get(role, (None, None))
        if buf is None or len(buf) < size:
            buf = np.zeros(_capacity_for(size), dtype=bool)
            self.stats["allocations"] += 1
            self.stats["grown_bytes"] += buf.nbytes
        elif last is not None and len(last):
            buf[last] = False
        view = buf[:size]
        view[items] = True
        self._bitmaps[role] = (buf, items)
        return view

    # -- maintenance --------------------------------------------------------

    def nbytes(self) -> int:
        """Bytes currently held by pooled backing buffers."""
        total = sum(b.nbytes for b in self._pools.values())
        for arr in (self._iota, self._true, self._false):
            if arr is not None:
                total += arr.nbytes
        total += sum(b.nbytes for b, _ in self._bitmaps.values())
        return total

    def clear(self) -> None:
        """Drop every pooled buffer (memory-pressure escape hatch)."""
        self._pools.clear()
        self._iota = None
        self._true = None
        self._false = None
        self._true_views.clear()
        self._false_views.clear()
        self._bitmaps.clear()
        self._expand_memo.clear()


#: shared provider for callers without a workspace (duck-typed problem
#: views, a bare ``Frontier.to_bitmap``): unpooled, so nothing it hands
#: out is borrowed
_FALLBACK = Workspace(pooled=False)


def workspace_of(problem) -> Workspace:
    """The problem's workspace, or the shared unpooled provider."""
    ws = getattr(problem, "workspace", None)
    return ws if ws is not None else _FALLBACK
