"""The filter operator (Section 4.1) and the idempotence heuristics.

Filter chooses a subset of the current frontier by programmer-specified
criteria (the vertex functor's ``cond``), running ``apply`` on survivors
and compacting them with a scan — "using parallel scan for efficient
filtering is well-understood on GPUs".

For idempotent primitives (BFS), filter additionally runs "a series of
inexpensive heuristics to reduce, but not eliminate, redundant entries in
the output frontier" (Section 4.1.1).  We implement the two classic
heuristics from Merrill et al. that Gunrock adopted:

* **warp culling** — threads in a warp compare their items through shared
  memory and drop exact duplicates within the warp;
* **history culling** — a small hash table remembers recently admitted
  items; an item that hashes onto itself is dropped.  Collisions between
  *different* items keep both (that is what makes it a heuristic).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ...analysis.sanitizer import kernel_scope
from ...graph.csr import is_true_mask
from ...obs.spans import CAT_OPERATOR, span as obs_span
from ...simt.machine import Machine
from ...simt.primitives import charge_compact, first_occurrence
from ..frontier import Frontier, FrontierKind
from ..functor import Functor, resolve_masks
from ..problem import ProblemBase


@dataclass
class IdempotenceHeuristics:
    """Persistent state for the cheap-dedup heuristics.

    One instance lives per enactor run (Gunrock keeps the history hash in
    the problem's device storage).  ``history_bits`` sets the hash size;
    the default 16 bits (64K slots) matches b40c's history texture.
    """

    history_bits: int = 16
    warp_size: int = 32
    _history: Optional[np.ndarray] = field(default=None, repr=False)
    _discovered: Optional[np.ndarray] = field(default=None, repr=False)
    _warp_ids: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def history_size(self) -> int:
        return 1 << self.history_bits

    def _ensure(self) -> np.ndarray:
        if self._history is None:
            self._history = np.full(self.history_size, -1, dtype=np.int64)
        return self._history

    def _waves(self, items: np.ndarray, probe) -> np.ndarray:
        """``probe(chunk) -> keep`` over ``items`` one wave at a time; a
        frontier of at most ``wave_size`` lanes is simply one wave."""
        if len(items) <= self.wave_size:
            return probe(items)
        return np.concatenate([probe(items[s:s + self.wave_size])
                               for s in range(0, len(items), self.wave_size)])

    def cull(self, items: np.ndarray, n: int) -> np.ndarray:
        """Mask of items surviving all three culls.  The bitmask and the
        history hash each probe and record *every* item, whatever the
        other culls decided about it."""
        keep = self.warp_cull(items)
        keep &= self.bitmask_cull(items, n)
        keep &= self.history_cull(items)
        return keep

    def bitmask_cull(self, items: np.ndarray, n: int) -> np.ndarray:
        """b40c's global visited bitmask: exact per-vertex, but racy
        within a wave of in-flight lanes — duplicates in the same wave all
        pass, later waves see the set bit and drop.  This is the cull that
        keeps same-level duplicate multiplicity from compounding across
        levels on high-diameter graphs."""
        if self._discovered is None or len(self._discovered) < n:
            self._discovered = np.zeros(n, dtype=bool)
        disc = self._discovered

        def probe(chunk):
            k = ~disc[chunk]
            disc[chunk[k]] = True
            return k

        return self._waves(items, probe)

    def warp_cull(self, items: np.ndarray) -> np.ndarray:
        """Mask of items surviving within-warp duplicate elimination."""
        n = len(items)
        keep = np.zeros(n, dtype=bool)
        if n == 0:
            return keep
        if self._warp_ids is None or len(self._warp_ids) < n:
            self._warp_ids = np.arange(max(4096, 2 * n),
                                       dtype=np.int64) // self.warp_size
        # composite key (warp, item): the first lane of each duplicate run
        # inside a warp survives
        key = self._warp_ids[:n] * (items.max() + 1)
        np.add(key, items, out=key)
        keep[first_occurrence(key)] = True
        return keep

    #: lanes whose culling probes genuinely race (one dispatch batch);
    #: writes from one wave are visible to the next — the intra-kernel
    #: visibility that makes b40c's bitmask/history culls effective
    #: against same-level duplicates
    wave_size: int = 1024

    def history_cull(self, items: np.ndarray) -> np.ndarray:
        """Mask of items surviving the history-hash test; admitted items
        are written back so later duplicates get dropped.

        Processing happens wave by wave: duplicates *within* a wave race
        and all survive (the "reduce, but not eliminate" of Section
        4.1.1), while duplicates in later waves see the earlier write and
        die.  A pure pre-kernel-snapshot reading would let same-level
        duplicates multiply geometrically on high-diameter graphs.
        """
        if len(items) == 0:
            return np.zeros(0, dtype=bool)
        history = self._ensure()
        mask = self.history_size - 1

        def probe(chunk):
            slots = chunk & mask
            k = history[slots] != chunk
            history[slots[k]] = chunk[k]
            return k

        return self._waves(items, probe)

    def reset(self) -> None:
        self._history = None
        self._discovered = None


def filter_frontier(problem: ProblemBase, frontier: Frontier, functor: Functor,
                    *, heuristics: Optional[IdempotenceHeuristics] = None,
                    iteration: int = -1) -> Frontier:
    """Run one filter step; returns the compacted new frontier.

    The functor's ``cond_vertex`` (or ``cond_edge`` for edge frontiers,
    receiving the edge's endpoints) decides admission; ``apply_vertex``
    runs on admitted elements inside the same fused kernel.
    """
    machine = problem.machine
    items = frontier.items
    n = len(items)
    sp = obs_span("filter", CAT_OPERATOR, machine, iteration=iteration,
                  frontier=n)
    with sp:
        if machine is None:
            out = _filter_body(problem, frontier, functor, heuristics, machine)
        else:
            with machine.fused("filter", iteration):
                out = _filter_body(problem, frontier, functor, heuristics,
                                   machine)
            machine.counters.record_frontier(len(out))
            machine.counters.record_vertices(n)
        if sp.enabled:
            sp.set(frontier_out=len(out))
    return out


def _filter_body(problem, frontier, functor, heuristics, machine: Optional[Machine]):
    items = frontier.items
    n = len(items)
    if n == 0:
        return Frontier.empty(frontier.kind)

    # The heuristic mask (a fresh array the cull owns) is folded in place;
    # with no heuristics the functor mask is used as is.
    keep = None
    if heuristics is not None and frontier.kind is FrontierKind.VERTEX:
        keep = heuristics.cull(items, problem.graph.n)
        if machine is not None:
            # three shared-memory/texture/bitmask probes per element
            machine.map_kernel("filter_heuristics", n, 3.0)

    fname = type(functor).__name__
    edges = frontier.kind is FrontierKind.EDGE
    with kernel_scope("filter", problem, functor):
        if edges:
            # each endpoint is gathered once: cond_edge and apply_edge see
            # the same arrays, compacted only when a lane was culled
            g = problem.graph
            srcs, dsts = g.edge_sources[items], g.indices[items]
            cond = functor.cond_edge(problem, srcs, dsts, items)
            cmask = resolve_masks(n, cond, where=f"{fname}.cond_edge")
        else:
            cond = functor.cond_vertex(problem, items)
            cmask = resolve_masks(n, cond, where=f"{fname}.cond_vertex")
        if keep is None:
            keep = cmask  # borrowed (possibly read-only) — never mutated
        elif not is_true_mask(cmask):
            keep &= cmask

        if is_true_mask(keep):
            survivors = items  # nothing culled: alias the immutable queue
        elif edges:
            # three compactions by one index list (a boolean compaction
            # of a mixed mask costs several times a gather), or none when
            # the mask kept every lane
            kidx = keep.nonzero()[0]
            survivors = items
            if len(kidx) < n:
                survivors, srcs, dsts = items[kidx], srcs[kidx], dsts[kidx]
        else:
            survivors = items[keep]
        if len(survivors):
            if edges:
                applied = functor.apply_edge(problem, srcs, dsts, survivors)
                mask2 = resolve_masks(len(survivors), applied,
                                      where=f"{fname}.apply_edge")
            else:
                applied = functor.apply_vertex(problem, survivors)
                mask2 = resolve_masks(len(survivors), applied,
                                      where=f"{fname}.apply_vertex")
            if not is_true_mask(mask2):
                survivors = survivors[mask2]
    if machine is not None:
        charge_compact(machine, n)
    return Frontier(survivors, frontier.kind)
