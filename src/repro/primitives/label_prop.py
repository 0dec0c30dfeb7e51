"""Label propagation community detection (Section 5.5 names Louvain-style
community detection among the primitives under development).

Synchronous label propagation with deterministic ties (smallest label
wins): each iteration, every frontier vertex adopts the most frequent
label among its neighbors; vertices whose labels changed put their
neighbors back on the frontier.  Built from one advance (gather labels)
plus one filter (commit + cull stable vertices).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..core import Frontier, Functor, ProblemBase, EnactorBase
from ..graph.csr import Csr, row_lanes
from ..simt.machine import Machine
from ..simt.primitives import unique_by_sort
from .result import PrimitiveResult, finish


class LabelPropProblem(ProblemBase):
    def __init__(self, graph: Csr, machine: Optional[Machine] = None,
                 seed: int = 0):
        super().__init__(graph, machine)
        self.add_vertex_array("labels", np.int64, 0)
        self.labels[:] = np.arange(graph.n, dtype=np.int64)
        self.add_vertex_array("next_labels", np.int64, 0)
        self.rng = np.random.default_rng(seed)


def _mode_per_segment(labels: np.ndarray, seg: np.ndarray, n_seg: int,
                      fallback: np.ndarray) -> np.ndarray:
    """Most frequent label per segment; smallest label breaks ties.

    Vectorized: sort (segment, label) pairs, run-length encode, then take
    per-segment argmax with the stable smallest-label preference.
    """
    if len(labels) == 0:
        return fallback.copy()
    order = np.lexsort((labels, seg))
    s, l = seg[order], labels[order]
    boundary = np.ones(len(s), dtype=bool)
    boundary[1:] = (s[1:] != s[:-1]) | (l[1:] != l[:-1])
    starts = np.flatnonzero(boundary)
    run_seg = s[starts]
    run_label = l[starts]
    run_len = np.diff(np.concatenate([starts, [len(s)]]))
    # per segment pick run with max length; ties -> smallest label (runs
    # are label-sorted within a segment, so "first max" wins)
    best_count = np.zeros(n_seg, dtype=np.int64)
    np.maximum.at(best_count, run_seg, run_len)
    is_best = run_len == best_count[run_seg]
    out = fallback.copy()
    # reversed scatter: earlier (smaller-label) runs overwrite later ones
    out[run_seg[is_best][::-1]] = run_label[is_best][::-1]
    return out


class _GatherModeFunctor(Functor):
    """advance (as neighbor gather): compute the modal neighbor label."""


class LabelPropEnactor(EnactorBase):
    def _iterate(self, frontier: Frontier) -> Frontier:
        P: LabelPropProblem = self.problem
        g = P.graph
        f = frontier.items
        degs = g.degrees_of(f)
        total = int(degs.sum())
        seg = np.repeat(np.arange(len(f)), degs)
        _, eids = row_lanes(g.indptr, f, degs, total)
        nbr_labels = P.labels[g.indices[eids]]
        new = _mode_per_segment(nbr_labels, seg, len(f), P.labels[f])
        if P.machine is not None:
            from ..simt import calib

            est = self.lb.estimate(degs, P.machine.spec, calib.C_EDGE + 2.0,
                                   calib.C_VERTEX)
            P.machine.launch("labelprop_gather", est.cta_costs,
                             body_cycles=est.setup_cycles, items=total,
                             iteration=self.iteration)
            P.machine.counters.record_edges(total)
        changed = new != P.labels[f]
        P.labels[f[changed]] = new[changed]
        self._trace("advance", frontier, frontier)
        # re-activate neighbors of changed vertices
        ch = f[changed]
        degs_c = g.degrees_of(ch)
        _, eids = row_lanes(g.indptr, ch, degs_c, int(degs_c.sum()))
        nxt = unique_by_sort(np.concatenate([g.indices[eids], ch]))
        if P.machine is not None:
            P.machine.map_kernel("labelprop_frontier", len(f), 3.0,
                                 iteration=self.iteration)
        out = Frontier(nxt)
        self._trace("filter", frontier, out)
        return out


@dataclass
class LabelPropResult(PrimitiveResult):
    @property
    def labels(self) -> np.ndarray:
        return self.arrays["labels"]

    @property
    def num_communities(self) -> int:
        return int(len(np.unique(self.labels)))


def label_propagation(graph: Csr, *, machine: Optional[Machine] = None,
                      max_iterations: int = 100,
                      seed: int = 0) -> LabelPropResult:
    """Synchronous label-propagation communities (deterministic ties)."""
    problem = LabelPropProblem(graph, machine, seed=seed)
    enactor = LabelPropEnactor(problem, max_iterations=max_iterations)
    enactor.enact(Frontier.all_vertices(graph.n))
    result = LabelPropResult(arrays={"labels": problem.labels})
    return finish(result, machine, enactor)
