"""Minimum spanning forest (Section 5.5 lists MST as in development).

Boruvka's algorithm in frontier form, structurally the CC primitive with
weights: each round, every component picks its cheapest outgoing edge
(a neighbor-reduce with argmin), those edges join the forest and hook
components together, pointer jumping collapses the trees, and the edge
frontier drops intra-component edges.  O(log n) rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..core import Frontier, ProblemBase, EnactorBase
from ..graph.csr import Csr
from ..simt.machine import Machine
from ..simt.primitives import first_occurrence
from .result import PrimitiveResult, finish


class MstProblem(ProblemBase):
    def __init__(self, graph: Csr, machine: Optional[Machine] = None):
        super().__init__(graph, machine)
        self.weights = graph.weight_or_ones()
        self.add_vertex_array("component_ids", np.int64, 0)
        self.component_ids[:] = np.arange(graph.n, dtype=np.int64)
        self.add_edge_array("in_mst", bool, False)


class MstEnactor(EnactorBase):
    def _iterate(self, frontier: Frontier) -> Frontier:
        P: MstProblem = self.problem
        g = P.graph
        eids = frontier.items
        src = g.edge_sources[eids].astype(np.int64)
        dst = g.indices[eids].astype(np.int64)
        cs = P.component_ids[src]
        cd = P.component_ids[dst]
        cross = cs != cd
        eids, src, dst, cs, cd = (a[cross] for a in (eids, src, dst, cs, cd))
        if P.machine is not None:
            from ..simt import calib

            P.machine.map_kernel("mst_min_edge", len(frontier),
                                 calib.C_EDGE + 2.0, iteration=self.iteration)
            P.machine.counters.record_edges(len(frontier))
        if len(eids) == 0:
            out = Frontier.empty("edge")
            self._trace("filter", frontier, out)
            return out

        # cheapest outgoing edge per component.  Ties break on the
        # *canonical undirected* key, giving a global total order on
        # edges — the classical condition under which simultaneous
        # Boruvka selections cannot close a cycle.
        w = P.weights[eids]
        canon = np.minimum(src, dst) * g.n + np.maximum(src, dst)
        order = np.lexsort((canon, w, cs))
        cs_sorted = cs[order]
        first = np.ones(len(cs_sorted), dtype=bool)
        first[1:] = cs_sorted[1:] != cs_sorted[:-1]
        chosen = eids[order[first]]

        # add to forest, dedupe the two directions of the same undirected
        # edge picked by both endpoints' components
        P.in_mst[chosen] = True
        c_src = P.component_ids[g.edge_sources[chosen].astype(np.int64)]
        c_dst = P.component_ids[g.indices[chosen].astype(np.int64)]
        # hook: larger component root under smaller (cycle-free because
        # each component contributes one hook and ties are deterministic)
        hi = np.maximum(c_src, c_dst)
        lo = np.minimum(c_src, c_dst)
        np.minimum.at(P.component_ids, hi, lo)
        if P.machine is not None:
            P.machine.map_kernel("mst_hook", len(chosen), 4.0,
                                 iteration=self.iteration)

        self._pointer_jump()
        out = Frontier(eids, "edge")
        self._trace("filter", frontier, out)
        return out

    def _pointer_jump(self) -> None:
        P: MstProblem = self.problem
        ids = P.component_ids
        while True:
            new = ids[ids]
            if P.machine is not None:
                P.machine.map_kernel("mst_jump", P.graph.n, 2.0,
                                     iteration=self.iteration)
            if np.array_equal(new, ids):
                break
            ids[:] = new


@dataclass
class MstResult(PrimitiveResult):
    @property
    def in_mst(self) -> np.ndarray:
        return self.arrays["in_mst"]

    @property
    def component_ids(self) -> np.ndarray:
        return self.arrays["component_ids"]

    def total_weight(self, graph: Csr) -> float:
        """Forest weight; each undirected edge counted once (the two CSR
        directions of a chosen edge are deduplicated by endpoint pair)."""
        eids = np.flatnonzero(self.in_mst)
        if len(eids) == 0:
            return 0.0
        src = graph.edge_sources[eids].astype(np.int64)
        dst = graph.indices[eids].astype(np.int64)
        w = graph.weight_or_ones()[eids]
        key = np.minimum(src, dst) * graph.n + np.maximum(src, dst)
        return float(w[first_occurrence(key)].sum())


def mst(graph: Csr, *, machine: Optional[Machine] = None,
        max_iterations: Optional[int] = None) -> MstResult:
    """Boruvka minimum spanning forest on an undirected weighted graph.

    The graph must contain both directions of every edge (the library's
    ``undirected=True`` builders guarantee this); the result marks CSR
    edge ids whose undirected edges form the forest.
    """
    problem = MstProblem(graph, machine)
    enactor = MstEnactor(problem, max_iterations=max_iterations)
    enactor.enact(Frontier.all_edges(graph.m))
    result = MstResult(arrays={"in_mst": problem.in_mst,
                               "component_ids": problem.component_ids})
    return finish(result, machine, enactor)
