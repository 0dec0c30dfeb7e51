"""Maximal independent set (Section 5.5's in-development list).

Luby's algorithm with random priorities: each round, uncolored vertices
that are strict local priority maxima join the set; their neighbors are
removed.  Frontier = undecided vertices; one neighbor-reduce + one filter
per round, O(log n) rounds with high probability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..core import Frontier, ProblemBase, EnactorBase
from ..graph.csr import Csr, row_lanes
from ..simt.machine import Machine
from .result import PrimitiveResult, finish

UNDECIDED, IN_SET, EXCLUDED = 0, 1, 2


class MisProblem(ProblemBase):
    def __init__(self, graph: Csr, machine: Optional[Machine] = None,
                 seed: int = 0):
        super().__init__(graph, machine)
        self.add_vertex_array("state", np.int8, UNDECIDED)
        rng = np.random.default_rng(seed)
        self.add_vertex_array("priority", np.float64, 0.0)
        self.priority[:] = rng.random(graph.n)


class MisEnactor(EnactorBase):
    def _iterate(self, frontier: Frontier) -> Frontier:
        P: MisProblem = self.problem
        g = P.graph
        f = frontier.items
        degs = g.degrees_of(f)
        total = int(degs.sum())
        seg = np.repeat(np.arange(len(f)), degs)
        nbrs = g.indices[row_lanes(g.indptr, f, degs, total)[1]]

        undecided_nbr = P.state[nbrs] == UNDECIDED
        nbr_prio = np.where(undecided_nbr, P.priority[nbrs], -np.inf)
        best = np.full(len(f), -np.inf)
        np.maximum.at(best, seg, nbr_prio)
        winners = f[P.priority[f] > best]
        P.state[winners] = IN_SET
        if P.machine is not None:
            from ..simt import calib

            est = self.lb.estimate(degs, P.machine.spec, calib.C_EDGE + 1.0,
                                   calib.C_VERTEX)
            P.machine.launch("mis_select", est.cta_costs,
                             body_cycles=est.setup_cycles, items=total,
                             iteration=self.iteration)
            P.machine.counters.record_edges(total)

        # exclude the winners' neighbors
        w_degs = g.degrees_of(winners)
        w_total = int(w_degs.sum())
        if w_total:
            _, w_eids = row_lanes(g.indptr, winners, w_degs, w_total)
            losers = g.indices[w_eids]
            still = P.state[losers] == UNDECIDED
            P.state[losers[still]] = EXCLUDED
            if P.machine is not None:
                P.machine.map_kernel("mis_exclude", w_total, 1.0,
                                     iteration=self.iteration)

        out = Frontier(f[P.state[f] == UNDECIDED])
        self._trace("filter", frontier, out)
        return out


@dataclass
class MisResult(PrimitiveResult):
    @property
    def in_set(self) -> np.ndarray:
        return self.arrays["state"] == IN_SET

    @property
    def set_size(self) -> int:
        return int(self.in_set.sum())


def mis(graph: Csr, *, machine: Optional[Machine] = None, seed: int = 0,
        max_iterations: Optional[int] = None) -> MisResult:
    """Compute a maximal independent set (Luby)."""
    problem = MisProblem(graph, machine, seed=seed)
    enactor = MisEnactor(problem, max_iterations=max_iterations)
    enactor.enact(Frontier.all_vertices(graph.n))
    result = MisResult(arrays={"state": problem.state})
    return finish(result, machine, enactor)
