"""Greedy parallel graph coloring (Section 5.5's in-development list).

Jones-Plassmann with random priorities: each round, vertices that are
local maxima of the priority among *uncolored* neighbors take the
smallest color unused in their neighborhood.  One neighbor-reduce
(max priority) + one compute per round; the frontier is the uncolored
set and shrinks to empty.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..core import Frontier, ProblemBase, EnactorBase
from ..graph.csr import Csr, row_lanes
from ..simt.machine import Machine
from .result import PrimitiveResult, finish


class ColoringProblem(ProblemBase):
    def __init__(self, graph: Csr, machine: Optional[Machine] = None,
                 seed: int = 0):
        super().__init__(graph, machine)
        self.add_vertex_array("colors", np.int64, -1)
        rng = np.random.default_rng(seed)
        self.add_vertex_array("priority", np.float64, 0.0)
        self.priority[:] = rng.random(graph.n)

    def unvisited_mask(self) -> np.ndarray:
        return self.colors < 0


class ColoringEnactor(EnactorBase):
    def _iterate(self, frontier: Frontier) -> Frontier:
        P: ColoringProblem = self.problem
        g = P.graph
        f = frontier.items
        degs = g.degrees_of(f)
        total = int(degs.sum())
        seg = np.repeat(np.arange(len(f)), degs)
        nbrs = g.indices[row_lanes(g.indptr, f, degs, total)[1]]

        # neighbor-reduce: max priority among uncolored neighbors
        uncolored_nbr = P.colors[nbrs] < 0
        nbr_prio = np.where(uncolored_nbr, P.priority[nbrs], -np.inf)
        best = np.full(len(f), -np.inf)
        np.maximum.at(best, seg, nbr_prio)
        winners_mask = P.priority[f] > best
        if P.machine is not None:
            from ..simt import calib

            est = self.lb.estimate(degs, P.machine.spec, calib.C_EDGE + 1.0,
                                   calib.C_VERTEX)
            P.machine.launch("color_select", est.cta_costs,
                             body_cycles=est.setup_cycles, items=total,
                             iteration=self.iteration)
            P.machine.counters.record_edges(total)

        winners = f[winners_mask]
        if len(winners):
            # smallest color unused among (already colored) neighbors:
            # bounded by degree, computed per winner via a second gather
            w_degs = g.degrees_of(winners)
            w_total = int(w_degs.sum())
            w_seg = np.repeat(np.arange(len(winners)), w_degs)
            _, w_eids = row_lanes(g.indptr, winners, w_degs, w_total)
            w_nbr_colors = P.colors[g.indices[w_eids]]
            P.colors[winners] = _smallest_missing(w_nbr_colors, w_seg,
                                                  len(winners), w_degs)
            if P.machine is not None:
                P.machine.map_kernel("color_assign", w_total, 2.0,
                                     iteration=self.iteration)
        out = Frontier(f[~winners_mask])
        self._trace("filter", frontier, out)
        return out


def _smallest_missing(colors: np.ndarray, seg: np.ndarray, n_seg: int,
                      degs: np.ndarray) -> np.ndarray:
    """Per segment: the smallest non-negative integer absent from its
    colors.  Vectorized via a (segment, color) presence matrix bounded by
    max degree + 1 (a vertex of degree d needs color <= d)."""
    max_c = int(degs.max()) + 1 if len(degs) else 1
    present = np.zeros((n_seg, max_c + 1), dtype=bool)
    valid = (colors >= 0) & (colors <= max_c)
    present[seg[valid], colors[valid]] = True
    # first False per row
    return np.argmin(present, axis=1).astype(np.int64)


@dataclass
class ColoringResult(PrimitiveResult):
    @property
    def colors(self) -> np.ndarray:
        return self.arrays["colors"]

    @property
    def num_colors(self) -> int:
        return int(self.colors.max()) + 1 if len(self.colors) else 0


def color(graph: Csr, *, machine: Optional[Machine] = None, seed: int = 0,
          max_iterations: Optional[int] = None) -> ColoringResult:
    """Color the graph so no edge is monochromatic (Jones-Plassmann)."""
    problem = ColoringProblem(graph, machine, seed=seed)
    enactor = ColoringEnactor(problem, max_iterations=max_iterations)
    enactor.enact(Frontier.all_vertices(graph.n))
    result = ColoringResult(arrays={"colors": problem.colors})
    return finish(result, machine, enactor)
