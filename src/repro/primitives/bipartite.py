"""Bipartite graph support for the who-to-follow primitives (Section 5.5).

Geil et al. built Twitter's who-to-follow pipeline on Gunrock's advance
operator: a 2-hop "circle of trust" traversal, then SALSA/HITS-style node
ranking on the induced bipartite subgraph.  This module holds the shared
bipartite scaffolding; :mod:`repro.primitives.hits`,
:mod:`repro.primitives.salsa`, :mod:`repro.primitives.ppr` and
:mod:`repro.primitives.wtf` build on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..graph.csr import Csr, row_lanes
from ..simt.primitives import unique_inverse


@dataclass(frozen=True)
class BipartiteGraph:
    """A directed bipartite view: left ids ``0..n_left-1``, right ids
    ``n_left..n_left+n_right-1``, edges left -> right in ``graph``.

    ``reverse`` (right -> left) is derived lazily via the CSC cache.
    ``right_ids`` holds the right side's ids in the graph this view was
    induced from (``right_ids[i]`` is right vertex ``n_left + i``); None
    for a bipartite graph built directly.
    """

    graph: Csr
    n_left: int
    n_right: int
    right_ids: Optional[np.ndarray] = field(default=None, compare=False)

    def __post_init__(self):
        if self.n_left + self.n_right != self.graph.n:
            raise ValueError("n_left + n_right must equal the vertex count")
        if self.n_left < 0 or self.n_right < 0:
            raise ValueError("n_left and n_right must be non-negative")
        if self.graph.m:
            # every edge starts on the left iff the left rows own them all
            if self.graph.indptr[self.n_left] != self.graph.m:
                raise ValueError("edges must originate on the left side")
            if self.graph.indices.min() < self.n_left:
                raise ValueError("edges must terminate on the right side")

    @property
    def reverse(self) -> Csr:
        return self.graph.csc

    def left_vertices(self) -> np.ndarray:
        return np.arange(self.n_left, dtype=np.int64)

    def right_vertices(self) -> np.ndarray:
        return np.arange(self.n_left, self.graph.n, dtype=np.int64)

    def left_degrees(self) -> np.ndarray:
        return self.graph.out_degrees[:self.n_left]

    def right_degrees(self) -> np.ndarray:
        return self.reverse.out_degrees[self.n_left:]


def circle_of_trust(graph: Csr, user: int, size: int = 1000,
                    machine: Optional[object] = None) -> np.ndarray:
    """The WTF pipeline's first stage: the user's top-``size`` 2-hop
    neighborhood by visit count (an egocentric random-walk approximation
    computed exactly via a 2-hop advance, as in Geil et al.).
    """
    if not 0 <= user < graph.n:
        raise ValueError("user out of range")
    one_hop = graph.neighbors(user)
    if len(one_hop) == 0:
        return np.zeros(0, dtype=np.int64)
    degs = graph.degrees_of(one_hop)
    counts = np.zeros(graph.n, dtype=np.float64)
    seg = np.repeat(np.arange(len(one_hop)), degs)
    _, eids = row_lanes(graph.indptr, one_hop, degs, int(degs.sum()))
    two_hop = graph.indices[eids]
    # weight by inverse intermediate degree (random-walk probability)
    weights = 1.0 / np.maximum(1.0, degs[seg])
    np.add.at(counts, two_hop, weights)
    counts[user] = 0.0
    hot = np.flatnonzero(counts > 0)
    order = hot[np.argsort(-counts[hot], kind="stable")]
    return order[:size]


def induced_bipartite(graph: Csr, left: np.ndarray,
                      right: Optional[np.ndarray] = None) -> BipartiteGraph:
    """Build the bipartite graph induced by a left set (e.g. the circle of
    trust) and the union of their out-neighbors (or an explicit right set).

    Left vertices keep their order; ids are re-labeled compactly.
    """
    left = np.asarray(left, dtype=np.int64)
    degs = graph.degrees_of(left)
    total = int(degs.sum())
    dsts = graph.indices[row_lanes(graph.indptr, left, degs, total)[1]]
    seg = np.repeat(np.arange(len(left)), degs)
    if right is None:
        right, new_dst = unique_inverse(dsts)
    else:
        right = np.asarray(right, dtype=np.int64)
        keep = np.isin(dsts, right)
        seg, dsts = seg[keep], dsts[keep]
        # any order, duplicates allowed: a repeated id keeps its last position
        order = np.argsort(right, kind="stable")
        new_dst = order[np.searchsorted(right[order], dsts, side="right") - 1]
    from ..graph.coo import Coo

    coo = Coo(seg, new_dst + len(left), len(left) + len(right))
    return BipartiteGraph(coo.to_csr(), len(left), len(right), right)
