"""Who-to-follow ("Money", Goel 2014) — the full pipeline of Geil et al.

Section 5.5: "Geil et al. used Gunrock to implement Twitter's
who-to-follow algorithm, which incorporated three node-ranking
algorithms based on bipartite graphs (Personalized PageRank, SALSA, and
HITS) ... the first to use a programmable framework for bipartite
graphs."

Pipeline: (1) build the user's circle of trust (2-hop egocentric
neighborhood), (2) induce the bipartite "hubs = circle, authorities =
their followees" graph, (3) rank with SALSA (Twitter's production
choice), and (4) recommend top authorities the user does not already
follow.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..graph.csr import Csr
from ..simt.machine import Machine
from .bipartite import circle_of_trust, induced_bipartite
from .salsa import salsa


@dataclass
class WtfResult:
    """Recommendations plus the intermediate pipeline artifacts."""

    user: int
    recommendations: np.ndarray
    circle: np.ndarray
    similar_users: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))
    elapsed_ms: Optional[float] = None
    #: enactor stats of the SALSA ranking stage (None on cold start)
    salsa_stats: Optional[object] = None


def who_to_follow(graph: Csr, user: int, *, k: int = 10,
                  circle_size: int = 500,
                  machine: Optional[Machine] = None) -> WtfResult:
    """Recommend ``k`` accounts for ``user`` on a follow graph.

    ``graph`` is the directed follow graph (edge u->v means u follows v).
    Returns both the recommended accounts (authority side) and similar
    users (hub side), as Twitter's Money does.
    """
    if not 0 <= user < graph.n:
        raise ValueError("user out of range")
    circle = circle_of_trust(graph, user, size=circle_size, machine=machine)
    if len(circle) == 0:
        # cold start: nothing to walk — no recommendations
        return WtfResult(user, np.zeros(0, dtype=np.int64),
                         circle, elapsed_ms=0.0)
    # hubs: the user + circle; authorities: everyone they follow
    hubs = np.concatenate([[user], circle]).astype(np.int64)
    bp = induced_bipartite(graph, hubs)
    result = salsa(bp, machine=machine)

    # map authority scores back to original vertex ids
    auth_scores = result.auth[bp.n_left:]
    already = set(graph.neighbors(user).tolist()) | {user}
    order = np.argsort(-auth_scores, kind="stable")
    recs: List[int] = []
    for i in order:
        v = int(bp.right_ids[i])
        if v not in already:
            recs.append(v)
        if len(recs) == k:
            break

    hub_scores = result.hub[:bp.n_left]
    hub_order = np.argsort(-hub_scores, kind="stable")
    similar = hubs[hub_order]
    similar = similar[similar != user][:k]

    return WtfResult(user, np.asarray(recs, dtype=np.int64), circle,
                     similar_users=similar.astype(np.int64),
                     elapsed_ms=machine.elapsed_ms() if machine else None,
                     salsa_stats=result.enactor_stats)
