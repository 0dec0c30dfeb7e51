"""Correctness checks for the end-to-end benchmark.

Every certificate here is written against numpy / ``scipy.sparse.csgraph``
only, so a bug shared by the repo's engines cannot certify itself.  Each
function returns ``None`` when the output is right and a one-line reason
when it is not; the caller prefixes the cell name and counts the query as
failed.
"""

from __future__ import annotations

import hashlib
import zlib
from typing import Dict, Iterable, List, Optional

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph


def crc_of(arrays: Dict[str, np.ndarray]) -> int:
    """crc32 over a result's arrays in name order (dtype included)."""
    crc = 0
    for name in sorted(arrays):
        a = np.ascontiguousarray(arrays[name])
        crc = zlib.crc32(f"{name}:{a.dtype}:".encode(), crc)
        crc = zlib.crc32(a.view(np.uint8).reshape(-1), crc)
    return crc


class GraphOracle:
    """O(m) lookups shared by the certificates of one graph."""

    def __init__(self, graph):
        self.graph = graph
        self.n = graph.n
        weights = graph.weight_or_ones()
        self.matrix = sp.csr_matrix(
            (weights, graph.indices, graph.indptr), shape=(graph.n, graph.n))
        keys = graph.edge_sources * np.int64(graph.n) + graph.indices
        order = np.argsort(keys, kind="stable")
        self._keys = keys[order]
        self._weights = weights[order]

    def edge_weight(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Weight of each ``(src, dst)`` edge; NaN where no such edge."""
        want = src.astype(np.int64) * np.int64(self.n) + dst
        pos = np.minimum(np.searchsorted(self._keys, want),
                         len(self._keys) - 1)
        out = self._weights[pos].astype(np.float64)
        out[self._keys[pos] != want] = np.nan
        return out

    def distances(self, src: int, unweighted: bool) -> np.ndarray:
        return csgraph.dijkstra(self.matrix, directed=True, indices=src,
                                unweighted=unweighted)


def _parents_tight(oracle: GraphOracle, src: int, dist: np.ndarray,
                   preds: np.ndarray, unit: bool) -> Optional[str]:
    reached = np.flatnonzero(np.isfinite(dist))
    reached = reached[reached != src]
    parents = preds[reached]
    if len(reached) and (parents.min() < 0 or parents.max() >= oracle.n):
        return "a reached vertex has no parent"
    w = oracle.edge_weight(parents, reached)
    if np.isnan(w).any():
        return "a parent edge is not in the graph"
    step = 1.0 if unit else w
    if not np.array_equal(dist[parents] + step, dist[reached]):
        return "a parent edge is not tight"
    if preds[src] != src:
        return "the source is not its own parent"
    if np.any(preds[~np.isfinite(dist)] != -1):
        return "an unreached vertex has a parent"
    return None


def certify_bfs(oracle: GraphOracle, src: int,
                arrays: Dict[str, np.ndarray]) -> Optional[str]:
    want = oracle.distances(src, unweighted=True)
    got = arrays["labels"].astype(np.float64)
    got[got < 0] = np.inf
    if not np.array_equal(got, want):
        return "depths differ from the scipy oracle"
    return _parents_tight(oracle, src, want, arrays["preds"], unit=True)


def certify_sssp(oracle: GraphOracle, src: int,
                 arrays: Dict[str, np.ndarray]) -> Optional[str]:
    want = oracle.distances(src, unweighted=False)
    if not np.array_equal(arrays["labels"], want):
        return "distances differ from the scipy oracle"
    return _parents_tight(oracle, src, want, arrays["preds"], unit=False)


def certify_cc(oracle: GraphOracle,
               arrays: Dict[str, np.ndarray]) -> Optional[str]:
    ids = arrays["component_ids"]
    g = oracle.graph
    if not np.array_equal(ids[g.edge_sources], ids[g.indices]):
        return "an edge joins two labels"
    want, _ = csgraph.connected_components(oracle.matrix, directed=False)
    if len(np.unique(ids)) != want:
        return (f"{len(np.unique(ids))} components, scipy counts {want}")
    return None


def certify_pagerank(oracle: GraphOracle, arrays: Dict[str, np.ndarray],
                     damping: float = 0.85, repairs: int = 0) -> Optional[str]:
    """Defect certificate: ``|defect|_1 <= 3 n tol`` bounds the distance to
    the fixpoint (``repro.dynamic.incremental.pagerank_defect``).  The
    ranks of the fixpoint sum to 1 less the mass zero-out-degree vertices
    keep (the repo's documented convention), and the sum of any other
    vector is within ``|defect|_1 / (1 - d)`` of that.

    A warm-restart repair starts from zero residual, so whatever the
    previous solve left unpushed (up to ``n tol``) stays in the vector:
    an entry carried through ``repairs`` graph versions is allowed that
    much more per version."""
    from repro.dynamic.incremental import pagerank_defect

    rank = arrays["rank"]
    g = oracle.graph
    tol = 0.01 / max(1, g.n)
    defect = float(np.abs(pagerank_defect(g, rank, damping=damping)).sum())
    allowed = (3.0 + repairs) * g.n * tol
    if not defect <= allowed:
        return f"defect {defect:.3g} over {allowed:.3g}"
    kept = float(rank[g.out_degrees == 0].sum())
    want = 1.0 - damping / (1.0 - damping) * kept
    if abs(float(rank.sum()) - want) > defect / (1.0 - damping) + 1e-9:
        return f"ranks sum to {float(rank.sum()):.6f}, expected {want:.6f}"
    return None


def certify_equal(arrays: Dict[str, np.ndarray],
                  reference: Dict[str, np.ndarray],
                  what: str) -> Optional[str]:
    """Bitwise equality with a reference run (``what`` names it)."""
    for name in sorted(reference):
        if not np.array_equal(arrays[name], reference[name]):
            return f"{name} differs from {what}"
    return None


# -- serving -----------------------------------------------------------------


def certify_replay(report, requests_offered: int) -> List[str]:
    """Conservation and staleness of one replay's ``ServeReport``."""
    problems = []
    accounted = (report.served + report.shed + report.deadline_drops
                 + report.failed)
    if accounted != requests_offered or report.requests != requests_offered:
        problems.append(f"served+shed+drops+failed = {accounted}, "
                        f"offered {requests_offered}")
    if report.stale_hits != 0:
        problems.append(f"{report.stale_hits} stale hits")
    if report.cache.get("stale_rejections", 0) != 0:
        problems.append("cache rejected a stale entry")
    return problems


def _solo_arrays(graph, primitive: str, params: Dict) -> Dict[str, np.ndarray]:
    """From-scratch single-query run of a primitive the batcher is pinned
    bitwise-equal to (see ``repro.serve.batcher``)."""
    from repro.primitives import ppr, who_to_follow

    if primitive == "ppr":
        return {"rank": ppr(graph, list(params["seeds"])).rank}
    if primitive == "wtf":
        r = who_to_follow(graph, params["user"], k=params.get("k", 10))
        return {"recommendations": r.recommendations,
                "similar_users": r.similar_users}
    raise ValueError(f"no solo oracle for {primitive!r}")


def certify_cache_sample(entries: Iterable, graph, rng: np.random.Generator,
                         sample: int, repairs: int = 0) -> List[str]:
    """A seeded sample of live cache entries against the final snapshot.

    bfs/sssp entries (batched, or repaired by ``repro.dynamic``) are held
    to the scipy certificates, pagerank to the defect certificate (the
    repair contract is the certificate, not bitwise equality), ppr/wtf to
    equality with a from-scratch solo run.
    """
    entries = list(entries)
    if not entries:
        return ["the cache holds no entry for the final graph version"]
    picks = rng.choice(len(entries), size=min(sample, len(entries)),
                       replace=False)
    oracle = GraphOracle(graph)
    problems = []
    for i in sorted(int(p) for p in picks):
        key, payload = entries[i]
        if isinstance(key[0], tuple):  # (("shard", sid), primitive, ...)
            key = key[1:]
        primitive, params = key[0], dict(key[1:])
        if primitive == "bfs":
            why = certify_bfs(oracle, params["src"], payload.arrays)
        elif primitive == "sssp":
            why = certify_sssp(oracle, params["src"], payload.arrays)
        elif primitive == "pagerank":
            why = certify_pagerank(oracle, payload.arrays, repairs=repairs)
        else:
            why = certify_equal(payload.arrays,
                                _solo_arrays(graph, primitive, params),
                                "a solo run")
        if why:
            problems.append(f"cache entry {primitive}{params}: {why}")
    return problems


# -- the sim/count digest ------------------------------------------------------


def digest(values: Dict[str, float]) -> str:
    """One token over every ``sim`` and count value of a run.

    A host-only optimisation must leave it unchanged, so two runs compare
    with one ``diff``.  ``repr`` keeps every digit of every float.
    """
    h = hashlib.sha256()
    for name in sorted(values):
        h.update(f"{name}={values[name]!r}\n".encode())
    return h.hexdigest()[:16]
