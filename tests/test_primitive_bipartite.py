"""Bipartite primitives: HITS, SALSA, personalized PageRank, who-to-follow."""

import networkx as nx
import numpy as np
import pytest

from repro.graph import generators
from repro.graph.build import to_networkx
from repro.graph.coo import Coo
from repro import primitives as P
from repro.simt import Machine


@pytest.fixture(scope="module")
def bp():
    g, nl, nr = generators.bipartite_powerlaw(300, 150, seed=3)
    return P.BipartiteGraph(g, nl, nr)


@pytest.fixture(scope="module")
def follow_graph():
    return generators.kronecker(9, seed=11, undirected=False)


# -- BipartiteGraph -----------------------------------------------------------------


def test_bipartite_validation():
    from repro.graph import from_edges

    g = from_edges([(0, 2), (1, 2)], n=3)
    bp = P.BipartiteGraph(g, 2, 1)
    assert bp.left_vertices().tolist() == [0, 1]
    assert bp.right_vertices().tolist() == [2]
    with pytest.raises(ValueError):
        P.BipartiteGraph(g, 1, 1)  # wrong total
    bad = from_edges([(2, 0)], n=3)
    with pytest.raises(ValueError):
        P.BipartiteGraph(bad, 2, 1)  # edge starts on the right


def test_bipartite_validation_rejects_a_right_side_source():
    from repro.graph import from_edges

    # left-to-right edges plus one that leaves a right vertex for another
    g = from_edges([(0, 2), (1, 3), (3, 2)], n=4)
    with pytest.raises(ValueError, match="edges must originate on the left"):
        P.BipartiteGraph(g, 2, 2)
    # a negative side would make indptr[n_left] wrap to the last row
    with pytest.raises(ValueError):
        P.BipartiteGraph(g, -1, 5)
    bp = P.BipartiteGraph(from_edges([(0, 2), (1, 3), (1, 2)], n=4), 2, 2)
    assert bp.graph._edge_sources is None  # validation built no m-sized array


def test_bipartite_degrees(bp):
    assert bp.left_degrees().sum() == bp.graph.m
    assert bp.right_degrees().sum() == bp.graph.m


# -- HITS -------------------------------------------------------------------------


def test_hits_matches_networkx(bp):
    r = P.hits(bp, max_iterations=200, tolerance=1e-12)
    hub_ref, auth_ref = nx.hits(to_networkx(bp.graph), max_iter=1000,
                                tol=1e-12)
    hub = r.hub[:bp.n_left]
    ref = np.array([hub_ref[v] for v in range(bp.n_left)])
    hub = hub / hub.sum()
    ref = ref / ref.sum()
    assert np.allclose(hub, ref, atol=1e-6)


def test_hits_scores_normalized(bp):
    r = P.hits(bp)
    assert np.linalg.norm(r.hub) == pytest.approx(1.0)
    assert np.linalg.norm(r.auth) == pytest.approx(1.0)


def test_hits_sides_separated(bp):
    r = P.hits(bp)
    assert np.all(r.hub[bp.n_left:] == 0)
    assert np.all(r.auth[:bp.n_left] == 0)


# -- SALSA -------------------------------------------------------------------------


def test_salsa_hub_scores_sum_to_one(bp):
    r = P.salsa(bp)
    assert r.hub[:bp.n_left].sum() == pytest.approx(1.0)


def test_salsa_stationary_is_degree_proportional_when_connected():
    """On a connected bipartite graph, the alternating walk's stationary
    hub distribution is proportional to out-degree (standard SALSA fact
    per connected component of the co-citation graph)."""
    from repro.graph import from_edges

    # complete bipartite K_{3,2}
    edges = [(i, 3 + j) for i in range(3) for j in range(2)]
    g = from_edges(edges, n=5)
    bp = P.BipartiteGraph(g, 3, 2)
    r = P.salsa(bp, max_iterations=500, tolerance=1e-14)
    deg = bp.left_degrees().astype(float)
    assert np.allclose(r.hub[:3], deg / deg.sum(), atol=1e-8)


def test_salsa_auth_ranking_favors_popular(bp):
    r = P.salsa(bp)
    auth = r.auth[bp.n_left:]
    indeg = bp.right_degrees().astype(float)
    # strong rank correlation between authority score and in-degree
    top_by_auth = set(np.argsort(-auth)[:10].tolist())
    top_by_deg = set(np.argsort(-indeg)[:30].tolist())
    assert len(top_by_auth & top_by_deg) >= 5


# -- personalized PageRank -----------------------------------------------------------


def test_ppr_matches_networkx(follow_graph):
    r = P.ppr(follow_graph, 0, tolerance=1e-12)
    ref = nx.pagerank(to_networkx(follow_graph), alpha=0.85,
                      personalization={v: 1.0 if v == 0 else 0.0
                                       for v in range(follow_graph.n)},
                      tol=1e-14, max_iter=2000)
    ours = r.rank / r.rank.sum()
    for v in range(follow_graph.n):
        assert ours[v] == pytest.approx(ref[v], abs=1e-5)


def test_ppr_mass_concentrates_near_seed(follow_graph):
    r = P.ppr(follow_graph, 0, tolerance=1e-10)
    from repro.primitives import bfs

    depth = bfs(follow_graph, 0).labels
    near = r.rank[(depth >= 0) & (depth <= 1)].sum()
    far = r.rank[depth > 2].sum()
    assert near > far


def test_ppr_multi_seed(follow_graph):
    r = P.ppr(follow_graph, [0, 1, 2], tolerance=1e-10)
    assert r.rank[[0, 1, 2]].min() > 0


def test_ppr_rejects_bad_seed(follow_graph):
    with pytest.raises(ValueError):
        P.ppr(follow_graph, follow_graph.n)
    with pytest.raises(ValueError):
        P.ppr(follow_graph, [])


def test_ppr_top_excludes(follow_graph):
    r = P.ppr(follow_graph, 0, tolerance=1e-10)
    top = r.top(5, exclude=np.array([0]))
    assert 0 not in top.tolist()


# -- who-to-follow -------------------------------------------------------------------


def test_wtf_pipeline(follow_graph):
    r = P.who_to_follow(follow_graph, 0, k=5)
    followed = set(follow_graph.neighbors(0).tolist())
    assert len(r.recommendations) <= 5
    for v in r.recommendations.tolist():
        assert v not in followed
        assert v != 0
    assert len(r.circle) > 0
    assert 0 not in r.similar_users.tolist()


def test_wtf_cold_start():
    from repro.graph import from_edges

    g = from_edges([(1, 2)], n=3)
    r = P.who_to_follow(g, 0, k=5)  # vertex 0 follows nobody
    assert len(r.recommendations) == 0


def test_wtf_rejects_bad_user(follow_graph):
    with pytest.raises(ValueError):
        P.who_to_follow(follow_graph, -1)


def test_wtf_cold_start_reports_no_salsa_stage():
    from repro.graph import from_edges

    g = from_edges([(1, 2)], n=3)
    r = P.who_to_follow(g, 0, k=5)
    assert len(r.recommendations) == 0
    assert len(r.similar_users) == 0
    assert r.salsa_stats is None  # the ranking stage never ran


def test_wtf_k_exceeds_candidate_set():
    from repro.graph import from_edges

    # 0 -> 1 -> 2 -> 3: the circle of trust is {2}, whose only followee
    # that 0 does not already follow is 3 — one candidate, k=50
    g = from_edges([(0, 1), (1, 2), (2, 3)], n=4)
    r = P.who_to_follow(g, 0, k=50)
    assert r.recommendations.tolist() == [3]
    assert len(r.recommendations) < 50


def test_wtf_never_recommends_user_or_followees(follow_graph):
    for user in range(min(8, follow_graph.n)):
        r = P.who_to_follow(follow_graph, user, k=10)
        already = set(follow_graph.neighbors(user).tolist()) | {user}
        assert not (set(r.recommendations.tolist()) & already)
        assert user not in r.similar_users.tolist()


def test_wtf_self_loop_user_excluded():
    from repro.graph import from_edges

    # a self-follow must not surface the user as their own recommendation
    g = from_edges([(0, 0), (0, 1), (1, 0), (1, 2)], n=3)
    r = P.who_to_follow(g, 0, k=5)
    assert 0 not in r.recommendations.tolist()
    assert 1 not in r.recommendations.tolist()  # already followed


def test_wtf_exposes_salsa_trace(follow_graph):
    r = P.who_to_follow(follow_graph, 0, k=5)
    assert r.salsa_stats is not None
    assert r.salsa_stats.op_sequence(0) == ["advance", "advance(backward)"]


def test_circle_of_trust_ranked(follow_graph):
    circle = P.circle_of_trust(follow_graph, 0, size=50)
    assert len(circle) <= 50
    assert 0 not in circle.tolist()


def test_induced_bipartite_structure(follow_graph):
    hubs = np.array([0, 1, 2], dtype=np.int64)
    bp = P.induced_bipartite(follow_graph, hubs)
    assert bp.n_left == 3
    # every left vertex's edges land on the right side
    if bp.graph.m:
        assert bp.graph.edge_sources.max() < 3


def test_bipartite_primitives_charge_machine(bp):
    m = Machine()
    P.salsa(bp, machine=m, max_iterations=5)
    assert m.counters.kernel_launches > 0
    assert m.counters.atomics_issued > 0


# -- the vectorised relabel against the per-edge loop it replaced -----------------------


def _induced_bipartite_loop(graph, left, right=None):
    """Reference: relabel one edge at a time through a dict, so a repeated
    id in an explicit ``right`` keeps its last position."""
    left = np.asarray(left, dtype=np.int64)
    edges = [(i, int(v)) for i, u in enumerate(left)
             for v in graph.neighbors(int(u))]
    if right is None:
        right = np.unique(np.array([v for _, v in edges], dtype=np.int64))
    right = np.asarray(right, dtype=np.int64)
    right_index = {int(v): i for i, v in enumerate(right)}
    edges = [(i, right_index[v] + len(left)) for i, v in edges
             if v in right_index]
    coo = Coo([i for i, _ in edges], [v for _, v in edges],
              len(left) + len(right))
    return P.BipartiteGraph(coo.to_csr(), len(left), len(right), right)


def _assert_same_bipartite(got, want):
    assert (got.n_left, got.n_right) == (want.n_left, want.n_right)
    assert np.array_equal(got.graph.indptr, want.graph.indptr)
    assert np.array_equal(got.graph.indices, want.graph.indices)
    assert np.array_equal(got.right_ids, want.right_ids)


@pytest.mark.parametrize("scale,seed", [(7, 1), (9, 11), (10, 5)])
def test_induced_bipartite_equals_loop_relabel(scale, seed):
    g = generators.kronecker(scale, seed=seed, undirected=False)
    rng = np.random.default_rng(seed)
    left = rng.permutation(g.n)[:g.n // 8]
    _assert_same_bipartite(P.induced_bipartite(g, left),
                           _induced_bipartite_loop(g, left))
    # an explicit right side: unsorted, with repeats and ids nobody follows
    right = rng.integers(0, g.n, size=g.n // 2)
    _assert_same_bipartite(P.induced_bipartite(g, left, right),
                           _induced_bipartite_loop(g, left, right))
    empty = np.zeros(0, dtype=np.int64)
    _assert_same_bipartite(P.induced_bipartite(g, left, empty),
                           _induced_bipartite_loop(g, left, empty))
    _assert_same_bipartite(P.induced_bipartite(g, empty),
                           _induced_bipartite_loop(g, empty))
    # one low-degree vertex whose followees reach far past 4 ids a lane:
    # the relabel takes its sort regime, not the bitmap
    degs = g.out_degrees
    reach = np.array([g.neighbors(v).max(initial=-1) for v in range(g.n)])
    small = np.flatnonzero((degs > 0) & (reach >= 4 * degs))[:1]
    assert len(small) == 1
    _assert_same_bipartite(P.induced_bipartite(g, small),
                           _induced_bipartite_loop(g, small))


@pytest.mark.parametrize("scale,seed", [(8, 2), (9, 11)])
def test_wtf_equals_loop_relabel_pipeline(scale, seed, monkeypatch):
    g = generators.kronecker(scale, seed=seed, undirected=False)
    users = np.flatnonzero(g.out_degrees > 0)[:12].tolist()
    got = [P.who_to_follow(g, u, k=10) for u in users]
    monkeypatch.setattr("repro.primitives.wtf.induced_bipartite",
                        _induced_bipartite_loop)
    for r, want in zip(got, (P.who_to_follow(g, u, k=10) for u in users)):
        assert np.array_equal(r.recommendations, want.recommendations)
        assert np.array_equal(r.similar_users, want.similar_users)
        assert np.array_equal(r.circle, want.circle)
