"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import Frontier, Functor, ProblemBase, advance, atomics, \
    filter_frontier
from repro.core.operators.priority_queue import NearFarPile
from repro.graph import Coo, from_edges
from repro.simt import primitives


# -- strategies ---------------------------------------------------------------------

small_ints = st.integers(min_value=0, max_value=30)


@st.composite
def edge_lists(draw, max_n=24, max_m=80):
    n = draw(st.integers(min_value=1, max_value=max_n))
    m = draw(st.integers(min_value=0, max_value=max_m))
    edges = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        min_size=m, max_size=m))
    return n, edges


@st.composite
def int_arrays(draw, max_len=60, lo=0, hi=100):
    xs = draw(st.lists(st.integers(lo, hi), max_size=max_len))
    return np.asarray(xs, dtype=np.int64)


# -- device primitives ------------------------------------------------------------------


@given(int_arrays(max_len=40, hi=8))
def test_segmented_reduce_matches_loop(degs):
    offsets = np.concatenate([[0], np.cumsum(degs)])
    vals = np.arange(offsets[-1], dtype=np.float64)
    out = primitives.segmented_reduce_sum(vals, offsets)
    ref = [vals[offsets[i]:offsets[i + 1]].sum() for i in range(len(degs))]
    assert np.allclose(out, ref)


@given(int_arrays())
def test_unique_by_sort_property(xs):
    out = primitives.unique_by_sort(xs)
    assert np.array_equal(out, np.unique(xs))


# -- COO/CSR ------------------------------------------------------------------------------


@given(edge_lists())
@settings(max_examples=50)
def test_csr_roundtrip_property(data):
    n, edges = data
    if not edges:
        return
    arr = np.asarray(edges, dtype=np.int64)
    coo = Coo(arr[:, 0], arr[:, 1], n).deduplicated()
    g = coo.to_csr()
    g.validate()
    assert g.m == coo.m
    # every input edge is present
    for s, d in set(edges):
        assert d in g.neighbors(s)


@given(edge_lists())
@settings(max_examples=50)
def test_symmetrize_property(data):
    n, edges = data
    if not edges:
        return
    arr = np.asarray(edges, dtype=np.int64)
    g = Coo(arr[:, 0], arr[:, 1], n).symmetrized().to_csr()
    # symmetric: reverse equals itself (as edge sets)
    rev = g.reverse()
    assert np.array_equal(np.sort(g.indptr), np.sort(rev.indptr))
    assert g.m == rev.m


@given(edge_lists())
@settings(max_examples=50)
def test_reverse_involution_property(data):
    n, edges = data
    arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if len(arr) == 0:
        return
    coo = Coo(arr[:, 0], arr[:, 1], n).deduplicated()
    g = coo.to_csr()
    assert g.reverse().reverse() == g


# -- atomics ---------------------------------------------------------------------------------


@given(int_arrays(max_len=50, hi=9), st.integers(0, 2**32))
def test_atomic_min_equals_groupwise_min(idx, seed):
    if len(idx) == 0:
        return
    rng = np.random.default_rng(seed)
    vals = rng.integers(0, 100, size=len(idx)).astype(np.float64)
    arr = np.full(10, 1000.0)
    atomics.atomic_min(arr, idx, vals)
    for cell in range(10):
        mine = vals[idx == cell]
        expect = min(1000.0, mine.min()) if len(mine) else 1000.0
        assert arr[cell] == expect


@given(int_arrays(max_len=50, hi=9), st.integers(0, 2**32))
def test_atomic_add_equals_groupwise_sum(idx, seed):
    if len(idx) == 0:
        return
    rng = np.random.default_rng(seed)
    vals = rng.integers(0, 10, size=len(idx)).astype(np.float64)
    arr = np.zeros(10)
    atomics.atomic_add(arr, idx, vals)
    for cell in range(10):
        assert arr[cell] == vals[idx == cell].sum()


@given(int_arrays(max_len=50, hi=9))
def test_atomic_cas_exactly_one_winner_per_cell(idx):
    flags = np.zeros(10, dtype=bool)
    won = atomics.atomic_cas_claim(flags, idx)
    for cell in np.unique(idx):
        assert won[idx == cell].sum() == 1


# -- frontier / operators ---------------------------------------------------------------------


class P(ProblemBase):
    def __init__(self, graph):
        super().__init__(graph)
        self.add_vertex_array("labels", np.int64, -1)

    def unvisited_mask(self):
        return self.labels < 0


@given(edge_lists())
@settings(max_examples=40)
def test_advance_output_are_neighbors(data):
    n, edges = data
    g = from_edges(edges, n=n) if edges else from_edges([], n=n)
    prob = P(g)
    frontier = Frontier.all_vertices(n)
    out = advance(prob, frontier, Functor())
    # every emitted vertex must be someone's neighbor; count must equal m
    assert len(out) == g.m
    neighbor_set = set(g.indices.tolist())
    assert set(out.items.tolist()) <= neighbor_set


@given(edge_lists())
@settings(max_examples=40)
def test_advance_push_pull_same_coverage(data):
    n, edges = data
    if not edges:
        return
    g = from_edges(edges, n=n, undirected=True)

    class Label(Functor):
        def cond_edge(self, Pb, src, dst, eid):
            return Pb.labels[dst] < 0

        def apply_edge(self, Pb, src, dst, eid):
            Pb.labels[dst] = 1
            return None

    p1, p2 = P(g), P(g)
    p1.labels[0] = 0
    p2.labels[0] = 0
    a = advance(p1, Frontier.from_vertex(0), Label())
    b = advance(p2, Frontier.from_vertex(0), Label(), mode="pull")
    assert np.array_equal(np.unique(a.items), np.unique(b.items))


@given(int_arrays(max_len=60, hi=20))
def test_filter_heuristics_preserve_coverage(items):
    from repro.core import IdempotenceHeuristics

    g = from_edges([(0, 1)], n=21, undirected=True)
    prob = P(g)
    h = IdempotenceHeuristics(history_bits=3)
    out = filter_frontier(prob, Frontier(items), Functor(), heuristics=h)
    assert set(np.unique(out.items)) == set(np.unique(items))


@given(int_arrays(max_len=60, hi=50), st.floats(0.5, 20.0))
def test_near_far_pile_emits_every_element_once_per_push(items, delta):
    g = from_edges([(0, 1)], n=51, undirected=True)
    prob = P(g)
    prob.add_vertex_array("prio", np.float64, 0.0)
    prob.prio[:] = np.arange(51, dtype=np.float64)
    pile = NearFarPile(prob, lambda Pb, v: Pb.prio[v], delta)
    pile.push(Frontier(items))
    seen = []
    while not pile.exhausted:
        seen.extend(pile.pop_near().items.tolist())
    assert sorted(seen) == sorted(items.tolist())


@given(int_arrays(max_len=60, hi=50))
def test_near_far_pop_order_respects_priority(items):
    g = from_edges([(0, 1)], n=51, undirected=True)
    prob = P(g)
    pile = NearFarPile(prob, lambda Pb, v: v.astype(np.float64), delta=10.0)
    pile.push(Frontier(items))
    last_max = -1.0
    while not pile.exhausted:
        chunk = pile.pop_near().items
        if len(chunk) == 0:
            continue
        # every later chunk's minimum exceeds an earlier chunk's bucket
        assert chunk.min() >= last_max - 10.0
        last_max = max(last_max, float(chunk.max()))


# -- BFS against a trivially correct reference --------------------------------------------------


@given(edge_lists(max_n=16, max_m=40), st.integers(0, 15))
@settings(max_examples=40, deadline=None)
def test_bfs_property_vs_dijkstra_unit(data, src):
    n, edges = data
    src = src % n
    g = from_edges(edges, n=n, undirected=True) if edges else from_edges([], n=n)
    from repro.primitives import bfs

    r = bfs(g, src)
    # reference: simple Python BFS
    ref = {src: 0}
    frontier = [src]
    while frontier:
        nxt = []
        for u in frontier:
            for v in g.neighbors(u):
                if int(v) not in ref:
                    ref[int(v)] = ref[u] + 1
                    nxt.append(int(v))
        frontier = nxt
    for v in range(n):
        assert r.labels[v] == ref.get(v, -1)


# -- fault-recovery determinism -----------------------------------------------------------


@given(edge_lists(max_n=20, max_m=60), st.integers(0, 19),
       st.integers(0, 2**16))
@settings(max_examples=25, deadline=None)
def test_bfs_recovery_identical_under_random_faults(data, src, fault_seed):
    """Resilience invariant: any seeded fault schedule leaves BFS results
    identical to the fault-free run."""
    from repro.primitives import bfs
    from repro.resilience import FaultKind, FaultPlan
    from repro.simt import Machine

    n, edges = data
    src = src % n
    g = from_edges(edges, n=n, undirected=True) if edges else from_edges([], n=n)
    ref = bfs(g, src)
    plan = FaultPlan.random(
        fault_seed,
        [FaultKind.TRANSIENT_KERNEL, FaultKind.CORRUPTION,
         FaultKind.STRAGGLER],
        steps=max(1, ref.iterations - 1))
    r = bfs(g, src, machine=Machine(), checkpoint_every=1, faults=plan)
    assert np.array_equal(r.labels, ref.labels)


# -- cross-engine identity (shared harness) ----------------------------------
#
# The pooled-vs-unpooled comparison loops that used to live here moved
# into tests/engines.py; these tests now drive the same configurations
# through the shared differential harness, which additionally covers the
# la engine where a lowering exists (pull direction and the CAS-claim
# non-idempotent BFS path are la-supported but fused-unsupported, so
# fused stays out of these runs).


@given(edge_lists(max_n=24, max_m=90), st.integers(0, 23),
       st.sampled_from(["auto", "push", "pull"]), st.booleans())
@settings(max_examples=30, deadline=None)
def test_bfs_pooled_unpooled_identical(data, src, direction, idempotent):
    """Pooling invariant: identical output arrays AND identical simulated
    cycle counters, for every BFS configuration."""
    from engines import run_all_engines

    n, edges = data
    src = src % n
    g = from_edges(edges, n=n, undirected=True) if edges else from_edges([], n=n)
    run_all_engines("bfs", g, engines=("unpooled", "pooled", "la"),
                    src=src, direction=direction, idempotent=idempotent)


@given(edge_lists(max_n=20, max_m=70), st.integers(0, 19),
       st.integers(0, 2**16), st.booleans())
@settings(max_examples=25, deadline=None)
def test_sssp_pooled_unpooled_identical(data, src, wseed, use_pq):
    from engines import run_all_engines
    from repro.graph.build import with_random_weights

    n, edges = data
    src = src % n
    g = from_edges(edges, n=n, undirected=True) if edges else from_edges([], n=n)
    g = with_random_weights(g, seed=wseed)
    run_all_engines("sssp", g, engines=("unpooled", "pooled", "la"),
                    src=src, use_priority_queue=use_pq)


@given(edge_lists(max_n=20, max_m=70), st.integers(1, 30))
@settings(max_examples=20, deadline=None)
def test_pagerank_pooled_unpooled_identical(data, max_iter):
    from engines import run_all_engines

    n, edges = data
    g = from_edges(edges, n=n, undirected=True) if edges else from_edges([], n=n)
    run_all_engines("pagerank", g, engines=("unpooled", "pooled", "la"),
                    max_iterations=max_iter)


@given(edge_lists(max_n=18, max_m=60), st.integers(1, 12))
@settings(max_examples=15, deadline=None)
def test_pagerank_gather_pooled_unpooled_identical(data, max_iter):
    # gatherpagerank has no LA lowering: the harness asserts the la run
    # falls back to pooled and stays bitwise-identical
    from engines import run_all_engines

    n, edges = data
    g = from_edges(edges, n=n, undirected=True) if edges else from_edges([], n=n)
    run_all_engines("pagerank_gather", g,
                    engines=("unpooled", "pooled", "la"),
                    max_iterations=max_iter)
