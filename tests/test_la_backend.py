"""The linear-algebra backend: semiring products against dense numpy
oracles, LA-vs-pooled equivalence through the shared differential
harness (push/pull forcing, edge cases), the fallback contract, the
SpGEMM triangle workload, and LA observability.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from engines import run_all_engines
from la_reference import spmspv_reference, spmv_reference
from repro.core.engine import clear_fallbacks, engine, last_fallback
from repro.graph import from_edges
from repro.graph.build import with_random_weights
from repro.la import (BOOL_OR_AND, MIN_PLUS, MIN_SELECT, PLUS_TIMES,
                      SEMIRING_OF, SEMIRINGS, spmspv, spmv)
from repro.la.semiring import _SCATTER_VERTICES_PER_LANE, Scratch
from repro.simt import Machine


@st.composite
def edge_lists(draw, max_n=24, max_m=90):
    n = draw(st.integers(min_value=1, max_value=max_n))
    m = draw(st.integers(min_value=0, max_value=max_m))
    edges = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        min_size=m, max_size=m))
    return n, edges


def _graph(n, edges):
    return from_edges(edges, n=n, undirected=True)


# -- semiring products vs dense oracles ---------------------------------------


def _edge_iter(g):
    src = g.edge_sources
    for e in range(g.m):
        yield int(src[e]), int(g.indices[e]), e


@given(edge_lists(max_n=16, max_m=60), st.integers(0, 2**16),
       st.data())
@settings(max_examples=25, deadline=None)
def test_spmspv_min_plus_matches_dense_oracle(data, wseed, draw):
    n, edges = data
    g = with_random_weights(_graph(n, edges), seed=wseed)
    w = g.artifacts.weights64
    k = draw.draw(st.integers(1, n))
    x_ids = np.array(sorted(draw.draw(
        st.sets(st.integers(0, n - 1), min_size=k, max_size=k))),
        dtype=np.int64)
    x_vals = np.array(draw.draw(st.lists(
        st.floats(0, 100, allow_nan=False), min_size=len(x_ids),
        max_size=len(x_ids))))
    ids, vals, wit = spmspv(g, x_ids, x_vals, MIN_PLUS, edge_values=w,
                            witness=True)
    xd = dict(zip(x_ids.tolist(), x_vals.tolist()))
    best, owner = {}, {}
    for u, v, e in _edge_iter(g):
        if u in xd:
            cand = xd[u] + w[e]
            if v not in best or cand < best[v]:
                best[v], owner[v] = cand, u
            elif cand == best[v]:
                owner[v] = min(owner[v], u)
    assert ids.tolist() == sorted(best)
    for i, v in enumerate(ids.tolist()):
        assert vals[i] == best[v]
        assert wit[i] == owner[v]


@given(edge_lists(max_n=16, max_m=60), st.data())
@settings(max_examples=25, deadline=None)
def test_spmspv_bool_with_complement_mask(data, draw):
    n, edges = data
    g = _graph(n, edges)
    x_ids = np.array(sorted(draw.draw(
        st.sets(st.integers(0, n - 1), min_size=1, max_size=n))),
        dtype=np.int64)
    mask = np.array(draw.draw(st.lists(
        st.booleans(), min_size=n, max_size=n)))
    ids, vals = spmspv(g, x_ids, np.ones(len(x_ids), dtype=bool),
                       BOOL_OR_AND, mask=mask, mask_complement=True)
    fs = set(x_ids.tolist())
    expect = sorted({v for u, v, _ in _edge_iter(g)
                     if u in fs and not mask[v]})
    assert ids.tolist() == expect
    assert vals.dtype == np.bool_ and bool(vals.all())


@given(edge_lists(max_n=16, max_m=60), st.data())
@settings(max_examples=25, deadline=None)
def test_spmv_bool_pull_matches_push(data, draw):
    """Pull (masked SpMV over the CSC) and push (SpMSpV) agree — the
    direction-optimization equivalence the BFS runner relies on."""
    n, edges = data
    g = _graph(n, edges)
    x_ids = np.array(sorted(draw.draw(
        st.sets(st.integers(0, n - 1), min_size=1, max_size=n))),
        dtype=np.int64)
    mask = np.array(draw.draw(st.lists(
        st.booleans(), min_size=n, max_size=n)))
    dense_x = np.zeros(n, dtype=bool)
    dense_x[x_ids] = True
    y, wit = spmv(g, dense_x, BOOL_OR_AND, mask=mask,
                  mask_complement=True, witness=True)
    ids, _, wit_push = spmspv(g, x_ids, np.ones(len(x_ids), dtype=bool),
                              BOOL_OR_AND, mask=mask, mask_complement=True,
                              witness=True)
    assert np.flatnonzero(y).tolist() == ids.tolist()
    assert wit[ids].tolist() == wit_push.tolist()


@given(edge_lists(max_n=14, max_m=50), st.data())
@settings(max_examples=20, deadline=None)
def test_spmspv_plus_times_matches_dense_oracle(data, draw):
    n, edges = data
    g = _graph(n, edges)
    x_vals = np.array(draw.draw(st.lists(
        st.floats(0, 10, allow_nan=False), min_size=n, max_size=n)))
    ids, vals = spmspv(g, np.arange(n, dtype=np.int64), x_vals, PLUS_TIMES)
    y = np.zeros(n)
    for u, v, _ in _edge_iter(g):
        y[v] += x_vals[u]
    assert ids.tolist() == sorted(np.flatnonzero(
        g.csc.degrees_of(np.arange(n)) > 0).tolist())
    assert np.allclose(vals, y[ids], rtol=1e-12, atol=0)


@given(edge_lists(max_n=14, max_m=50))
@settings(max_examples=20, deadline=None)
def test_spmspv_min_select_matches_dense_oracle(data):
    n, edges = data
    g = _graph(n, edges)
    labels = np.arange(n, dtype=np.int64)[::-1].copy()
    ids, vals = spmspv(g, np.arange(n, dtype=np.int64), labels, MIN_SELECT)
    best = {}
    for u, v, _ in _edge_iter(g):
        best[v] = min(best.get(v, np.iinfo(np.int64).max), labels[u])
    assert ids.tolist() == sorted(best)
    assert [int(x) for x in vals] == [best[v] for v in ids.tolist()]


def test_spmspv_empty_frontier_and_witness_rejection():
    g = _graph(3, [(0, 1)])
    ids, vals = spmspv(g, np.zeros(0, dtype=np.int64), np.zeros(0),
                       MIN_PLUS)
    assert len(ids) == 0 and len(vals) == 0
    with pytest.raises(ValueError):
        spmspv(g, np.array([0]), np.array([1.0]), PLUS_TIMES, witness=True)
    # the rejection is an argument check: it comes before any product
    # work, so even an input the product would choke on raises it
    with pytest.raises(ValueError, match="witness"):
        spmspv(g, np.array([99]), np.array([1.0]), PLUS_TIMES, witness=True)


# -- sort-free kernels vs the sort-based reference (tests/la_reference.py) ----


def _same(got, want):
    """Bitwise: same arity, dtypes, shapes and values."""
    got = got if isinstance(got, tuple) else (got,)
    want = want if isinstance(want, tuple) else (want,)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def _semiring_inputs(draw, semiring, k, m):
    """(x_vals, edge_values-or-None) for ``k`` support rows, ``m`` edges,
    from small value pools: ties (witness), exact zeros, cancellation."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if semiring is BOOL_OR_AND:
        xv = rng.random(k) < 0.7
        ev = rng.choice([0.0, 1.0, 2.5], size=m)
    elif semiring is MIN_SELECT:
        xv = rng.integers(0, 10, size=k)
        ev = np.arange(m, dtype=np.float64)     # ignored by select-first
    else:
        # (inf only under min-plus: inf * 0.0 would be NaN)
        top = [np.inf] if semiring is MIN_PLUS else []
        xv = rng.choice([0.0, 1.0, -1.0, 2.0, 0.1, 0.7] + top, size=k)
        ev = rng.choice([0.0, 0.5, 1.0, 3.0], size=m)
    return xv.astype(semiring.dtype), (ev if draw(st.booleans()) else None)


@st.composite
def product_cases(draw):
    n, edges = draw(edge_lists(max_n=20, max_m=70))
    # pad with isolated vertices so that some cases have few lanes on a
    # big n (the sort regime) — small graphs alone never leave scatter
    n += draw(st.sampled_from([0, 3, 200 * _SCATTER_VERTICES_PER_LANE]))
    g = from_edges(edges, n=n, undirected=draw(st.booleans()))
    semiring = draw(st.sampled_from(sorted(SEMIRINGS.values(),
                                           key=lambda s: s.name)))
    support = draw(st.sampled_from(
        ["iota", "arange", "sparse", "single", "shuffled", "shuffled"]))
    if support == "iota":
        x_ids = g.artifacts.iota_n
    elif support == "arange":
        x_ids = np.arange(n, dtype=np.int64)
    elif support == "single":
        x_ids = np.array([draw(st.integers(0, n - 1))], dtype=np.int64)
    else:
        x_ids = np.array(draw(st.permutations(range(min(n, 24)))),
                         dtype=np.int64)[:draw(st.integers(1, 24))]
        if support == "sparse":
            x_ids.sort()
    xv, ev = _semiring_inputs(draw, semiring, len(x_ids), g.m)
    masking = draw(st.sampled_from(["none", "mask", "complement"]))
    mask = None
    if masking != "none":
        mask = np.zeros(n, dtype=bool)
        mask[:24] = draw(st.lists(st.booleans(), min_size=24,
                                  max_size=24))[:n]
    witness = semiring is not PLUS_TIMES and draw(st.booleans())
    return g, x_ids, xv, semiring, dict(
        edge_values=ev, mask=mask, mask_complement=masking == "complement",
        witness=witness)


@given(product_cases(), st.booleans())
@settings(max_examples=400, deadline=None)
def test_spmspv_matches_sort_based_reference(case, lend):
    g, x_ids, xv, semiring, kw = case
    want = spmspv_reference(g, x_ids, xv, semiring, **kw)
    if not lend:
        _same(spmspv(g, x_ids, xv, semiring, **kw), want)
        return
    # lent accumulators are reset sparsely: after a product that wrote
    # the ⊕-smallest values everywhere, this one must find identity in
    # every slot — and must leave it so for a repeat
    scratch = Scratch()
    low = {"min_plus": -9.0, "min_select": -9, "bool_or_and": True,
           "plus_times": 9.0}[semiring.name]
    spmspv(g, np.arange(g.n), np.full(g.n, low), semiring,
           witness=kw["witness"], scratch=scratch)
    for _ in range(2):
        _same(spmspv(g, x_ids, xv, semiring, scratch=scratch, **kw), want)
        assert scratch.lanes == int(g.degrees_of(x_ids).sum())


@given(product_cases())
@settings(max_examples=200, deadline=None)
def test_spmv_matches_sort_based_reference(case):
    g, x_ids, xv, semiring, kw = case
    x = np.full(g.n, semiring.identity, dtype=semiring.dtype)
    x[x_ids] = xv
    kw = {k: kw[k] for k in ("mask", "mask_complement", "witness")}
    _same(spmv(g, x, semiring, **kw), spmv_reference(g, x, semiring, **kw))


def test_products_on_degenerate_graphs_keep_dtypes():
    """Every early return hands back ``semiring.dtype`` values and int64
    ids: no edges at all, a zero-degree support, a mask admitting
    nothing — through the whole-matrix and the sparse path alike."""
    edgeless = from_edges([], n=5, undirected=False)
    g = from_edges([(0, 1), (0, 2)], n=5, undirected=False)
    nothing = np.zeros(5, dtype=bool)
    for semiring in SEMIRINGS.values():
        xv = np.ones(5, dtype=semiring.dtype)
        for wit in (False, semiring is not PLUS_TIMES):
            for graph, x_ids, kw in (
                    (edgeless, edgeless.artifacts.iota_n, {}),
                    (edgeless, np.arange(5), {}),
                    (g, np.array([3, 4]), {}),
                    (g, g.artifacts.iota_n, {"mask": nothing}),
                    (g, np.array([0]), {"mask": ~nothing,
                                        "mask_complement": True})):
                vals = xv[:len(x_ids)]
                got = spmspv(graph, x_ids, vals, semiring, witness=wit, **kw)
                _same(got, spmspv_reference(graph, x_ids, vals, semiring,
                                            witness=wit, **kw))
                assert all(len(a) == 0 for a in got)
                assert got[0].dtype == np.int64
                assert got[1].dtype == semiring.dtype
            for graph, kw in ((edgeless, {}), (g, {"mask": nothing})):
                _same(spmv(graph, xv, semiring, witness=wit, **kw),
                      spmv_reference(graph, xv, semiring, witness=wit, **kw))


def test_witness_is_smallest_source_for_a_non_ascending_support():
    """First-write-wins needs ascending lanes; a shuffled support must
    still get the smallest achieving source, lent scratch or not."""
    g = from_edges([(5, 7), (2, 7), (6, 7), (6, 1), (2, 1)], n=8,
                   undirected=False)
    x_ids = np.array([5, 6, 2], dtype=np.int64)
    for semiring, xv in ((BOOL_OR_AND, np.ones(3, dtype=bool)),
                         (MIN_PLUS, np.array([1.0, 1.0, 1.0])),
                         (MIN_SELECT, np.array([4, 4, 4]))):
        for scratch in (None, Scratch()):
            ids, _, wit = spmspv(g, x_ids, xv, semiring, witness=True,
                                 scratch=scratch)
            assert ids.tolist() == [1, 7] and wit.tolist() == [2, 2]
            ids, _, wit = spmspv(g, np.sort(x_ids), xv, semiring,
                                 witness=True, scratch=scratch)
            assert ids.tolist() == [1, 7] and wit.tolist() == [2, 2]


def test_plus_times_ids_are_touched_not_nonzero():
    """Contributions that are exactly 0.0, and ones that cancel to 0.0,
    still put their destination in ``ids``."""
    g = from_edges([(0, 3), (1, 4), (2, 4), (1, 5)], n=6, undirected=False)
    x_ids = np.array([0, 1, 2], dtype=np.int64)
    xv = np.array([0.0, 1.0, -1.0])
    ids, vals = spmspv(g, x_ids, xv, PLUS_TIMES)
    assert ids.tolist() == [3, 4, 5]
    assert vals.tolist() == [0.0, 0.0, 1.0]
    _same((ids, vals), spmspv_reference(g, x_ids, xv, PLUS_TIMES))


def _products_counted(ob, **labels):
    want = set(labels.items())
    return sum(v for k, v in ob.metrics.as_dict().items()
               if k.startswith("repro_la_products_total{") and want <= {
                   tuple(p.split("=")) for p in
                   k[k.index("{") + 1:-1].replace('"', "").split(",")})


def test_reduction_regime_boundary_is_counted():
    """Scatter runs while n <= K * lanes; one lane fewer sorts.  Asserted
    through ``repro_la_products_total`` and the enclosing la span."""
    from repro.obs import observe
    from repro.obs.spans import CAT_LA

    lanes = 4
    n = _SCATTER_VERTICES_PER_LANE * lanes
    # vertex v in (0, 1, 2) has out-degree lanes - 1 + v
    edges = [(v, 10 + v * 10 + j) for v in range(3)
             for j in range(lanes - 1 + v)]
    g = with_random_weights(from_edges(edges, n=n, undirected=False), seed=3)
    w = g.artifacts.weights64
    for v, regime in ((0, "sort"), (1, "scatter"), (2, "scatter")):
        x_ids, xv = np.array([v], dtype=np.int64), np.array([1.5])
        for semiring, kw in ((MIN_PLUS, dict(edge_values=w, witness=True)),
                             (PLUS_TIMES, {})):
            with observe() as ob:
                with ob.span("la:probe", CAT_LA) as sp:
                    got = spmspv(g, x_ids, xv, semiring, **kw)
            assert _products_counted(ob) == 1
            assert _products_counted(ob, shape="spmspv", reduce=regime,
                                     semiring=semiring.name) == 1
            assert sp.args["reduce"] == regime
            _same(got, spmspv_reference(g, x_ids, xv, semiring, **kw))
            assert len(got[0]) == lanes - 1 + v


def test_whole_matrix_and_pull_products_are_counted_as_segments():
    from repro.obs import observe

    g = _line_graph()
    labels = np.arange(g.n, dtype=np.int64)
    with observe() as ob:
        spmspv(g, g.artifacts.iota_n, labels, MIN_SELECT)
        # the support decides, not the object: equal by value is whole too
        spmspv(g, np.arange(g.n, dtype=np.int64), labels, MIN_SELECT)
        # ... and a permutation of every vertex is not
        spmspv(g, np.arange(g.n, dtype=np.int64)[::-1], labels, MIN_SELECT)
        spmv(g, np.ones(g.n), PLUS_TIMES)
        spmv(g, np.ones(g.n, dtype=bool), BOOL_OR_AND,
             mask=np.zeros(g.n, dtype=bool))       # admits nothing
    assert _products_counted(ob, shape="spmspv", reduce="segments") == 2
    assert _products_counted(ob, shape="spmspv", reduce="scatter") == 1
    assert _products_counted(ob, shape="spmv", reduce="segments") == 1
    assert _products_counted(ob) == 4
    # and with no observer installed nothing is recorded anywhere
    spmspv(g, g.artifacts.iota_n, labels, MIN_SELECT)
    assert _products_counted(ob) == 4


def test_segment_cache_is_frozen_and_off_the_byte_count(tiny_graph):
    g = tiny_graph
    before = g.nbytes() + g.csc.nbytes()
    rows, starts = g.csc.artifacts.segments
    assert g.csc.artifacts.segments[0] is rows      # built once
    assert not rows.flags.writeable and not starts.flags.writeable
    assert rows.tolist() == [0, 1, 2, 3, 4]          # 5 is isolated
    assert starts.tolist() == g.csc.indptr[:5].tolist()
    assert g.nbytes() + g.csc.nbytes() == before
    assert "segments" not in g.csc.edge_props


def test_semiring_registry_covers_primitives():
    assert set(SEMIRINGS) == {"min_plus", "bool_or_and", "plus_times",
                              "min_select"}
    assert SEMIRING_OF["bfs"].name == "bool_or_and"
    assert SEMIRING_OF["sssp"].name == "min_plus"
    assert SEMIRING_OF["pagerank"].name == "plus_times"
    assert SEMIRING_OF["ppr"].name == "plus_times"
    assert SEMIRING_OF["cc"].name == "min_select"
    assert SEMIRING_OF["triangles"].name == "plus_times"


# -- LA vs the operator engines (shared harness) ------------------------------


@given(edge_lists(), st.integers(0, 23),
       st.sampled_from(["auto", "push", "pull"]), st.booleans())
@settings(max_examples=25, deadline=None)
def test_bfs_la_identity_with_direction_forcing(data, src, direction,
                                                idempotent):
    n, edges = data
    run_all_engines("bfs", _graph(n, edges),
                    engines=("pooled", "la"), src=src % n,
                    direction=direction, idempotent=idempotent,
                    record_preds=True)


@given(edge_lists(), st.integers(0, 23), st.integers(0, 2**32))
@settings(max_examples=25, deadline=None)
def test_sssp_la_identity(data, src, wseed):
    n, edges = data
    g = with_random_weights(_graph(n, edges), seed=wseed)
    run_all_engines("sssp", g, engines=("pooled", "la"), src=src % n)


@given(edge_lists(), st.integers(1, 40))
@settings(max_examples=20, deadline=None)
def test_pagerank_la_identity(data, iterations):
    n, edges = data
    run_all_engines("pagerank", _graph(n, edges),
                    engines=("pooled", "la"), max_iterations=iterations)


@given(edge_lists(), st.lists(st.integers(0, 23), min_size=1, max_size=4))
@settings(max_examples=20, deadline=None)
def test_ppr_la_identity(data, seeds):
    n, edges = data
    run_all_engines("ppr", _graph(n, edges), engines=("pooled", "la"),
                    seeds=[s % n for s in seeds], max_iterations=40)


@given(edge_lists())
@settings(max_examples=20, deadline=None)
def test_cc_la_identity(data):
    n, edges = data
    run_all_engines("cc", _graph(n, edges), engines=("pooled", "la"))


def test_single_vertex_and_empty_frontier_edges():
    g = _graph(1, [])
    run_all_engines("bfs", g, engines=("pooled", "la"), src=0)
    run_all_engines("sssp", with_random_weights(g, seed=0),
                    engines=("pooled", "la"), src=0)
    run_all_engines("cc", g, engines=("pooled", "la"))
    run_all_engines("pagerank", g, engines=("pooled", "la"),
                    max_iterations=10)
    # isolated source: the very first advance sees an empty product
    iso = _graph(4, [(1, 2)])
    run_all_engines("bfs", iso, engines=("pooled", "la"), src=0)
    run_all_engines("ppr", iso, engines=("pooled", "la"), seeds=[0, 3],
                    max_iterations=10)


# -- fallback contract --------------------------------------------------------


def _line_graph():
    return from_edges([(i, i + 1) for i in range(16)], n=17,
                      undirected=True)


def test_alternating_cc_falls_back_under_la():
    from repro.primitives import cc

    g = _line_graph()
    clear_fallbacks()
    with engine("la"):
        r = cc(g, machine=Machine(), alternate=True)
    prim, reason = last_fallback()
    assert prim == "cc"
    assert "alternating" in reason
    assert r.num_components == 1


def test_iteration_capped_sssp_falls_back_under_la():
    from repro.primitives import sssp

    g = with_random_weights(_line_graph(), seed=3)
    clear_fallbacks()
    with engine("la"):
        r = sssp(g, 0, machine=Machine(), max_iterations=2)
    prim, reason = last_fallback()
    assert prim == "sssp"
    assert "schedule-dependent" in reason
    assert r.iterations <= 2


def test_resilience_hooks_disable_la():
    from repro.primitives import bfs

    g = _line_graph()
    clear_fallbacks()
    with engine("la"):
        r = bfs(g, 0, machine=Machine(), checkpoint_every=2)
    prim, reason = last_fallback()
    assert prim == "bfs"
    assert "resilience" in reason
    assert int(r.labels[16]) == 16


# -- SpGEMM triangle counting -------------------------------------------------


@given(edge_lists(max_n=18, max_m=70))
@settings(max_examples=25, deadline=None)
def test_triangles_spgemm_matches_operator_and_reference(data):
    pytest.importorskip("scipy")
    from repro import reference
    from repro.primitives import triangle_count

    n, edges = data
    # the SpGEMM parity contract covers simple graphs: dedup, no loops
    simple = sorted({(min(u, v), max(u, v)) for u, v in edges if u != v})
    g = from_edges(simple, n=n, undirected=True)
    rp = triangle_count(g, machine=Machine())
    clear_fallbacks()
    with engine("la"):
        rl = triangle_count(g, machine=Machine())
    assert last_fallback() is None
    assert rl.total == rp.total == reference.triangle_count(g)
    assert rl.per_vertex.dtype == rp.per_vertex.dtype
    assert np.array_equal(rl.per_vertex, rp.per_vertex)
    assert rl.total * 3 == int(rl.per_vertex.sum())


def test_triangles_la_charges_spgemm_kernels():
    pytest.importorskip("scipy")
    from repro.primitives import triangle_count

    g = from_edges([(0, 1), (1, 2), (0, 2), (2, 3)], n=4, undirected=True)
    m = Machine()
    with engine("la"):
        r = triangle_count(g, machine=m)
    assert r.total == 1
    names = {k.name for k in m.counters.kernels}
    assert "la_spgemm[plus_times]" in names


# -- observability ------------------------------------------------------------


def test_la_span_and_dispatch_counter():
    from repro.obs import observe
    from repro.obs.spans import CAT_LA
    from repro.primitives import bfs, mis

    g = _line_graph()
    with observe() as ob, engine("la"):
        bfs(g, 0, machine=Machine())
        mis(g, machine=Machine())  # falls back
    la_spans = [s for s in ob.tracer.spans if s.cat == CAT_LA]
    assert len(la_spans) == 1
    assert la_spans[0].args["primitive"] == "bfs"
    assert la_spans[0].args["semiring"] == "bool_or_and"
    assert la_spans[0].args["iterations"] >= 1
    counts = ob.metrics.as_dict()
    assert counts[
        'repro_la_dispatch_total{engine="la",primitive="bfs"}'] == 1.0
    assert counts[
        'repro_la_dispatch_total{engine="pooled",primitive="mis"}'] == 1.0


def test_la_kernels_are_semiring_products():
    from repro.primitives import bfs, sssp

    g = with_random_weights(_line_graph(), seed=5)
    with engine("la"):
        mb, ms = Machine(), Machine()
        bfs(g, 0, machine=mb)
        sssp(g, 0, machine=ms)
    bfs_names = {k.name for k in mb.counters.kernels}
    assert any(n.startswith("la_spm") for n in bfs_names)
    assert {k.name for k in ms.counters.kernels} >= {
        "la_spmspv[min_plus]", "la_mask_commit"}
