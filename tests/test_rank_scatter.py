"""The source scatter's one lowering: ``graph.csr.transpose_product``
against the lane scatter it replaces, bitwise.

The lane path is ``atomic_add(acc, dsts, repeat(values, degs))`` over the
frontier's expanded lanes (``np.add.at`` in lane order).  The product
must equal it on ``acc.view(np.uint64)`` whenever it runs, leave ``acc``
untouched whenever it refuses, and refuse exactly the inputs the
equality does not cover: an accumulator that is not all +0.0, a frontier
that is neither the cached iota nor strictly increasing, a graph without
edges, or a transpose whose rows list sources out of order.
"""

import importlib

import numpy as np
from hypothesis import given, settings, strategies as st

from engines import counter_signature
from repro.analysis.sanitizer import sanitize
from repro.core import Frontier, advance
from repro.dynamic.incremental import pagerank_defect
from repro.graph import generators
from repro.graph.build import from_edges
from repro.graph.coo import Coo
from repro.graph.csr import row_lanes, transpose_min_edges, transpose_product
from repro.primitives.bipartite import BipartiteGraph, induced_bipartite
from repro.primitives.hits import _ReverseView
from repro.primitives.pagerank import (PagerankProblem, _DistributeFunctor,
                                       pagerank)
from repro.primitives.salsa import (SalsaProblem, _WalkLeftFunctor,
                                    _WalkRightFunctor, salsa)
from repro.simt import Machine

from unpooled_reference import ReferencePagerankEnactor

FRONTIERS = ["empty", "one", "iota_identity", "iota_value", "sorted",
             "unsorted", "duplicates"]


# -- strategies ----------------------------------------------------------------

@st.composite
def graphs(draw):
    """Small directed graphs with isolated vertices, self-loops and
    multi-edges; some built with unsorted neighbour lists, whose CSC
    is still in source order but whose *reverse*'s CSC is not."""
    n = draw(st.integers(1, 20))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1)), max_size=50))
    edges += [(v, v) for v in draw(st.lists(st.integers(0, n - 1),
                                            max_size=3))]
    edges += edges[:draw(st.integers(0, 5))]          # multi-edges
    arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if draw(st.booleans()):
        return from_edges(arr, n=n)
    order = np.asarray(draw(st.permutations(range(len(arr)))), dtype=np.int64)
    arr = arr[order]
    return Coo(arr[:, 0], arr[:, 1], n).to_csr(sort_neighbors=False)


@st.composite
def bipartite_graphs(draw):
    """SALSA's bipartite graph (left -> right) of a small random graph."""
    g = draw(graphs())
    left = np.asarray(draw(st.lists(st.integers(0, g.n - 1), min_size=1,
                                    max_size=g.n, unique=True)),
                      dtype=np.int64)
    return induced_bipartite(g, left)


@st.composite
def frontiers(draw, g, kind=None):
    kind = kind or draw(st.sampled_from(FRONTIERS))
    ids = st.integers(0, g.n - 1)
    if kind == "empty":
        return np.zeros(0, dtype=np.int64)
    if kind == "one":
        return np.array([draw(ids)], dtype=np.int64)
    if kind == "iota_identity":
        return g.artifacts.iota_n
    if kind == "iota_value":
        return np.arange(g.n, dtype=np.int64)
    rows = np.asarray(draw(st.lists(ids, min_size=1, max_size=2 * g.n)),
                      dtype=np.int64)
    if kind == "sorted":
        return np.unique(rows)  # np.unique ok: test input
    if kind == "duplicates":
        return np.concatenate([rows, rows[:1]])
    return rows


def _floats(size):
    """Values with signed zeros, subnormals and a spread of magnitudes, so
    a different summation order rounds differently."""
    return st.lists(st.one_of(st.sampled_from([-0.0, 0.0, 0.1, 1e16, -1e16]),
                              st.floats(-1e3, 1e3, width=64),
                              st.floats(-1e-300, 1e-300)),
                    min_size=size, max_size=size).map(
        lambda xs: np.asarray(xs, dtype=np.float64))


@st.composite
def accumulators(draw, n):
    """All +0.0, or +0.0 but for one cell holding -0.0 or a value."""
    acc = np.zeros(n)
    if n and draw(st.booleans()):
        acc[draw(st.integers(0, n - 1))] = draw(st.sampled_from([-0.0, 1.5]))
    return acc


def _lane_scatter(g, acc, rows, values):
    degs = g.degrees_of(rows)
    _, eids = row_lanes(g.indptr, rows, degs, int(degs.sum()))
    np.add.at(acc, g.indices[eids], np.repeat(values, degs))


def _sources_in_order(g):
    csc = g.csc
    return all(np.all(np.diff(csc.neighbors(v)) >= 0) for v in range(g.n))


def _bits(a):
    assert a.dtype == np.float64
    return a.view(np.uint64)


# -- the kernel ----------------------------------------------------------------

def _check_product(g, rows, values, acc):
    want = acc.copy()
    _lane_scatter(g, want, rows, values)
    got = acc.copy()
    took = transpose_product(g, got, rows, values)
    ascending = rows is g.artifacts.iota_n or bool(np.all(np.diff(rows) > 0))
    expect = (not acc.view(np.uint64).any() and ascending and g.m > 0
              and _sources_in_order(g))
    assert took == expect
    if took:
        assert np.array_equal(_bits(got), _bits(want))
    else:
        assert np.array_equal(_bits(got), _bits(acc))


@given(st.data(), st.booleans())
@settings(max_examples=300, deadline=None)
def test_product_equals_lane_scatter(data, reverse):
    g = data.draw(graphs())
    if reverse:
        g = g.csc  # whose CSC is ``g`` itself, rows sorted or not
    rows = data.draw(frontiers(g))
    _check_product(g, rows, data.draw(_floats(len(rows))),
                   data.draw(accumulators(g.n)))


@given(st.data(), st.booleans())
@settings(max_examples=150, deadline=None)
def test_product_equals_lane_scatter_on_bipartite_graphs(data, backwards):
    bp = data.draw(bipartite_graphs())
    g = bp.reverse if backwards else bp.graph
    rows = bp.right_vertices() if backwards else bp.left_vertices()
    if data.draw(st.booleans()):
        rows = data.draw(frontiers(g))
    _check_product(g, rows, data.draw(_floats(len(rows))),
                   data.draw(accumulators(g.n)))


def test_product_refuses_the_reverse_of_unsorted_rows():
    """The reverse's CSC is the forward graph itself, whose row 0 lists
    3, 1, 2: summed in that order cell 0 of the reverse would read
    ``(1 + 1e16) - 1e16 == 0``, where its lanes (sources 1, 2, 3) read 1."""
    fwd = Coo(np.zeros(3, dtype=np.int64), np.array([3, 1, 2]), 4).to_csr(
        sort_neighbors=False)
    rev = BipartiteGraph(fwd, 1, 3).reverse
    values = np.array([0.0, 1e16, -1e16, 1.0])
    acc = np.zeros(4)
    _lane_scatter(rev, acc, rev.artifacts.iota_n, values)
    assert acc[0] == 1.0
    assert (0.0 + values[3] + values[1]) + values[2] == 0.0
    assert rev.artifacts.transpose_ones is None
    assert fwd.artifacts.transpose_ones is not None
    assert not transpose_product(rev, np.zeros(4), rev.artifacts.iota_n,
                                 values)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_pagerank_defect_is_the_lane_scatter(data):
    g = data.draw(graphs())
    rank = data.draw(_floats(g.n))
    deg = np.maximum(g.out_degrees, 1).astype(np.float64)
    push = np.zeros(g.n)
    np.add.at(push, g.indices, np.repeat(0.85 * rank / deg, g.out_degrees))
    want = np.full(g.n, (1.0 - 0.85) / g.n) + push - rank
    assert np.array_equal(_bits(pagerank_defect(g, rank)), _bits(want))


# -- the operator --------------------------------------------------------------

class _LaneDistribute(_DistributeFunctor):
    """PageRank's scatter through its per-lane ``apply_edge``."""
    scatter_source = None


class _LaneWalkRight(_WalkRightFunctor):
    scatter_source = None


class _LaneWalkLeft(_WalkLeftFunctor):
    scatter_source = None


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_pagerank_scatter_equals_its_lane_path(data):
    g = data.draw(graphs())
    residual = data.draw(st.lists(st.floats(0, 1), min_size=g.n,
                                  max_size=g.n))
    f = Frontier(data.draw(frontiers(g)))
    acc = data.draw(accumulators(g.n))
    got_p, want_p = PagerankProblem(g), PagerankProblem(g)
    for P in (got_p, want_p):
        P.residual[:] = residual
        P.residual_next[:] = acc
    got = advance(got_p, f, _DistributeFunctor())
    want = advance(want_p, f, _LaneDistribute())
    assert len(got) == len(want) == 0
    assert np.array_equal(_bits(got_p.residual_next),
                          _bits(want_p.residual_next))


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_salsa_walks_equal_their_lane_paths(data):
    bp = data.draw(bipartite_graphs())
    got_p, want_p = SalsaProblem(bp), SalsaProblem(bp)
    for P in (got_p, want_p):
        P.auth.fill(0.0)
    advance(got_p, Frontier(bp.left_vertices()), _WalkRightFunctor())
    advance(want_p, Frontier(bp.left_vertices()), _LaneWalkRight())
    assert np.array_equal(_bits(got_p.auth), _bits(want_p.auth))
    for P in (got_p, want_p):
        P.hub.fill(0.0)
    advance(_ReverseView(got_p), Frontier(bp.right_vertices()),
            _WalkLeftFunctor())
    advance(_ReverseView(want_p), Frontier(bp.right_vertices()),
            _LaneWalkLeft())
    assert np.array_equal(_bits(got_p.hub), _bits(want_p.hub))


def test_sanitized_scatter_takes_the_lanes(monkeypatch):
    """A sanitizer observes the atomic's per-cell writes, so under one the
    scatter never takes the product."""
    advance_mod = importlib.import_module("repro.core.operators.advance")

    def refuse(*args):
        raise AssertionError("transpose product under a sanitizer")

    monkeypatch.setattr(advance_mod, "transpose_product", refuse)
    g = generators.rmat(8, seed=1)
    with sanitize() as s:
        pagerank(g, max_iterations=5)
        salsa(induced_bipartite(g, np.arange(0, g.n, 3, dtype=np.int64)),
              max_iterations=5)
    assert s.clean
    assert s.observed_writes["_DistributeFunctor"] == {"residual_next"}
    assert s.observed_writes["_WalkRightFunctor"] == {"auth"}
    assert s.observed_writes["_WalkLeftFunctor"] == {"hub"}


def test_salsa_runs_without_lanes_and_matches_the_machine_run():
    g = generators.rmat(8, seed=1)
    bp = induced_bipartite(g, np.arange(0, g.n, 3, dtype=np.int64))
    free, charged = salsa(bp), salsa(bp, machine=Machine())
    for key in ("hub", "auth"):
        assert np.array_equal(_bits(free.arrays[key]),
                              _bits(charged.arrays[key]))


# -- no lanes above the crossover ----------------------------------------------

def _spy_expansions(monkeypatch):
    """Record the edge volume of every push expansion and every lane
    build, as ``(kind, volume)``."""
    advance_mod = importlib.import_module("repro.core.operators.advance")
    csr_mod = importlib.import_module("repro.graph.csr")
    calls = []
    expand, kernel = advance_mod.expand_push, csr_mod.row_lanes

    def expanding(problem, f, **kw):
        out = expand(problem, f, **kw)
        calls.append(("expand", int(out[3].sum())))
        return out

    def lanes(indptr, rows, degs, total, ws=None):
        calls.append(("lanes", total))
        return kernel(indptr, rows, degs, total, ws)

    monkeypatch.setattr(advance_mod, "expand_push", expanding)
    monkeypatch.setattr(advance_mod, "row_lanes", lanes)
    monkeypatch.setattr(csr_mod, "row_lanes", lanes)
    return calls


def test_pagerank_builds_no_lanes_above_the_crossover(monkeypatch):
    g = generators.rmat(10)
    calls = _spy_expansions(monkeypatch)
    r = pagerank(g)
    assert r.enactor_stats.iterations > 1
    assert all(v < transpose_min_edges(g.m) for _, v in calls)


def test_pagerank_with_a_machine_expands_every_step(monkeypatch):
    """Charging prices the atomic from its destination lanes, so with a
    machine attached every step expands, and the kernel stream is the
    per-lane reference loop's."""
    g = generators.rmat(10)
    calls = _spy_expansions(monkeypatch)
    machine = Machine()
    r = pagerank(g, machine=machine, max_iterations=1000)
    expansions = [v for kind, v in calls if kind == "expand"]
    assert len(expansions) == r.enactor_stats.iterations > 1
    assert expansions[0] == g.m
    want_p = PagerankProblem(g, Machine())
    ReferencePagerankEnactor(want_p, max_iterations=1000).enact(
        Frontier.all_vertices(g.n))
    assert np.array_equal(_bits(r.rank), _bits(want_p.rank))
    assert counter_signature(machine) == counter_signature(want_p.machine)
    assert machine.counters.cycles == want_p.machine.counters.cycles
