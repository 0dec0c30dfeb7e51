"""The source scatter's one lowering: ``graph.csr.transpose_product``
against the lane scatter it replaces, bitwise.

The lane path is ``atomic_add(acc, dsts, repeat(values, degs))`` over the
frontier's expanded lanes (``np.add.at`` in lane order).  The product
must equal it on ``acc.view(np.uint64)`` whenever it runs, leave ``acc``
untouched whenever it refuses, and refuse exactly the inputs the
equality does not cover: an accumulator that is not all +0.0, a frontier
that is neither the cached iota nor strictly increasing, a graph without
edges, or a transpose whose rows list sources out of order.

With a machine attached the product step prices the atomic from
``graph.csr.transpose_cell_stats`` instead of the lanes: every charged
rank run must equal the same run with the product forced to refuse, on
every kernel record, counter and output bit, and the count-derived
statistics must equal ``atomics.cell_stats`` over the lanes.
"""

import importlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from engines import counter_signature
from repro.analysis.sanitizer import sanitize
from repro.core import Frontier, advance, atomics
from repro.core.engine import clear_fallbacks, engine, last_fallback
from repro.dynamic.incremental import pagerank_defect
from repro.graph import generators
from repro.graph.build import from_edges
from repro.graph.coo import Coo
from repro.graph.csr import (row_lanes, transpose_cell_stats,
                             transpose_min_edges, transpose_product)
from repro.primitives.bipartite import BipartiteGraph, induced_bipartite
from repro.primitives.hits import _ReverseView
from repro.primitives.pagerank import (PagerankProblem, _DistributeFunctor,
                                       pagerank, ppr)
from repro.primitives.salsa import (SalsaProblem, _WalkLeftFunctor,
                                    _WalkRightFunctor, salsa)
from repro.primitives.wtf import who_to_follow
from repro.serve.batcher import batched_ppr
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

    def lanes(indptr, rows, degs, total):
        calls.append(("lanes", total))
        return kernel(indptr, rows, degs, total)

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


def test_charged_pagerank_builds_no_lanes_above_the_crossover(monkeypatch):
    """Charging prices the atomic from the product's per-cell lane counts,
    so a machine-attached run builds no lane at or above the crossover
    either, and the kernel stream is still the per-lane reference
    loop's."""
    g = generators.rmat(10)
    calls = _spy_expansions(monkeypatch)
    machine = Machine()
    r = pagerank(g, machine=machine, max_iterations=1000)
    assert r.enactor_stats.iterations > 1
    assert all(v < transpose_min_edges(g.m) for _, v in calls)
    want_p = PagerankProblem(g, Machine())
    ReferencePagerankEnactor(want_p, max_iterations=1000).enact(
        Frontier.all_vertices(g.n))
    assert np.array_equal(_bits(r.rank), _bits(want_p.rank))
    assert counter_signature(machine) == counter_signature(want_p.machine)
    assert machine.counters.cycles == want_p.machine.counters.cycles


# -- charged product steps against the charged lane path -----------------------

def _fan_graph():
    """Vertices 0-49 have no in-edge and 250-299 no edge at all."""
    rng = np.random.default_rng(7)
    src = rng.integers(0, 200, size=2000)
    dst = rng.integers(50, 250, size=2000)
    return from_edges(np.stack([src, dst], axis=1), n=300)


CHARGED_GRAPHS = {
    "rmat": lambda: generators.rmat(8, seed=1),
    "road": lambda: generators.road_grid(16, 16, seed=1),
    "kron": lambda: generators.kronecker(8, seed=11, undirected=False),
    "fan": _fan_graph,
    "star": lambda: generators.star(200),
}


def _hub(g):
    return int(np.argmax(g.out_degrees))


def _bipartite(g):
    return induced_bipartite(g, np.arange(0, g.n, 3, dtype=np.int64))


def _fused_pagerank(g, m):
    clear_fallbacks()
    with engine("fused"):
        r = pagerank(g, machine=m)
    assert last_fallback() is None
    return r


CHARGED_RUNS = {
    "pagerank": lambda g, m: pagerank(g, machine=m),
    "ppr": lambda g, m: ppr(g, [_hub(g)], machine=m),
    "batched_ppr2": lambda g, m: batched_ppr(g, [[_hub(g)], [0, 1]],
                                             machine=m),
    "batched_ppr3": lambda g, m: batched_ppr(
        g, [[_hub(g)], [0], [g.n // 2, g.n - 1]], machine=m),
    "salsa": lambda g, m: salsa(_bipartite(g), machine=m),
    "who_to_follow": lambda g, m: who_to_follow(g, _hub(g), machine=m),
    "fused_pagerank": _fused_pagerank,
}


def _outputs(result):
    if isinstance(result, list):                  # one LaneResult a lane
        return [a for lane in result for a in lane.arrays.values()]
    if hasattr(result, "arrays"):
        return list(result.arrays.values())
    return [result.recommendations, result.similar_users, result.circle]


def _charged(run, g):
    machine = Machine()
    out = _outputs(run(g, machine))
    return out, machine


@pytest.mark.parametrize("graph_name", CHARGED_GRAPHS)
@pytest.mark.parametrize("run_name", CHARGED_RUNS)
def test_charged_product_matches_the_charged_lane_path(run_name, graph_name,
                                                       monkeypatch):
    """A machine-attached scatter step that takes the transpose product
    prices its atomic from per-cell lane counts; forcing every step onto
    the lanes (the product refuses) must leave every kernel record,
    counter and output bit where it was."""
    advance_mod = importlib.import_module("repro.core.operators.advance")
    fused_mod = importlib.import_module("repro.core.fused")
    g, run = CHARGED_GRAPHS[graph_name](), CHARGED_RUNS[run_name]
    got, got_m = _charged(run, g)
    for mod in (advance_mod, fused_mod):
        monkeypatch.setattr(mod, "transpose_product", lambda *args: False)
    want, want_m = _charged(run, g)
    assert [(k.name, k.cycles, k.items) for k in got_m.counters.kernels] \
        == [(k.name, k.cycles, k.items) for k in want_m.counters.kernels]
    assert counter_signature(got_m) == counter_signature(want_m)
    assert got_m.counters.cycles == want_m.counters.cycles
    assert got_m.counters.as_dict() == want_m.counters.as_dict()
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype
        assert np.array_equal(a.view(np.uint8), b.view(np.uint8))


@pytest.mark.parametrize("run_name", CHARGED_RUNS)
def test_every_charged_run_takes_the_product(run_name, monkeypatch):
    """The differential above is not vacuous: on rmat every run prices
    some step from its counts, and PPR's frontiers, which grow from the
    seeds, include one along part of the graph (counted by ``T @ 1_f``,
    not from the cached in-degrees)."""
    counted = []

    def counting(graph, rows, lanes):
        counted.append(lanes < graph.m)
        return transpose_cell_stats(graph, rows, lanes)

    for name in ("repro.core.operators.advance", "repro.core.fused"):
        monkeypatch.setattr(importlib.import_module(name),
                            "transpose_cell_stats", counting)
    _charged(CHARGED_RUNS[run_name], CHARGED_GRAPHS["rmat"]())
    assert counted
    if "ppr" in run_name:
        assert any(counted)


def _stats_check(g, rows):
    degs = g.degrees_of(rows)
    ne = int(degs.sum())
    if not transpose_product(g, np.zeros(g.n), rows, np.ones(len(rows))):
        return None
    lanes = g.indices[row_lanes(g.indptr, rows, degs, ne)[1]]
    assert transpose_cell_stats(g, rows, ne) == atomics.cell_stats(lanes)
    return lanes


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_count_derived_stats_equal_the_lane_stats(data):
    g = data.draw(graphs())
    rows = data.draw(frontiers(g, data.draw(st.sampled_from(
        ["one", "iota_identity", "iota_value", "sorted"]))))
    _stats_check(g, rows)


@pytest.mark.parametrize("branch", ["histogram", "sort"])
def test_count_derived_stats_cover_both_lane_branches(branch):
    """``cell_stats`` counts a narrow cell range with a histogram and a
    wide one with a sort; the counts agree with both."""
    if branch == "histogram":
        g = generators.star(50)
        rows = g.artifacts.iota_n
    else:
        g = from_edges(np.array([[0, 1], [0, 999], [5, 999], [7, 3]]), n=1000)
        rows = np.array([0, 5], dtype=np.int64)
    lanes = _stats_check(g, rows)
    spread = int(lanes.max() - lanes.min())
    wide = spread >= atomics._HISTOGRAM_CELLS_PER_LANE * len(lanes)
    assert wide == (branch == "sort")
