"""The one operator body against the textbook bodies it replaced
(``tests/unpooled_reference.py``): values, dtypes and charged counters,
under the pooled provider, the unpooled provider and (where an operator
accepts it) no workspace at all.

Frontiers cover the shapes whose fast paths differ: empty, one lane, all
vertices by identity (the graph's cached ``iota_n``) and by value (a
fresh ``arange``), a hub, and an arbitrary multiset of vertices.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Frontier, Functor, ProblemBase, advance, filter_frontier
from repro.core.engine import engine
from repro.core.functor import resolve_masks
from repro.core.loadbalance import default_load_balancer
from repro.core.operators.advance import expand_push
from repro.core.operators.neighbor_reduce import neighbor_reduce
from repro.core.workspace import Workspace
from repro.graph.build import from_edges
from repro.primitives.bfs import BfsProblem, _AtomicBfsFunctor
from repro.primitives.pagerank import (PagerankProblem, _CommitFunctor,
                                       _DistributeFunctor, pagerank)
from repro.primitives.sssp import SsspProblem, _RelaxFunctor
from repro.simt import Machine

from unpooled_reference import (CommitReference, DistributeReference,
                                ReferencePagerankEnactor, RelaxReference,
                                advance_pull_reference,
                                expand_push_reference, filter_edges_reference,
                                neighbor_reduce_reference,
                                resolve_masks_reference,
                                to_bitmap_reference)

PROVIDERS = [True, False]
FRONTIER_KINDS = ["empty", "one", "iota_identity", "iota_value", "hub",
                  "multiset"]


# -- strategies ----------------------------------------------------------------

@st.composite
def graphs(draw, weighted=False):
    """Small directed graphs, half of them with one hub row; weights are
    small integers so SSSP relaxations tie."""
    n = draw(st.integers(1, 24))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1)), max_size=60))
    if draw(st.booleans()):
        hub = draw(st.integers(0, n - 1))
        edges += [(hub, v) for v in range(n)]
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    weights = None
    if weighted:
        weights = draw(st.lists(st.integers(0, 4), min_size=len(edges),
                                max_size=len(edges)))
    return from_edges(edges, n=n, weights=weights)


@st.composite
def frontiers(draw, g, kind=None, unique=False):
    """Vertex ids of one of ``FRONTIER_KINDS`` on ``g``."""
    kind = kind or draw(st.sampled_from(FRONTIER_KINDS))
    if kind == "empty":
        return np.zeros(0, dtype=np.int64)
    if kind == "one":
        return np.array([draw(st.integers(0, g.n - 1))], dtype=np.int64)
    if kind == "iota_identity":
        return g.artifacts.iota_n
    if kind == "iota_value":
        return np.arange(g.n, dtype=np.int64)
    if kind == "hub":
        return np.array([int(np.argmax(g.out_degrees))], dtype=np.int64)
    ids = np.asarray(draw(st.lists(st.integers(0, g.n - 1), max_size=2 * g.n)),
                     dtype=np.int64)
    return np.unique(ids) if unique else ids


def _problem(cls, g, pooled, **kw):
    problem = cls(g, Machine(), **kw)
    problem.workspace = Workspace(pooled=pooled)
    return problem


def _charges(machine):
    c = machine.counters
    return c.as_dict(), [(k.name, k.cycles, k.items, k.iteration)
                         for k in c.kernels]


def _same(got, want):
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


# -- masks and bitmaps ---------------------------------------------------------

@given(st.data(), st.sampled_from([True, False, None]))
@settings(max_examples=100, deadline=None)
def test_resolve_masks_matches_reference(data, pooled):
    n = data.draw(st.integers(0, 40))
    masks = data.draw(st.lists(st.one_of(
        st.none(), st.lists(st.booleans(), min_size=n, max_size=n).map(
            lambda xs: np.asarray(xs, dtype=bool))), max_size=3))
    ws = None if pooled is None else Workspace(pooled=pooled)
    want = resolve_masks_reference(n, *[None if m is None else m.copy()
                                        for m in masks])
    _same(np.asarray(resolve_masks(n, *masks, workspace=ws)), want)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_to_bitmap_matches_reference(data):
    size = data.draw(st.integers(1, 30))
    for _ in range(3):
        items = np.asarray(data.draw(st.lists(st.integers(-3, size + 2),
                                              max_size=12)), dtype=np.int64)
        got_m, want_m = Machine(), Machine()
        try:
            want = to_bitmap_reference(items, size, want_m)
        except ValueError:
            with pytest.raises(ValueError, match="exceeds bitmap size"):
                Frontier(items).to_bitmap(size, got_m)
            continue
        _same(Frontier(items).to_bitmap(size, got_m), want)
        assert _charges(got_m) == _charges(want_m)


# -- expansion and operators ---------------------------------------------------

@given(st.data(), st.sampled_from(PROVIDERS))
@settings(max_examples=150, deadline=None)
def test_expand_push_matches_reference(data, pooled):
    g = data.draw(graphs())
    problem = _problem(ProblemBase, g, pooled)
    f = data.draw(frontiers(g))
    want = expand_push_reference(g, f)
    # twice: the second call is served from the pooled expansion memo
    for _ in range(2):
        got = expand_push(problem, f)
        for a, b in zip(got, want):
            _same(np.asarray(a), b)


@given(st.data(), st.sampled_from(PROVIDERS))
@settings(max_examples=120, deadline=None)
def test_pull_advance_matches_reference(data, pooled):
    g = data.draw(graphs())
    visited = np.asarray(data.draw(st.lists(st.booleans(), min_size=g.n,
                                            max_size=g.n)), dtype=bool)
    got_p = _problem(BfsProblem, g, pooled)
    want_p = _problem(BfsProblem, g, pooled)
    for p in (got_p, want_p):
        p.labels[visited] = 0
        p.visited[:] = visited
    f = Frontier(data.draw(frontiers(g)))
    lb = default_load_balancer()
    # two super-steps: the second reuses the pooled bitmap and scratch
    for depth in (1, 2):
        got = advance(got_p, f, _AtomicBfsFunctor(depth), mode="pull",
                      lb=lb, iteration=depth)
        want = advance_pull_reference(want_p, f, _AtomicBfsFunctor(depth),
                                      lb, iteration=depth)
        want_p.machine.counters.record_frontier(len(want))
        _same(got.items, want.items)
        for name in ("labels", "preds", "visited"):
            _same(getattr(got_p, name), getattr(want_p, name))
        assert _charges(got_p.machine) == _charges(want_p.machine)
        f = got


@given(st.data(), st.sampled_from(PROVIDERS),
       st.sampled_from(["sum", "min", "max"]))
@settings(max_examples=120, deadline=None)
def test_neighbor_reduce_matches_reference(data, pooled, op):
    g = data.draw(graphs())
    f = Frontier(data.draw(frontiers(g)))

    def value_fn(P, s, d, e):
        return ((7 * s + d + e) % 11) / 3.0

    lb = default_load_balancer()
    got_p = _problem(ProblemBase, g, pooled)
    want_p = _problem(ProblemBase, g, pooled)
    got = neighbor_reduce(got_p, f, value_fn, op, lb=lb)
    want = neighbor_reduce_reference(want_p, f, value_fn, op, lb)
    _same(got, want)
    assert _charges(got_p.machine) == _charges(want_p.machine)


class _RecordingEdgeFunctor(Functor):
    """Logs every triple ``cond_edge``/``apply_edge`` receive; culls by
    edge id (None: cull nothing)."""

    def __init__(self, cond_keep, apply_keep):
        self.cond_keep, self.apply_keep, self.log = cond_keep, apply_keep, []

    def cond_edge(self, P, src, dst, eid):
        self.log.append(("cond", src.copy(), dst.copy(), eid.copy()))
        return None if self.cond_keep is None else self.cond_keep[eid]

    def apply_edge(self, P, src, dst, eid):
        self.log.append(("apply", src.copy(), dst.copy(), eid.copy()))
        return None if self.apply_keep is None else self.apply_keep[eid]


@given(st.data(), st.sampled_from(PROVIDERS),
       st.sampled_from(["nothing", "some", "all"]),
       st.sampled_from(["nothing", "some", "all"]))
@settings(max_examples=150, deadline=None)
def test_edge_filter_matches_reference(data, pooled, cond_cull, apply_cull):
    g = data.draw(graphs())
    items = np.asarray(data.draw(st.lists(st.integers(0, max(0, g.m - 1)),
                                          max_size=2 * g.m)), dtype=np.int64)

    def keep(cull):
        if cull == "nothing":
            return None
        if cull == "all":
            return np.zeros(g.m, dtype=bool)
        return np.asarray(data.draw(st.lists(st.booleans(), min_size=g.m,
                                             max_size=g.m)), dtype=bool)

    cond_keep, apply_keep = keep(cond_cull), keep(apply_cull)
    got_f = _RecordingEdgeFunctor(cond_keep, apply_keep)
    want_f = _RecordingEdgeFunctor(cond_keep, apply_keep)
    got_p = _problem(ProblemBase, g, pooled)
    want_p = _problem(ProblemBase, g, pooled)
    got = filter_frontier(got_p, Frontier(items, "edge"), got_f, iteration=1)
    want = filter_edges_reference(want_p, Frontier(items, "edge"), want_f,
                                  iteration=1)
    _same(got.items, want.items)
    assert [c[0] for c in got_f.log] == [c[0] for c in want_f.log]
    for g_call, w_call in zip(got_f.log, want_f.log):
        for a, b in zip(g_call[1:], w_call[1:]):
            _same(a, b)
    assert _charges(got_p.machine) == _charges(want_p.machine)


# -- primitive functors --------------------------------------------------------

def _ranked(g, pooled, residual):
    P = _problem(PagerankProblem, g, pooled)
    P.residual[:] = residual
    return P


@given(st.data(), st.sampled_from(PROVIDERS))
@settings(max_examples=120, deadline=None)
def test_pagerank_distribute_matches_reference(data, pooled):
    g = data.draw(graphs())
    residual = np.asarray(data.draw(st.lists(
        st.floats(0, 1, allow_subnormal=False), min_size=g.n, max_size=g.n)))
    f = Frontier(data.draw(frontiers(g)))
    got_p, want_p = _ranked(g, pooled, residual), _ranked(g, pooled, residual)
    got = advance(got_p, f, _DistributeFunctor())
    want = advance(want_p, f, DistributeReference())
    _same(got.items, want.items)
    _same(got_p.residual_next, want_p.residual_next)
    assert _charges(got_p.machine) == _charges(want_p.machine)


@given(st.data(), st.sampled_from(PROVIDERS))
@settings(max_examples=120, deadline=None)
def test_pagerank_commit_matches_reference(data, pooled):
    g = data.draw(graphs())
    received = np.asarray(data.draw(st.lists(
        st.floats(0, 1, allow_subnormal=False), min_size=g.n, max_size=g.n)))
    f = Frontier(data.draw(frontiers(g, unique=True)))
    got_p, want_p = _ranked(g, pooled, 0.0), _ranked(g, pooled, 0.0)
    for P in (got_p, want_p):
        P.residual_next[:] = received
    got = filter_frontier(got_p, f, _CommitFunctor())
    want = filter_frontier(want_p, f, CommitReference())
    _same(got.items, want.items)
    for name in ("rank", "residual", "residual_next"):
        _same(getattr(got_p, name), getattr(want_p, name))
    assert _charges(got_p.machine) == _charges(want_p.machine)


@given(graphs(), st.sampled_from(["pooled", "unpooled"]))
@settings(max_examples=60, deadline=None)
def test_pagerank_run_matches_reference(g, mode):
    got_m = Machine()
    with engine(mode):
        got = pagerank(g, machine=got_m, max_iterations=20).rank
        want_p = PagerankProblem(g, Machine())
    ReferencePagerankEnactor(want_p, max_iterations=20).enact(
        Frontier.all_vertices(g.n))
    _same(got, want_p.rank)
    assert _charges(got_m) == _charges(want_p.machine)


@given(st.data(), st.sampled_from(PROVIDERS))
@settings(max_examples=120, deadline=None)
def test_sssp_relax_matches_reference(data, pooled):
    g = data.draw(graphs(weighted=True))
    seeds = np.asarray(data.draw(st.lists(st.integers(0, g.n - 1),
                                          min_size=1, max_size=g.n)))
    dist = np.asarray(data.draw(st.lists(st.integers(0, 6), min_size=len(seeds),
                                         max_size=len(seeds))), dtype=np.float64)
    got_p = _problem(SsspProblem, g, pooled)
    want_p = _problem(SsspProblem, g, pooled)
    _same(got_p.weights, g.weight_or_ones())
    for P in (got_p, want_p):
        P.labels[seeds] = dist
        P.preds[seeds] = seeds
    f = Frontier(data.draw(frontiers(g)))
    for _ in range(2):
        got = advance(got_p, f, _RelaxFunctor())
        want = advance(want_p, f, RelaxReference())
        _same(got.items, want.items)
        _same(got_p.labels, want_p.labels)
        _same(got_p.preds, want_p.preds)
        assert _charges(got_p.machine) == _charges(want_p.machine)
        f = got
