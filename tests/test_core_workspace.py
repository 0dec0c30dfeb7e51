"""Workspace unit tests: constant views, expansion memo, owned operator
outputs, the provider derived from the engine."""

import numpy as np
import pytest

from repro.core.engine import engine, engine_mode, set_engine
from repro.core.functor import resolve_masks
from repro.core.workspace import Workspace, workspace_of
from repro.graph.build import from_edges
from repro.graph.csr import row_lanes
from repro.primitives.bfs import BfsProblem


# -- constant views ---------------------------------------------------------


def test_iota_values_and_readonly():
    ws = Workspace(pooled=True)
    r = ws.iota(10)
    assert np.array_equal(r, np.arange(10))
    with pytest.raises(ValueError):
        r[0] = 5


def test_true_false_masks_identity():
    ws = Workspace(pooled=True)
    t = ws.true_mask(9)
    f = ws.false_mask(9)
    assert t.all() and not f.any()
    assert ws.is_true_view(t) and ws.is_false_view(f)
    assert not ws.is_true_view(np.ones(9, dtype=bool))
    assert not ws.is_false_view(np.zeros(9, dtype=bool))
    # stable across calls (identity is how operators skip scans)
    assert ws.true_mask(9) is t


def test_masks_readonly():
    ws = Workspace(pooled=True)
    with pytest.raises(ValueError):
        ws.true_mask(4)[0] = False


def test_unpooled_constants_are_fresh_and_writable():
    ws = Workspace(pooled=False)
    t = ws.true_mask(4)
    t[0] = False  # legacy behavior: plain owned array
    assert not ws.is_true_view(ws.true_mask(4))


def test_unpooled_workspace_never_recognises_a_constant_view():
    # the operators ask is_true_view / is_false_view without checking
    # ws.pooled first: only pooled mode may register a view
    ws = Workspace(pooled=False)
    for size in (0, 1, 9):
        t, f = ws.true_mask(size), ws.false_mask(size)
        assert not ws.is_true_view(t) and not ws.is_false_view(f)
        assert not ws.is_true_view(f) and not ws.is_false_view(t)
    assert not ws._true_views and not ws._false_views


# -- expansion memo ---------------------------------------------------------


def test_expansion_memo_roundtrip():
    ws = Workspace(pooled=True)
    g = object()
    f = np.array([1, 2, 3], dtype=np.int64)
    out = ("srcs", "dsts", "eids", "degs")
    ws.remember_expansion(g, f, out)
    assert ws.expansion_memo(g, f) is out
    assert ws.expansion_memo(g, f.copy()) is out  # element-wise match
    assert ws.expansion_memo(g, np.array([1, 2, 4])) is None
    assert ws.expansion_memo(object(), f) is None  # other graph


def test_expansion_memo_keeps_one_entry_per_graph():
    # SALSA/HITS alternate a graph and its reverse: both entries survive
    ws = Workspace(pooled=True)
    g, rev = object(), object()
    fl, fr = np.array([0, 1], dtype=np.int64), np.array([2, 3, 4])
    out_l, out_r = ("left",), ("right",)
    ws.remember_expansion(g, fl, out_l)
    ws.remember_expansion(rev, fr, out_r)
    for _ in range(3):
        assert ws.expansion_memo(g, fl.copy()) is out_l
        assert ws.expansion_memo(rev, fr.copy()) is out_r
    # a new frontier on one graph replaces that graph's entry only
    ws.remember_expansion(g, fr, out_r)
    assert ws.expansion_memo(g, fl) is None
    assert ws.expansion_memo(g, fr) is out_r
    assert ws.expansion_memo(rev, fr) is out_r


def test_expansion_memo_misses_an_equal_frontier_on_another_graph():
    ws = Workspace(pooled=True)
    g, other = object(), object()
    f = np.array([1, 2, 3], dtype=np.int64)
    ws.remember_expansion(g, f, ("out",))
    assert ws.expansion_memo(other, f) is None
    assert ws.expansion_memo(other, f.copy()) is None


# -- operator outputs are owned ---------------------------------------------


def test_returned_arrays_are_owned():
    """No operator output aliases workspace state: a later call on the
    same pooled workspace leaves an earlier result as it was."""
    ws = Workspace(pooled=True)
    g = from_edges(np.array([[0, 1], [0, 2], [1, 2], [2, 0], [2, 1]]), n=4)
    rows = np.array([2, 0], dtype=np.int64)
    degs = g.degrees_of(rows)
    excl1, _ = row_lanes(g.indptr, rows, degs, 4, ws)
    excl2, _ = row_lanes(g.indptr, rows, degs, 4, ws)
    assert not np.shares_memory(excl1, excl2)

    P = BfsProblem(g)
    P.workspace = ws
    P.set_source(0)
    first = P.unvisited_mask()
    P.labels[2] = 1
    second = P.unvisited_mask()
    assert first.tolist() == [False, True, True, True]
    assert second.tolist() == [False, True, False, True]

    a, b, c = (np.array(m, dtype=bool) for m in
               ([1, 1, 0, 1], [1, 0, 1, 1], [1, 1, 1, 0]))
    got = resolve_masks(4, a, b, c, workspace=ws)
    resolve_masks(4, ~a, ~b, ~c, workspace=ws)
    assert got.tolist() == [True, False, False, False]


# -- the provider follows the engine selector ------------------------------------


def test_pooling_context_restores():
    """Pooling is derived from the one engine selector: a scoped
    ``engine()`` flips it for Workspaces built inside and restores the
    previous mode on exit."""
    before_mode, before = engine_mode(), Workspace().pooled
    with engine("unpooled" if before else "pooled"):
        assert Workspace().pooled is (not before)
    assert engine_mode() == before_mode
    assert Workspace().pooled is before


def test_set_engine_returns_previous_and_scopes_nest():
    """``engine()`` nests inside ``set_engine``: leaving the scope puts
    back the process-wide choice, not the default."""
    import repro.core.engine as E

    saved, before = E._ENGINE, engine_mode()
    try:
        assert set_engine("unpooled") == before
        assert Workspace().pooled is False
        with engine("fused"):
            assert Workspace().pooled is True
        assert engine_mode() == "unpooled"
        assert Workspace().pooled is False
    finally:
        E._ENGINE = saved


def test_workspace_captures_mode_at_construction():
    with engine("unpooled"):
        ws = Workspace()
    assert ws.pooled is False
    with engine("pooled"):
        assert ws.pooled is False  # captured, not live


def test_workspace_of_fallback_is_unpooled():
    class Bare:
        pass

    ws = workspace_of(Bare())
    assert isinstance(ws, Workspace)
    assert not ws.pooled
