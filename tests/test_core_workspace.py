"""Workspace arena unit tests: scratch pooling, constant views, bitmap
sparse-clear, expansion memo, pooling derived from the engine."""

import numpy as np
import pytest

from repro.core.engine import engine, engine_mode, set_engine
from repro.core.workspace import Workspace, pooling_enabled, workspace_of


# -- take: pooled scratch ---------------------------------------------------


def test_take_returns_exact_size_view():
    ws = Workspace(pooled=True)
    a = ws.take("x", 10)
    assert len(a) == 10
    assert a.dtype == np.int64


def test_take_reuses_backing_for_same_role():
    ws = Workspace(pooled=True)
    a = ws.take("x", 10)
    b = ws.take("x", 10)
    assert a.base is b.base
    assert ws.stats["allocations"] == 1


def test_take_grows_geometrically():
    ws = Workspace(pooled=True)
    ws.take("x", 10)
    ws.take("x", 5000)   # grows
    ws.take("x", 3000)   # fits in grown backing
    assert ws.stats["allocations"] == 2


def test_take_roles_are_independent():
    ws = Workspace(pooled=True)
    a = ws.take("a", 8)
    b = ws.take("b", 8)
    a[:] = 1
    b[:] = 2
    assert a.sum() == 8 and b.sum() == 16


def test_take_dtypes_are_independent():
    ws = Workspace(pooled=True)
    a = ws.take("x", 8, np.int64)
    b = ws.take("x", 8, np.bool_)
    assert a.dtype == np.int64 and b.dtype == np.bool_


def test_take_fill():
    ws = Workspace(pooled=True)
    a = ws.take("x", 6, np.int64, fill=7)
    assert a.tolist() == [7] * 6


def test_take_unpooled_allocates_fresh():
    ws = Workspace(pooled=False)
    a = ws.take("x", 10)
    b = ws.take("x", 10)
    assert a.base is None and b.base is None
    a[:] = 1
    assert b is not a


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


# -- bitmap scatter ---------------------------------------------------------


def test_bitmap_scatter_sets_exactly_items():
    ws = Workspace(pooled=True)
    bm = ws.bitmap_scatter("f", 16, np.array([1, 5, 9]))
    assert np.flatnonzero(bm).tolist() == [1, 5, 9]


def test_bitmap_scatter_sparse_clear_between_calls():
    ws = Workspace(pooled=True)
    ws.bitmap_scatter("f", 16, np.array([1, 5, 9]))
    bm = ws.bitmap_scatter("f", 16, np.array([2, 3]))
    assert np.flatnonzero(bm).tolist() == [2, 3]


def test_bitmap_scatter_rejects_out_of_range():
    ws = Workspace(pooled=True)
    with pytest.raises(ValueError):
        ws.bitmap_scatter("f", 4, np.array([4]))


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


def test_clear_forgets_every_expansion():
    ws = Workspace(pooled=True)
    graphs = [object() for _ in range(3)]
    f = np.array([4], dtype=np.int64)
    for g in graphs:
        ws.remember_expansion(g, f, ("out",))
    ws.clear()
    assert all(ws.expansion_memo(g, f) is None for g in graphs)


# -- stats / maintenance ----------------------------------------------------


def test_nbytes_and_clear():
    ws = Workspace(pooled=True)
    ws.take("x", 100)
    ws.iota(100)
    ws.true_mask(100)
    ws.bitmap_scatter("f", 100, np.array([3]))
    assert ws.nbytes() > 0
    ws.clear()
    assert ws.nbytes() == 0


# -- pooling follows the engine selector ------------------------------------


def test_pooling_context_restores():
    """Pooling is derived from the one engine selector: a scoped
    ``engine()`` flips it for Workspaces built inside and restores the
    previous mode on exit."""
    before_mode, before = engine_mode(), pooling_enabled()
    with engine("unpooled" if before else "pooled"):
        assert pooling_enabled() is (not before)
        ws = Workspace()
        assert ws.pooled is (not before)
    assert engine_mode() == before_mode
    assert pooling_enabled() is before


def test_set_engine_returns_previous_and_scopes_nest():
    """``engine()`` nests inside ``set_engine``: leaving the scope puts
    back the process-wide choice, not the default."""
    import repro.core.engine as E

    saved, before = E._ENGINE, engine_mode()
    try:
        assert set_engine("unpooled") == before
        assert pooling_enabled() is False
        with engine("fused"):
            assert pooling_enabled() is True
        assert engine_mode() == "unpooled"
        assert pooling_enabled() is False
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
