"""The process-wide read-only constants of ``repro.graph.csr``: an iota
ramp and all-True / all-False lane masks, recognised by their base, and
the owned outputs of the operators that use them."""

import numpy as np
import pytest

from repro.core import Frontier, Functor, advance, filter_frontier
from repro.core.functor import resolve_masks
from repro.graph.build import from_edges
from repro.graph.csr import (false_mask, iota, is_false_mask, is_true_mask,
                             row_lanes, true_mask)
from repro.primitives.bfs import BfsProblem


def _graph():
    return from_edges(np.array([[0, 1], [0, 2], [1, 2], [2, 0], [2, 1]]),
                      n=4)


def _outgrow(const):
    """Replace the run behind ``const`` by a longer one."""
    const(len(const(0).base) + 1)


# -- values, dtype, read-only ---------------------------------------------------


def test_iota_values_and_readonly():
    for size in (0, 1, 10, 5000):
        r = iota(size)
        assert r.dtype == np.int64
        assert np.array_equal(r, np.arange(size))
    with pytest.raises(ValueError):
        iota(10)[0] = 5


def test_masks_readonly():
    for const in (true_mask, false_mask):
        with pytest.raises(ValueError):
            const(4)[0] = False
        # a view of a read-only run cannot be made writable
        with pytest.raises(ValueError):
            const(4).setflags(write=True)


def test_true_false_masks_identity():
    for size in (0, 1, 9, 3000):
        t, f = true_mask(size), false_mask(size)
        assert t.dtype == f.dtype == np.bool_
        assert len(t) == len(f) == size
        assert t.all() and not f.any()
        assert is_true_mask(t) and is_false_mask(f)
        assert not is_true_mask(f) and not is_false_mask(t)
    assert not is_true_mask(np.ones(9, dtype=bool))
    assert not is_false_mask(np.zeros(9, dtype=bool))
    # recognised by base: any view of the current run
    assert is_true_mask(true_mask(9)[2:5])


# -- growth ----------------------------------------------------------------------


def test_runs_grow_geometrically_and_keep_their_values():
    for const in (iota, true_mask, false_mask):
        cap = len(const(0).base)
        assert cap >= 1024 and cap & (cap - 1) == 0
        _outgrow(const)
        assert len(const(0).base) == 2 * cap
    assert np.array_equal(iota(3), [0, 1, 2])


def test_a_view_from_before_growth_is_not_recognised_and_stays_correct():
    """A mask handed out before its run was outgrown is no longer known
    all-True / all-False: operators take the scanning path with it, and
    answer exactly as with the current run."""
    g = _graph()
    stale_t, stale_f = true_mask(5), false_mask(5)
    _outgrow(true_mask)
    _outgrow(false_mask)
    assert not is_true_mask(stale_t) and not is_false_mask(stale_f)
    assert stale_t.all() and not stale_f.any()

    class Returns(Functor):
        def __init__(self, cond, apply):
            self.cond, self.apply = cond, apply

        def cond_edge(self, P, src, dst, eid):
            return self.cond

        def apply_edge(self, P, src, dst, eid):
            return self.apply

    frontier = Frontier(np.arange(g.n, dtype=np.int64))
    everything = advance(BfsProblem(g), frontier, Functor())
    kept = advance(BfsProblem(g), frontier, Returns(stale_t, None))
    assert np.array_equal(kept.items, everything.items)
    assert len(advance(BfsProblem(g), frontier, Returns(None, stale_f))) == 0

    edges = Frontier(np.arange(g.m, dtype=np.int64), "edge")
    out = filter_frontier(BfsProblem(g), edges, Returns(stale_t, None))
    assert np.array_equal(out.items, edges.items)


# -- operator outputs are owned ----------------------------------------------


def test_returned_arrays_are_owned():
    """No operator output aliases shared state: a later call leaves an
    earlier result as it was."""
    g = _graph()
    rows = np.array([2, 0], dtype=np.int64)
    degs = g.degrees_of(rows)
    excl1, eids1 = row_lanes(g.indptr, rows, degs, 4)
    excl2, eids2 = row_lanes(g.indptr, rows, degs, 4)
    assert not np.shares_memory(excl1, excl2)
    assert not np.shares_memory(eids1, iota(4))

    P = BfsProblem(g)
    P.set_source(0)
    first = P.unvisited_mask()
    P.labels[2] = 1
    second = P.unvisited_mask()
    assert first.tolist() == [False, True, True, True]
    assert second.tolist() == [False, True, False, True]

    a, b, c = (np.array(m, dtype=bool) for m in
               ([1, 1, 0, 1], [1, 0, 1, 1], [1, 1, 1, 0]))
    got = resolve_masks(4, a, b, c)
    resolve_masks(4, ~a, ~b, ~c)
    assert got.tolist() == [True, False, False, False]
    assert is_true_mask(resolve_masks(4))
