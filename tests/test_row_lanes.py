"""``repro.graph.csr.row_lanes`` against the textbook expansion
(``tests/expand_reference.py``): values and dtype on every kind of
``indptr`` the library hands it, plus the ownership contract of its two
results."""

import numpy as np
from hypothesis import given, settings, strategies as st

from expand_reference import row_lanes_reference
from repro.dynamic import MutationBatch
from repro.dynamic.delta import apply
from repro.graph.build import from_edges
from repro.graph.csr import row_lanes


@st.composite
def graphs(draw):
    """Small directed graphs; vertices past the largest endpoint (and any
    the edge list skips) are isolated."""
    n = draw(st.integers(1, 24))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1)), max_size=60))
    if draw(st.booleans()):
        # a single hub: one row owns most lanes
        hub = draw(st.integers(0, n - 1))
        edges += [(hub, v) for v in range(n)]
    return from_edges(np.asarray(edges, dtype=np.int64).reshape(-1, 2), n=n)


@st.composite
def row_sets(draw, n_rows):
    """Row positions: empty / unsorted / with duplicates, by construction."""
    if n_rows == 0:
        return np.zeros(0, dtype=np.int64)
    rows = draw(st.lists(st.integers(0, n_rows - 1), max_size=2 * n_rows))
    return np.asarray(rows, dtype=np.int64)


def _check(indptr, rows):
    degs = indptr[rows + 1] - indptr[rows]
    total = int(degs.sum())
    excl, eids = row_lanes(indptr, rows, degs, total)
    assert excl.dtype == np.int64 and eids.dtype == np.int64
    want_excl, want_eids = row_lanes_reference(indptr, rows, degs, total)
    assert np.array_equal(eids, want_eids)
    if total == 0:
        assert len(excl) == 0
    else:
        assert np.array_equal(excl, want_excl)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_matches_reference_on_csr_csc_and_delta_base(data):
    g = data.draw(graphs())
    version = apply(g, MutationBatch(inserts=[(0, g.n - 1)]))
    for indptr in (g.indptr, g.csc.indptr, version.indptr):
        _check(indptr, data.draw(row_sets(g.n)))


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_all_zero_degree_rows_expand_to_nothing(data):
    g = data.draw(graphs())
    isolated = np.flatnonzero(g.out_degrees == 0)
    rows = np.concatenate([isolated, isolated[::-1]])
    excl, eids = row_lanes(g.indptr, rows, g.degrees_of(rows), 0)
    assert len(excl) == 0 and len(eids) == 0
    assert excl.dtype == np.int64 and eids.dtype == np.int64


def test_eids_are_owned():
    g = from_edges(np.array([[0, 1], [0, 2], [1, 2], [2, 0], [2, 1]]), n=4)
    rows = np.array([2, 0], dtype=np.int64)
    degs = g.degrees_of(rows)
    _, first = row_lanes(g.indptr, rows, degs, 4)
    _, second = row_lanes(g.indptr, rows, degs, 4)
    assert not np.shares_memory(first, second)
    first[:] = -1
    assert second.tolist() == [3, 4, 0, 1]
    # and the inputs are never written
    assert g.indptr.tolist() == [0, 2, 3, 5, 5] and rows.tolist() == [2, 0]
