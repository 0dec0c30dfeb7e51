"""Property test: BFS direction strategies agree on depth arrays.

Direction-optimized BFS (Beamer's push/pull switch, Section 5.1) must be
an *optimization*, never a semantic change: for any graph and source,
``push``, ``pull``, and ``auto`` produce identical depth arrays — with
workspace pooling on or off, idempotent or not.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.engine import engine
from repro.graph import from_edges
from repro.primitives import bfs
from repro.reference import bfs_depths

DIRECTIONS = ("push", "pull", "auto")


@st.composite
def graphs_and_src(draw, max_n=28, max_m=110):
    n = draw(st.integers(min_value=1, max_value=max_n))
    m = draw(st.integers(min_value=0, max_value=max_m))
    edges = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        min_size=m, max_size=m))
    src = draw(st.integers(0, n - 1))
    return n, edges, src


def _build(n, edges):
    return from_edges(edges, n=n, undirected=True) if edges \
        else from_edges([], n=n)


@given(graphs_and_src(), st.booleans(), st.booleans())
@settings(max_examples=60, deadline=None)
def test_push_pull_auto_identical_depths(data, idempotent, pooled):
    n, edges, src = data
    g = _build(n, edges)
    with engine("pooled" if pooled else "unpooled"):
        depths = {d: bfs(g, src, direction=d, idempotent=idempotent).labels
                  for d in DIRECTIONS}
    assert np.array_equal(depths["push"], depths["pull"])
    assert np.array_equal(depths["push"], depths["auto"])
    # and all three match the serial oracle
    assert depths["push"].tolist() == bfs_depths(g, src)


@given(graphs_and_src())
@settings(max_examples=40, deadline=None)
def test_direction_identical_predecessors_are_valid(data):
    """Whatever direction ran, every recorded predecessor must be an
    actual in-neighbor one level shallower."""
    n, edges, src = data
    g = _build(n, edges)
    for direction in DIRECTIONS:
        r = bfs(g, src, direction=direction)
        labels, preds = r.labels, r.preds
        for v in range(n):
            if v == src or labels[v] < 0:
                continue
            p = int(preds[v])
            assert labels[p] == labels[v] - 1
            assert v in g.neighbors(p)


@given(graphs_and_src(max_n=20, max_m=70))
@settings(max_examples=30, deadline=None)
def test_pooled_unpooled_identical_per_direction(data):
    """Pooling is invisible per direction: same labels AND same simulated
    cycle totals."""
    from repro.simt import Machine

    n, edges, src = data
    g = _build(n, edges)
    for direction in DIRECTIONS:
        out = {}
        for mode in (True, False):
            with engine("pooled" if mode else "unpooled"):
                m = Machine()
                out[mode] = (bfs(g, src, machine=m, direction=direction),
                             m.counters.cycles)
        assert np.array_equal(out[True][0].labels, out[False][0].labels)
        assert out[True][1] == out[False][1]
