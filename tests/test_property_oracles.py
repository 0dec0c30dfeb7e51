"""Property tests: extension primitives vs. the serial reference oracles.

Each hypothesis-generated random graph is pushed through the library
primitive AND the plain-Python oracle in :mod:`repro.reference`; the
structural invariant (proper coloring, maximal independence, exact core
numbers, exact triangle count, label-propagation consistency) must hold
on every example — pooled and unpooled.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro import reference
from repro.core.engine import engine
from repro.graph import from_edges
from repro.primitives import (color, kcore, label_propagation, mis,
                              triangle_count)


@st.composite
def undirected_graphs(draw, max_n=24, max_m=90):
    n = draw(st.integers(min_value=1, max_value=max_n))
    m = draw(st.integers(min_value=0, max_value=max_m))
    edges = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        min_size=m, max_size=m))
    # drop self-loops: coloring/MIS invariants are stated on simple graphs
    edges = [(a, b) for a, b in edges if a != b]
    return from_edges(edges, n=n, undirected=True) if edges \
        else from_edges([], n=n)


@given(undirected_graphs(), st.integers(0, 2**16), st.booleans())
@settings(max_examples=50, deadline=None)
def test_coloring_is_proper(g, seed, pooled):
    with engine("pooled" if pooled else "unpooled"):
        r = color(g, seed=seed)
    assert reference.is_proper_coloring(g, r.colors)
    assert r.num_colors >= (1 if g.n else 0)


@given(undirected_graphs(), st.integers(0, 2**16), st.booleans())
@settings(max_examples=50, deadline=None)
def test_mis_is_maximal_independent(g, seed, pooled):
    with engine("pooled" if pooled else "unpooled"):
        r = mis(g, seed=seed)
    members = np.flatnonzero(r.in_set)
    assert reference.is_maximal_independent_set(g, members)
    assert r.set_size == len(members)


@given(undirected_graphs(), st.booleans())
@settings(max_examples=50, deadline=None)
def test_kcore_matches_reference_exactly(g, pooled):
    with engine("pooled" if pooled else "unpooled"):
        r = kcore(g)
    assert r.core_numbers.tolist() == reference.core_numbers(g)


@given(undirected_graphs(), st.booleans())
@settings(max_examples=50, deadline=None)
def test_triangles_match_reference_exactly(g, pooled):
    with engine("pooled" if pooled else "unpooled"):
        r = triangle_count(g)
    assert r.total == reference.triangle_count(g)
    # each triangle credits all three corners
    assert int(r.per_vertex.sum()) == 3 * r.total


@given(undirected_graphs(), st.integers(0, 2**16), st.booleans())
@settings(max_examples=50, deadline=None)
def test_label_prop_labels_consistent_and_stable(g, seed, pooled):
    max_iterations = 60
    with engine("pooled" if pooled else "unpooled"):
        r = label_propagation(g, seed=seed, max_iterations=max_iterations)
    # labels always name a vertex of the same connected component
    assert reference.label_prop_consistent(g, r.labels)
    if r.iterations < max_iterations:
        # converged runs sit at the synchronous-LP fixed point; capped
        # runs may have stopped mid-oscillation, so only check then
        assert reference.label_prop_is_stable(g, r.labels)


def test_oracle_rejects_bad_certificates(tiny_graph):
    g = tiny_graph
    assert not reference.is_proper_coloring(g, [0] * g.n)
    assert not reference.is_proper_coloring(g, [0])           # wrong length
    assert not reference.is_proper_coloring(g, [-1] * g.n)    # negative
    assert not reference.is_independent_set(g, [0, 1])        # edge 0-1
    assert reference.is_independent_set(g, [2, 3, 5])
    # independent but not maximal: vertex 5 (isolated) could join
    assert not reference.is_maximal_independent_set(g, [0, 2, 4])
    assert reference.is_maximal_independent_set(g, [0, 2, 4, 5])
    # label from another component
    bad = list(range(g.n))
    bad[5] = 0
    assert not reference.label_prop_consistent(g, bad)
    assert not reference.label_prop_consistent(g, [g.n] * g.n)
