"""The frontier-wave damage closure and the one-scatter PageRank residual
seed, held bitwise to the heap bodies they replaced
(``tests/repair_reference.py``).

Each side runs on a fresh ``Machine``; labels, preds and the ``None``
decision must be equal bit for bit, and so must every kernel record and
every ``Counters`` field: the closure's single ``dynamic.repair_closure``
charge is read off the fixpoint, so it must equal what the heap scanned,
on the abort prefix too.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repair_reference import (incremental_pagerank_reference,
                              repair_shortest_paths_reference)
from repro.dynamic import DeltaCsr, MutationBatch, incremental_pagerank
from repro.dynamic.incremental import _repair_shortest_paths
from repro.graph import from_edges
from repro.primitives import bfs, pagerank, sssp
from repro.simt import Machine
from test_dynamic import _step_batch


def _old_result(g, src, unit):
    if unit:
        arrays = bfs(g, src, idempotent=False, direction="push").arrays
    else:
        arrays = sssp(g, src, use_priority_queue=False).arrays
    return arrays["labels"], arrays["preds"]


def _run(fn, *args, **kwargs):
    m = Machine()
    out = fn(*args, machine=m, **kwargs)
    return out, dataclasses.asdict(m.counters)


def _same_bits(a, b):
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _closure_items(counters):
    return [k["items"] for k in counters["kernels"]
            if k["name"] == "dynamic.repair_closure"]


def _assert_matches_heap(g, src, labels, preds, batch, unit):
    """Repair ``g`` (the new graph) both ways; returns the result and
    the counters, which are equal on both sides."""
    args = (g, src, labels, preds, batch)
    out, counters = _run(_repair_shortest_paths, *args, unit=unit)
    ref, ref_counters = _run(repair_shortest_paths_reference, *args,
                             unit=unit)
    assert (out is None) == (ref is None)
    if out is not None:
        assert all(map(_same_bits, out, ref))
    assert counters == ref_counters
    return out, counters


def _mutate(g, batch):
    d = DeltaCsr(g)
    d.apply(batch)
    return d.snapshot()


# -- property: random digraphs with parallel edges -----------------------------


@st.composite
def multigraphs(draw):
    """``(n, edges, weights-or-None, src, seeds)``; edges may repeat."""
    n = draw(st.integers(min_value=3, max_value=24))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda e: e[0] != e[1])
    edges = draw(st.lists(pairs, min_size=2, max_size=60))
    edges += draw(st.lists(st.sampled_from(edges), max_size=12))
    weights = None
    if draw(st.booleans()):
        weights = draw(st.lists(st.integers(1, 8).map(float),
                                min_size=len(edges), max_size=len(edges)))
    src = draw(st.integers(0, n - 1))
    seeds = draw(st.lists(st.integers(0, 2 ** 16), min_size=1, max_size=3))
    return n, edges, weights, src, seeds


@pytest.mark.parametrize("unit", [True, False])
@given(case=multigraphs())
@settings(max_examples=60, deadline=None)
def test_waves_match_the_heap(unit, case):
    n, edges, weights, src, seeds = case
    g = from_edges(edges, n=n, weights=weights)
    labels, preds = _old_result(g, src, unit)
    for seed in seeds:
        batch = _step_batch(g, seed, with_reweights=True)
        g = _mutate(g, batch)
        out, _ = _assert_matches_heap(g, src, labels, preds, batch, unit)
        labels, preds = out if out is not None else _old_result(g, src, unit)


# -- named cases ---------------------------------------------------------------


def test_long_path_aborts():
    """Deleting the first edge of a 200-vertex path damages 199 vertices,
    past the limit of 50: both sides stop at the 51st."""
    g0 = from_edges([(i, i + 1) for i in range(199)], n=200)
    labels, preds = _old_result(g0, 0, True)
    batch = MutationBatch(deletes=[(0, 1)])
    out, counters = _assert_matches_heap(_mutate(g0, batch), 0, labels,
                                         preds, batch, unit=True)
    assert out is None
    # vertices 1..50 scan in- and out-row (1 has no in-row left), 51 its
    # in-row only
    assert _closure_items(counters) == [1 + 49 * 2 + 1]


def test_abort_after_a_vertex_pushed_three_times():
    """Vertex 4 is pushed once per dependent lane from its two damaged
    parents (2 -> 4 is a parallel edge) and stays supported by 3; the
    abort comes later, at the chain's 17th damaged vertex."""
    chain = [(1, 5)] + [(v, v + 1) for v in range(5, 34)]
    edges = [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (2, 4), (3, 4)] + chain
    g0 = from_edges(edges, n=35)
    labels, preds = _old_result(g0, 0, True)
    batch = MutationBatch(deletes=[(0, 1), (0, 2)])
    out, counters = _assert_matches_heap(_mutate(g0, batch), 0, labels,
                                         preds, batch, unit=True)
    assert out is None
    # 1 and 2: out-rows only (2 each); 4: three pushes of a 4-lane
    # in-row; 5..18: in + out (2 each); 19 (the 17th damaged): in-row
    assert _closure_items(counters) == [2 + 2 + 3 * 4 + 14 * 2 + 1]


def test_float_sums_decide_support():
    """``0.1 + 0.2 != 0.3``: the path through 1 does not support 2's
    label, so deleting 0 -> 2 damages 2 and 3, and the repaired label is
    the float sum."""
    edges = [(0, 1), (1, 2), (0, 2), (2, 3)]
    g0 = from_edges(edges, n=4, weights=[0.1, 0.2, 0.3, 1.0])
    labels, preds = _old_result(g0, 0, False)
    assert labels[2] == 0.3
    batch = MutationBatch(deletes=[(0, 2)])
    g = _mutate(g0, batch)
    out, counters = _assert_matches_heap(g, 0, labels, preds, batch,
                                         unit=False)
    assert out[0][2] == 0.1 + 0.2 != 0.3
    assert _same_bits(out[0], _old_result(g, 0, False)[0])
    # 2 and 3 damaged: 2 scans in-row 1 and out-row 1, 3 in-row 1
    assert _closure_items(counters) == [(1 + 1) + (1 + 0)]


def test_supported_vertex_keeps_a_pred_that_still_supports():
    """3 loses its parent 5 and keeps pred 2, a later supporter in CSC
    order than 1."""
    edges = [(0, 1), (0, 2), (0, 5), (1, 3), (2, 3), (5, 3)]
    g0 = from_edges(edges, n=6)
    labels, preds = _old_result(g0, 0, True)
    preds = preds.copy()
    preds[3] = 2
    batch = MutationBatch(deletes=[(5, 3)])
    out, _ = _assert_matches_heap(_mutate(g0, batch), 0, labels, preds,
                                  batch, unit=True)
    assert out[1][3] == 2


def test_reweight_alone_damages():
    edges = [(0, 1), (1, 2), (0, 2)]
    g0 = from_edges(edges, n=3, weights=[1.0, 1.0, 5.0])
    labels, preds = _old_result(g0, 0, False)
    batch = MutationBatch(reweights=[(0, 1)], reweight_values=[3.0])
    g = _mutate(g0, batch)
    out, counters = _assert_matches_heap(g, 0, labels, preds, batch,
                                         unit=False)
    assert list(out[0]) == [0.0, 3.0, 4.0]
    assert _closure_items(counters) == [(1 + 1) + (2 + 0)]


@pytest.mark.parametrize("unit", [True, False])
def test_deleting_an_edge_into_src_is_no_trigger(unit):
    g0 = from_edges([(0, 1), (1, 0), (1, 2)], n=3, weights=[1.0, 2.0, 3.0])
    labels, preds = _old_result(g0, 0, unit)
    batch = MutationBatch(deletes=[(1, 0)])
    out, counters = _assert_matches_heap(_mutate(g0, batch), 0, labels,
                                         preds, batch, unit)
    assert all(map(_same_bits, out, (labels, preds)))
    assert _closure_items(counters) == []


@pytest.mark.parametrize("unit", [True, False])
def test_deleting_an_edge_into_an_unreached_vertex_is_no_trigger(unit):
    g0 = from_edges([(0, 1), (2, 3)], n=4, weights=[1.0, 2.0])
    labels, preds = _old_result(g0, 0, unit)
    batch = MutationBatch(deletes=[(2, 3)])
    out, counters = _assert_matches_heap(_mutate(g0, batch), 0, labels,
                                         preds, batch, unit)
    assert all(map(_same_bits, out, (labels, preds)))
    assert _closure_items(counters) == []


def test_zero_weight_is_refused():
    g0 = from_edges([(0, 1), (1, 2), (0, 2)], n=3, weights=[0.0, 1.0, 4.0])
    labels, preds = _old_result(g0, 0, False)
    batch = MutationBatch(deletes=[(0, 2)])
    out, counters = _assert_matches_heap(_mutate(g0, batch), 0, labels,
                                         preds, batch, unit=False)
    assert out is None and counters["kernels"] == []


# -- PageRank residual seed ----------------------------------------------------


@given(case=multigraphs())
@settings(max_examples=40, deadline=None)
def test_one_scatter_seed_matches_the_per_source_loop(case):
    n, edges, _, _, seeds = case
    g = from_edges(edges, n=n)
    rank = pagerank(g).arrays["rank"]
    for seed in seeds:
        batch = _step_batch(g, seed, with_reweights=False)
        new_g = _mutate(g, batch)
        out, counters = _run(incremental_pagerank, g, new_g, rank, batch)
        ref, ref_counters = _run(incremental_pagerank_reference, g, new_g,
                                 rank, batch)
        assert _same_bits(out, ref)
        assert counters == ref_counters
        assert {k["name"] for k in counters["kernels"]} \
            <= {"dynamic.pagerank_push"}
        g, rank = new_g, out
