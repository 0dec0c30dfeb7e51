"""SSSP correctness (vs NetworkX Dijkstra) and priority-queue behavior."""

import tracemalloc

import networkx as nx
import numpy as np
import pytest

from repro.graph import from_edges, generators, with_random_weights
from repro.graph.build import to_networkx
from repro.primitives import sssp, default_delta
from repro.simt import Machine


def nx_dists(g, src):
    return nx.single_source_dijkstra_path_length(
        to_networkx(g), src, weight="weight")


def assert_matches_nx(g, result, src):
    ref = nx_dists(g, src)
    finite = np.isfinite(result.labels)
    assert int(finite.sum()) == len(ref)
    for v, d in ref.items():
        assert result.labels[v] == pytest.approx(d)


@pytest.mark.parametrize("pq", [True, False])
def test_sssp_matches_networkx_kron(kron_weighted, pq):
    r = sssp(kron_weighted, 0, use_priority_queue=pq)
    assert_matches_nx(kron_weighted, r, 0)


@pytest.mark.parametrize("pq", [True, False])
def test_sssp_matches_networkx_road(road_weighted, pq):
    r = sssp(road_weighted, 3, use_priority_queue=pq)
    assert_matches_nx(road_weighted, r, 3)


def test_sssp_unweighted_equals_bfs(kron_graph):
    from repro.primitives import bfs

    r = sssp(kron_graph, 0)
    b = bfs(kron_graph, 0)
    finite = np.isfinite(r.labels)
    assert np.array_equal(r.labels[finite].astype(np.int64),
                          b.labels[finite])


def test_sssp_rejects_negative_weights():
    g = from_edges([(0, 1)], n=2, weights=[-1.0])
    with pytest.raises(ValueError):
        sssp(g, 0)


def test_sssp_source_out_of_range(kron_weighted):
    with pytest.raises(ValueError):
        sssp(kron_weighted, -1)


def test_sssp_preds_consistent(kron_weighted):
    r = sssp(kron_weighted, 0)
    w = kron_weighted.weight_or_ones()
    reached = np.flatnonzero(np.isfinite(r.labels))
    for v in reached[:300]:
        v = int(v)
        if v == 0:
            continue
        p = int(r.preds[v])
        nbrs = kron_weighted.neighbors(p)
        pos = np.flatnonzero(nbrs == v)
        assert len(pos) > 0
        eid = int(kron_weighted.indptr[p]) + int(pos[0])
        assert r.labels[p] + w[eid] == pytest.approx(r.labels[v])


def test_sssp_delta_values_dont_change_answer(road_weighted):
    ref = sssp(road_weighted, 0, use_priority_queue=False).labels
    for delta in (1.0, 8.0, 64.0, 1e9):
        out = sssp(road_weighted, 0, delta=delta).labels
        assert np.allclose(ref, out, equal_nan=True)


def test_sssp_priority_queue_reduces_relaxations_on_road(road_weighted):
    """Near/far saves work where Dijkstra beats Bellman-Ford: long-diameter
    weighted graphs (the Davidson et al. motivation)."""
    m_pq = Machine()
    sssp(road_weighted, 0, use_priority_queue=True, machine=m_pq)
    m_plain = Machine()
    sssp(road_weighted, 0, use_priority_queue=False, machine=m_plain)
    assert m_pq.counters.edges_visited < m_plain.counters.edges_visited


def test_sssp_default_delta_positive(kron_weighted, road_weighted):
    assert default_delta(kron_weighted) > 0
    assert default_delta(road_weighted) > 0


def _kron12(weights):
    g = generators.kronecker(12, seed=1)
    if weights == "integer":
        return with_random_weights(g, seed=1)
    if weights == "float32":
        rng = np.random.default_rng(1)
        return g.with_edge_values(rng.random(g.m, dtype=np.float32) + 0.5)
    return g


@pytest.mark.parametrize("weights", ["unweighted", "integer", "float32"])
def test_default_delta_is_the_weight_or_ones_mean(weights):
    g = _kron12(weights)
    w = g.weight_or_ones()
    avg_w = float(w.mean())
    avg_d = g.m / max(1, g.n)
    assert default_delta(g) == max(avg_w, avg_w * 32.0 / max(1.0, avg_d))


def test_default_delta_allocates_no_unit_weights():
    """An unweighted graph's weights are the shared unit run, so the delta
    heuristic allocates nothing edge-sized to average them."""
    g = _kron12("unweighted")
    default_delta(g)  # the first call may grow the process-wide unit run
    tracemalloc.start()
    try:
        default_delta(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < g.m


def test_sssp_deterministic(kron_weighted):
    a = sssp(kron_weighted, 0)
    b = sssp(kron_weighted, 0)
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.preds, b.preds)


def test_sssp_unreachable_infinite(tiny_graph):
    gw = tiny_graph.with_edge_values(np.ones(tiny_graph.m))
    r = sssp(gw, 0)
    assert np.isinf(r.labels[5])
    assert r.preds[5] == -1


def test_sssp_hub_graph(hub_graph):
    from repro.graph.build import with_random_weights

    gw = with_random_weights(hub_graph, seed=11)
    r = sssp(gw, 0)
    assert_matches_nx(gw, r, 0)


def test_sssp_result_metadata(kron_weighted):
    m = Machine()
    r = sssp(kron_weighted, 0, machine=m)
    assert r.elapsed_ms > 0
    assert r.iterations > 0
    assert m.counters.atomics_issued > 0  # atomicMin relaxations
