"""A dropped graph is freed when it is dropped.

Caches hang off a :class:`~repro.graph.csr.Csr` (artifacts, its CSC and
the CSC's own caches, the transpose, fused plans).  None of them may
point back at the graph strongly: a reference cycle would keep every
throwaway graph — batch composites, per-request bipartite graphs,
delta snapshots — alive until a generation-2 collection.
"""

import gc
import weakref
from contextlib import contextmanager

import numpy as np

from repro.analysis.plan import plan_for
from repro.dynamic import DeltaCsr, MutationBatch
from repro.graph import from_edges, generators, with_random_weights
from repro.graph.csr import ArtifactCache, Csr
from repro.primitives import bfs, pagerank
from repro.serve import WorkloadSpec, run_sharded_serving


@contextmanager
def _collector_off():
    was = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was:
            gc.enable()


def _build_every_cache(g):
    g.artifacts.weights64
    g.artifacts.segments
    assert g.csc.csc is g
    g.csc.artifacts.weights64
    g.csc.artifacts.transpose_ones
    assert g.artifacts.transpose_ones is not None
    plan_for("bfs", g)
    bfs(g, 0)
    pagerank(g)


def test_dropped_graph_is_freed_without_the_collector():
    g = with_random_weights(generators.kronecker(7, seed=1), seed=2)
    with _collector_off():
        _build_every_cache(g)
        alive, csc_alive = weakref.ref(g), weakref.ref(g.csc)
        del g
        assert alive() is None and csc_alive() is None


def test_snapshot_sharing_topology_is_freed_without_the_collector():
    g = with_random_weights(generators.kronecker(6, seed=1), seed=2)
    g.csc
    u, v = int(g.edge_sources[0]), int(g.indices[0])
    with _collector_off():
        d = DeltaCsr(g)
        d.apply(MutationBatch(reweights=[(u, v)], reweight_values=[7.0]))
        snap = d.snapshot()
        assert snap.indices is g.indices and snap.csc.csc is snap
        _build_every_cache(snap)
        alive = weakref.ref(snap)
        del d, snap
        assert alive() is None
    assert g.csc.csc is g


def test_a_temporary_graph_answers_its_artifacts():
    def tmp():
        return Csr(np.array([0, 2, 3, 3]), np.array([1, 2, 0]))

    assert tmp().artifacts.out_degrees.tolist() == [2, 1, 0]
    assert tmp().artifacts.edge_sources.tolist() == [0, 0, 1]
    assert tmp().artifacts.transpose_ones.toarray().tolist() == \
        tmp().csc.artifacts.transpose_ones.toarray().T.tolist()


def test_a_csc_outlives_its_graph():
    g = from_edges([(0, 1), (0, 2), (2, 1)], n=3)
    csc = g.csc
    del g
    assert csc.csc == from_edges([(0, 1), (0, 2), (2, 1)], n=3)


def test_serving_replay_leaves_no_graph_for_the_collector():
    g = with_random_weights(generators.kronecker(8, seed=3), seed=5)
    spec = WorkloadSpec(requests=120, seed=7, updates=3,
                        update_interval_ms=5.0, update_kind="edges",
                        delta_frac=0.01, arrival_rate_rps=3000.0)
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run_sharded_serving(g, spec, shards=2, replicas=2, incremental=True,
                            kill_schedule="3:0:1")
        gc.collect()
        left = [type(o).__name__ for o in gc.garbage
                if isinstance(o, (Csr, ArtifactCache))]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert left == []
