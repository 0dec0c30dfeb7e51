"""Streaming graph mutations: delta-CSR units + incremental-repair
equivalence properties.

The property tests are the contract the serving tier leans on: after any
random interleaving of inserts, deletes, reweights, and compactions,

* delta-BFS / delta-SSSP labels are **bitwise equal** to a from-scratch
  run on the compacted graph (predecessors are pinned by the support
  oracle instead — the from-scratch engine's preds are lane-order
  artifacts);
* incremental PageRank is as converged as a from-scratch run, certified
  by the residual-defect bound ``||p − p*||_∞ ≤ ||defect||₁ / (1 − d)``;
* a repair handed a ``DeltaCsr`` is the same call on its snapshot CSR,
  bitwise in outputs and in charged kernels.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.dynamic import (DeltaCsr, MutationBatch, WEIGHT_INSENSITIVE,
                           delta_bfs, delta_sssp, incremental_pagerank,
                           random_mutation_batch, unaffected_primitives)
from repro.dynamic.incremental import pagerank_defect, repair_payload
from repro.graph import from_edges, with_random_weights
from repro.primitives import bfs, pagerank, sssp
from repro.simt import Machine


def _chain(edges, n, weighted, wseed=3):
    g = from_edges(edges, n=n) if edges else from_edges([], n=n)
    if weighted:
        g = with_random_weights(g, seed=wseed)
    return g


# -- MutationBatch semantics --------------------------------------------------


def test_batch_classification():
    b = MutationBatch(deletes=[(0, 1)], inserts=[(2, 3)])
    assert b.structural and not b.weight_only and b.size == 2
    assert list(b.touched_sources) == [0, 2]
    assert list(b.touched_vertices) == [0, 1, 2, 3]
    w = MutationBatch(reweights=[(0, 1)], reweight_values=[2.0])
    assert w.weight_only and not w.structural
    assert unaffected_primitives(w) == WEIGHT_INSENSITIVE
    assert unaffected_primitives(b) == frozenset()


def test_batch_validation():
    with pytest.raises(ValueError):
        MutationBatch(reweights=[(0, 1)])  # missing values
    with pytest.raises(ValueError):
        MutationBatch(inserts=[(0, 1)], all_weights=np.ones(3))
    b = MutationBatch(inserts=[(0, 9)])
    with pytest.raises(ValueError):
        b.validate_for(4)


# -- DeltaCsr mechanics -------------------------------------------------------


def test_delta_insert_delete_rows():
    g = _chain([(0, 1), (0, 2), (1, 2)], 4, False)
    d = DeltaCsr(g)
    d.apply(MutationBatch(deletes=[(0, 1)], inserts=[(2, 3), (0, 3)]))
    assert d.m == g.m + 1
    nbr, w = d.out_row(0)
    assert list(nbr) == [2, 3] and w is None
    assert list(d.out_row(2)[0]) == [3]
    assert d.out_degrees[0] == 2 and d.out_degrees[2] == 1


def test_delta_errors_on_absent_edges():
    g = _chain([(0, 1)], 3, True)
    d = DeltaCsr(g)
    with pytest.raises(ValueError):
        d.apply(MutationBatch(deletes=[(1, 0)]))
    with pytest.raises(ValueError):
        d.apply(MutationBatch(reweights=[(0, 2)], reweight_values=[2.0]))
    with pytest.raises(ValueError):
        d.apply(MutationBatch(inserts=[(0, 2)]))  # weighted needs weights


def test_delta_snapshot_matches_rows_and_compacts():
    g = _chain([(0, 1), (1, 2), (2, 0), (2, 3)], 5, True)
    d = DeltaCsr(g)
    d.apply(MutationBatch(deletes=[(2, 0)], inserts=[(3, 4), (0, 4)],
                          insert_weights=[5.0, 7.0],
                          reweights=[(0, 1)], reweight_values=[9.0]))
    snap = d.snapshot()
    assert snap.m == d.m
    for v in range(d.n):
        nbr, w = d.out_row(v)
        lo, hi = snap.indptr[v], snap.indptr[v + 1]
        assert np.array_equal(snap.indices[lo:hi], nbr)
        if w is not None:
            assert np.array_equal(snap.artifacts.weights64[lo:hi], w)
    compacted = d.compact()
    assert compacted is snap
    assert d.base is snap and not d.pending and d.log_edges == 0
    assert d.compactions == 1
    # post-compaction reads come straight from the new base
    assert np.array_equal(d.out_row(0)[0], snap.indices[:snap.indptr[1]])


def test_weight_only_snapshot_shares_topology():
    g = _chain([(0, 1), (1, 2)], 3, True)
    d = DeltaCsr(g)
    d.apply(MutationBatch(reweights=[(0, 1)], reweight_values=[3.5]))
    snap = d.snapshot()
    assert snap.indptr is g.indptr and snap.indices is g.indices
    assert float(snap.artifacts.weights64[0]) == 3.5


def test_all_weights_rebases():
    g = _chain([(0, 1), (1, 2)], 3, True)
    d = DeltaCsr(g)
    vals = np.array([2.0, 4.0])
    d.apply(MutationBatch(all_weights=vals))
    snap = d.snapshot()
    assert np.array_equal(snap.artifacts.weights64, vals)
    assert snap.indices is g.indices
    assert d.base is snap and d.compactions == 1


def test_compaction_policy_is_log_threshold():
    g = _chain([(i, i + 1) for i in range(50)], 51, False)
    d = DeltaCsr(g, compact_threshold=0.05)
    d.apply(MutationBatch(deletes=[(0, 1)]))
    assert not d.should_compact()        # floor is 64 mutations
    d.log_edges = 64
    assert d.should_compact()


def test_snapshot_charges_simulated_clock():
    g = _chain([(0, 1), (1, 2), (2, 0)], 3, False)
    d = DeltaCsr(g)
    d.apply(MutationBatch(inserts=[(0, 2)]))
    machine = Machine()
    d.snapshot(machine=machine)
    assert machine.elapsed_ms() > 0
    assert machine.counters.bytes_moved > 0


def test_random_mutation_batch_deterministic(kron_graph):
    a = random_mutation_batch(kron_graph, 42, frac=0.01)
    b = random_mutation_batch(kron_graph, 42, frac=0.01)
    assert np.array_equal(a.inserts, b.inserts)
    assert np.array_equal(a.deletes, b.deletes)
    assert a.structural and a.size > 0


# -- incremental-repair equivalence (hypothesis) ------------------------------


@st.composite
def mutation_scenarios(draw, weighted):
    n = draw(st.integers(min_value=4, max_value=20))
    m = draw(st.integers(min_value=3, max_value=50))
    edges = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        min_size=m, max_size=m))
    edges = [(u, v) for u, v in edges if u != v]
    src = draw(st.integers(0, n - 1))
    steps = draw(st.lists(st.tuples(
        st.integers(0, 2 ** 16),      # mutation seed
        st.booleans(),                # add reweights (weighted only)
        st.booleans(),                # compact after this step
    ), min_size=1, max_size=4))
    wseed = draw(st.integers(0, 2 ** 16)) if weighted else 0
    return n, edges, src, steps, wseed


def _step_batch(csr, seed, with_reweights):
    """One interleaved batch: deletes+inserts (via the library helper),
    plus reweights of surviving edges when asked."""
    b = random_mutation_batch(csr, seed, frac=0.15)
    if not with_reweights or csr.edge_values is None or not csr.m:
        return b
    rng = np.random.default_rng(seed + 1)
    eids = rng.choice(csr.m, size=max(1, csr.m // 8), replace=False)
    pairs = np.unique(np.stack(
        [csr.edge_sources[eids], csr.indices[eids]], axis=1), axis=0)
    dead = {tuple(p) for p in b.deletes}
    keep = np.array([tuple(p) not in dead for p in pairs], dtype=bool)
    pairs = pairs[keep]
    if not len(pairs):
        return b
    vals = rng.integers(1, 64, size=len(pairs)).astype(np.float64)
    return MutationBatch(inserts=b.inserts,
                         insert_weights=b.insert_weights,
                         deletes=b.deletes, reweights=pairs,
                         reweight_values=vals)


def _pred_valid(g, labels, preds, src, unit):
    """Support oracle: every reached non-source vertex's pred is an
    in-neighbor that exactly supports its label."""
    csc = g.csc
    for v in range(g.n):
        reach = labels[v] >= 0 if unit else np.isfinite(labels[v])
        if not reach or v == src:
            continue
        p = int(preds[v])
        lo, hi = int(csc.indptr[v]), int(csc.indptr[v + 1])
        in_nbr = csc.indices[lo:hi]
        hit = in_nbr == p
        assert hit.any(), f"pred {p} of {v} is not an in-neighbor"
        if unit:
            assert labels[p] == labels[v] - 1
        else:
            w = csc.artifacts.weights64[lo:hi][hit]
            assert (labels[p] + w == labels[v]).any()


def _run_scenario(scenario, weighted):
    n, edges, src, steps, wseed = scenario
    g = _chain(edges, n, weighted, wseed=wseed)
    delta = DeltaCsr(g)
    if weighted:
        ref = sssp(g, src, use_priority_queue=False)
    else:
        ref = bfs(g, src, idempotent=False, direction="push")
    labels = ref.arrays["labels"]
    preds = ref.arrays["preds"]
    pr_ref = pagerank(delta.snapshot())
    rank = pr_ref.arrays["rank"]
    for seed, rw, do_compact in steps:
        before = delta.snapshot()
        batch = _step_batch(before, seed, rw and weighted)
        delta.apply(batch)
        snap = delta.snapshot()
        # shortest-path repair vs from-scratch on the compacted graph
        if weighted:
            out = delta_sssp(delta, src, labels, preds, batch)
            scratch = sssp(snap, src, use_priority_queue=False)
        else:
            out = delta_bfs(delta, src, labels, preds, batch)
            scratch = bfs(snap, src, idempotent=False,
                          direction="push")
        if out is not None:
            r_labels, r_preds = out
            assert np.array_equal(r_labels, scratch.arrays["labels"])
            assert r_labels.dtype == scratch.arrays["labels"].dtype
            _pred_valid(snap, r_labels, r_preds, src,
                        unit=not weighted)
        # PageRank repair: as converged as from-scratch, certified
        new_rank = incremental_pagerank(before, delta, rank, batch)
        tol = 0.01 / max(1, n)
        d_inc = float(np.abs(pagerank_defect(snap, new_rank)).sum())
        assert d_inc <= 3.0 * n * tol
        pr_scratch = pagerank(snap)
        d_scr = float(np.abs(
            pagerank_defect(snap, pr_scratch.arrays["rank"])).sum())
        diff = float(np.abs(
            new_rank - pr_scratch.arrays["rank"]).max())
        assert diff <= (d_inc + d_scr) / (1.0 - 0.85) + 1e-12
        labels, preds = (scratch.arrays["labels"],
                         scratch.arrays["preds"])
        rank = new_rank
        if do_compact:
            assert delta.compact() is snap


@given(mutation_scenarios(weighted=False))
@settings(max_examples=25, deadline=None)
def test_delta_bfs_equivalence(scenario):
    _run_scenario(scenario, weighted=False)


@given(mutation_scenarios(weighted=True))
@settings(max_examples=25, deadline=None)
def test_delta_sssp_equivalence(scenario):
    _run_scenario(scenario, weighted=True)


# -- repair_payload (the serving entry point) ---------------------------------


def test_repair_payload_weight_only_keeps_insensitive(kron_weighted):
    batch = MutationBatch(all_weights=np.arange(
        1.0, kron_weighted.m + 1.0))
    old = {"labels": np.zeros(3), "preds": np.zeros(3)}
    arrays, repaired = repair_payload("bfs", {"src": 0}, old,
                                      kron_weighted, kron_weighted, batch)
    assert repaired and arrays is not old
    assert np.array_equal(arrays["labels"], old["labels"])


def test_repair_payload_falls_back_on_huge_damage():
    # a path graph loses its first edge: everything downstream is damaged
    n = 200
    g = _chain([(i, i + 1) for i in range(n - 1)], n, False)
    res = bfs(g, 0, idempotent=False, direction="push")
    d = DeltaCsr(g)
    batch = MutationBatch(deletes=[(0, 1)])
    d.apply(batch)
    arrays, repaired = repair_payload(
        "bfs", {"src": 0}, dict(res.arrays), g, d, batch)
    assert not repaired  # damage closure tripped the fallback
    scratch = bfs(d.snapshot(), 0, idempotent=False, direction="push")
    assert np.array_equal(arrays["labels"], scratch.arrays["labels"])


def test_repair_payload_charges_machine(kron_graph):
    res = bfs(kron_graph, 0, idempotent=False, direction="push")
    d = DeltaCsr(kron_graph)
    batch = random_mutation_batch(kron_graph, 3, frac=0.002)
    d.apply(batch)
    machine = Machine()
    repair_payload("bfs", {"src": 0}, dict(res.arrays), kron_graph, d,
                   batch, machine=machine)
    assert machine.elapsed_ms() > 0


# -- repair reads the snapshot CSR --------------------------------------------


@st.composite
def delta_chains(draw):
    """``(n, edges, weights-or-None, src, steps)``; a step is a seed for
    :func:`_step_batch` on the current graph, or an explicit batch."""
    n = draw(st.integers(min_value=4, max_value=16))
    edges = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
            lambda e: e[0] != e[1]), min_size=3, max_size=40))
    weights = None
    if draw(st.booleans()):
        weights = draw(st.lists(st.integers(1, 64).map(float),
                                min_size=len(edges), max_size=len(edges)))
    src = draw(st.integers(0, n - 1))
    steps = draw(st.lists(st.integers(0, 2 ** 16), min_size=1, max_size=4))
    return n, edges, weights, src, steps


def _traced(fn, *args):
    m = Machine()
    out = fn(*args, machine=m)
    return out, [(k.name, k.cycles, k.items) for k in m.counters.kernels]


def _same_bits(a, b):
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


#: vertex 3's parent 4 loses its edge while 1 -> 3 is inserted: 1 lists
#: before the surviving supporter 5 in the snapshot's CSC, so the closure
#: adopts 1 (an overlay that appends inserts would have adopted 5)
INSERT_BEFORE_OLD_PARENT = (
    6, [(0, 5), (5, 3), (0, 4), (4, 3), (0, 1)], None, 0,
    [MutationBatch(deletes=[(4, 3)], inserts=[(1, 3)])])

#: deleting the only zero-weight edge leaves every weight positive, so
#: SSSP repair runs (a bound that still counted the deleted weight would
#: have declined it)
DELETE_LIGHTEST_EDGE = (
    5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)], [0.0, 3.0, 5.0, 1.0, 2.0],
    0, [MutationBatch(deletes=[(0, 1)])])


@pytest.mark.parametrize("compact", [False, True])
@given(scenario=delta_chains())
@example(scenario=INSERT_BEFORE_OLD_PARENT)
@example(scenario=DELETE_LIGHTEST_EDGE)
@settings(max_examples=30, deadline=None)
def test_repair_on_delta_is_repair_on_its_snapshot(compact, scenario):
    n, edges, weights, src, steps = scenario
    g = from_edges(edges, n=n, weights=weights)
    delta = DeltaCsr(g)
    scratch = {
        "bfs": lambda h: bfs(h, src, idempotent=False, direction="push"),
        "sssp": lambda h: sssp(h, src, use_priority_queue=False),
    }
    repair = {"bfs": delta_bfs, "sssp": delta_sssp}
    state = {}
    for name, run in scratch.items():
        arrays = run(g).arrays
        state[name] = (arrays["labels"], arrays["preds"])
    rank = pagerank(g).arrays["rank"]
    for step in steps:
        before = delta.snapshot()
        batch = step if isinstance(step, MutationBatch) \
            else _step_batch(before, step, weights is not None)
        delta.apply(batch)
        snap = delta.snapshot()
        for name, fix in repair.items():
            labels, preds = state[name]
            on_delta, k_delta = _traced(fix, delta, src, labels, preds,
                                        batch)
            on_snap, k_snap = _traced(fix, snap, src, labels, preds, batch)
            assert k_delta == k_snap
            ref = scratch[name](snap).arrays
            if on_snap is None:
                assert on_delta is None
                state[name] = (ref["labels"], ref["preds"])
                continue
            assert all(map(_same_bits, on_delta, on_snap))
            assert _same_bits(on_snap[0], ref["labels"])
            _pred_valid(snap, *on_snap, src, unit=name == "bfs")
            state[name] = on_snap
        on_delta, k_delta = _traced(incremental_pagerank, before, delta,
                                    rank, batch)
        on_snap, k_snap = _traced(incremental_pagerank, before, snap, rank,
                                  batch)
        assert _same_bits(on_delta, on_snap) and k_delta == k_snap
        tol = 0.01 / n
        assert float(np.abs(pagerank_defect(snap, on_snap)).sum()) \
            <= 3.0 * n * tol
        rank = on_snap
        if compact:
            assert delta.compact() is snap


def test_named_repair_cases_take_the_incremental_path():
    """The two explicit examples above exercise what they name."""
    n, edges, _, src, (batch,) = INSERT_BEFORE_OLD_PARENT
    g = from_edges(edges, n=n)
    ref = bfs(g, src, idempotent=False, direction="push").arrays
    assert ref["preds"][3] == 4
    d = DeltaCsr(g)
    d.apply(batch)
    labels, preds = delta_bfs(d, src, ref["labels"], ref["preds"], batch)
    assert labels[3] == 2 and preds[3] == 1

    n, edges, weights, src, (batch,) = DELETE_LIGHTEST_EDGE
    g = from_edges(edges, n=n, weights=weights)
    ref = sssp(g, src, use_priority_queue=False).arrays
    d = DeltaCsr(g)
    d.apply(batch)
    out = delta_sssp(d, src, ref["labels"], ref["preds"], batch)
    assert out is not None
    assert _same_bits(out[0], sssp(d.snapshot(), src,
                                   use_priority_queue=False).labels)


def test_unbuilt_snapshot_is_charged_to_the_repair_machine(kron_graph):
    """The one charging rule for a ``DeltaCsr`` whose snapshot nobody has
    built yet: the repair builds it first, on the repair's machine, priced
    as ``DeltaCsr.snapshot`` prices it; a built snapshot is free."""
    batch = random_mutation_batch(kron_graph, 3, frac=0.002)
    old = bfs(kron_graph, 0, idempotent=False, direction="push").arrays
    args = (0, old["labels"], old["preds"], batch)
    cold, warm = DeltaCsr(kron_graph), DeltaCsr(kron_graph)
    cold.apply(batch)
    warm.apply(batch)
    snap = warm.snapshot()
    out_cold, k_cold = _traced(delta_bfs, cold, *args)
    out_warm, k_warm = _traced(delta_bfs, warm, *args)
    assert k_cold[0] == ("dynamic.compact", k_cold[0][1], snap.nbytes())
    assert k_cold[1:] == k_warm
    assert all(map(_same_bits, out_cold, out_warm))
    built = cold.snapshot()
    m = Machine()
    assert cold.snapshot(m) is built and not m.counters.kernels
