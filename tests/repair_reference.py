"""Heap-based reference repair bodies: the oracle for
``repro.dynamic.incremental``'s damage closure and PageRank residual seed.

These are the bodies ``dynamic/incremental.py`` shipped before the damage
closure ran as frontier waves and the residual was seeded in one scatter:
a serial ``heapq`` loop that pops one suspect vertex at a time in
``(label, vertex)`` order, and a per-source ``subtract.at`` / ``add.at``
loop, with the row gather and the re-relax wave they called.  They are slower and obviously right, and
``tests/test_repair_closure.py`` holds the production code to them
bitwise — labels, preds, the ``None`` decision, every kernel record and
every counter.
"""

from __future__ import annotations

import heapq
from typing import Optional, Tuple

import numpy as np

from repro.dynamic.delta import MutationBatch
from repro.dynamic.incremental import (FALLBACK_DAMAGE_FRAC, _MAX_WAVES,
                                       _charge_scan, _csr, _min_weight)
from repro.graph.csr import Csr, row_lanes
from repro.simt.primitives import first_of_run


def _row(g: Csr, v: int) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Row ``v`` as ``(neighbors, float64 weights or None)``; on
    ``g.csc`` that is ``v``'s in-row."""
    lo, hi = int(g.indptr[v]), int(g.indptr[v + 1])
    w = None if g.edge_values is None else g.artifacts.weights64[lo:hi]
    return g.indices[lo:hi], w


def _gather_out(g: Csr, vs: np.ndarray):
    """Concatenated out-rows of ``vs``: ``(src_rep, dst, w64, counts)``."""
    vs = np.asarray(vs, dtype=np.int64)
    counts = g.degrees_of(vs)
    total = int(counts.sum())
    if not total:
        z = np.empty(0, np.int64)
        return z, z, np.empty(0, np.float64), counts
    _, eids = row_lanes(g.indptr, vs, counts, total)
    dst = g.indices[eids]
    w = g.artifacts.weights64[eids] if g.edge_values is not None \
        else np.ones(total, dtype=np.float64)
    return np.repeat(vs, counts), dst, w, counts


def _relax_wave(g: Csr, labels: np.ndarray, preds: np.ndarray,
                frontier: np.ndarray, *, unit: bool, machine) -> None:
    """Monotone label-correcting relaxation from ``frontier`` to
    quiescence.  ``unit=True`` is BFS (int64 labels, -1 = unreachable);
    otherwise SSSP (float64, inf = unreachable).  The per-destination
    winner is deterministic: minimal candidate, ties by gather order."""
    waves = 0
    while len(frontier):
        waves += 1
        if waves > _MAX_WAVES:  # pragma: no cover - safety valve
            raise RuntimeError("repair wave failed to converge")
        src_rep, dst, w, _ = _gather_out(g, frontier)
        _charge_scan(machine, "dynamic.repair_advance", len(dst))
        if not len(dst):
            break
        if unit:
            cand = labels[src_rep] + 1
            reach = labels[src_rep] >= 0
            cur = labels[dst]
            improve = reach & ((cur < 0) | (cand < cur))
        else:
            cand = labels[src_rep] + w
            improve = cand < labels[dst]
        d2, c2, s2 = dst[improve], cand[improve], src_rep[improve]
        if not len(d2):
            break
        order = np.lexsort((np.arange(len(d2)), c2, d2))
        d2, c2, s2 = d2[order], c2[order], s2[order]
        first = first_of_run(d2)
        uniq = d2[first]
        labels[uniq] = c2[first]
        preds[uniq] = s2[first]
        frontier = uniq


def repair_shortest_paths_reference(
        g: Csr, src: int, old_labels: np.ndarray, old_preds: np.ndarray,
        batch: MutationBatch, *, unit: bool, machine=None
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Shared delete-closure + re-relax skeleton for BFS and SSSP.

    Returns ``None`` when repair is unsound or unprofitable and the
    caller should recompute from scratch.
    """
    n = g.n
    csc = g.csc
    labels = old_labels.copy()
    preds = old_preds.copy()
    unreached = -1 if unit else np.inf

    def finite(x) -> bool:
        return (x >= 0) if unit else bool(np.isfinite(x))

    if not unit and _min_weight(g) <= 0.0:
        return None  # zero-weight edges break ascending-label closure

    # -- trigger suspects: targets of deleted (and, for SSSP, reweighted)
    #    edges whose label may have lost its support
    triggers = [batch.deletes]
    if not unit:
        triggers.append(batch.reweights)
    heap: list = []
    seen_push = set()
    for pairs in triggers:
        for u, v in pairs:
            v = int(v)
            if v != src and finite(labels[v]) and v not in seen_push:
                seen_push.add(v)
                heapq.heappush(heap, (labels[v], v))

    damaged: set = set()
    scanned = 0
    limit = max(16, int(FALLBACK_DAMAGE_FRAC * n))
    while heap:
        lv, v = heapq.heappop(heap)
        if v in damaged or labels[v] != lv or not finite(lv):
            continue
        in_nbr, in_w = _row(csc, v)
        scanned += len(in_nbr)
        if unit:
            support = labels[in_nbr] == lv - 1
        else:
            w64 = np.ones(len(in_nbr)) if in_w is None else in_w
            support = labels[in_nbr] + w64 == lv
        if support.any():
            # keep the label; keep the old pred if it still supports it,
            # else adopt the first supporting in-neighbor (deterministic)
            old_p = int(preds[v])
            if not (old_p >= 0 and bool(support[in_nbr == old_p].any())):
                preds[v] = int(in_nbr[np.flatnonzero(support)[0]])
            continue
        damaged.add(v)
        if len(damaged) > limit:
            # the wave would re-relax most of the graph; recompute instead
            _charge_scan(machine, "dynamic.repair_closure", scanned)
            return None
        labels[v] = unreached
        preds[v] = -1
        out_nbr, out_w = _row(g, v)
        scanned += len(out_nbr)
        if unit:
            dep = labels[out_nbr] == lv + 1
        else:
            w64 = np.ones(len(out_nbr)) if out_w is None else out_w
            dep = labels[out_nbr] == lv + w64
        for w_v in out_nbr[dep]:
            w_v = int(w_v)
            if w_v != src and w_v not in damaged:
                heapq.heappush(heap, (labels[w_v], w_v))
    _charge_scan(machine, "dynamic.repair_closure", scanned)

    # -- seed frontier: intact boundary of the damage + sources of
    #    improving mutations (inserts; reweights for SSSP)
    seeds = set()
    for v in damaged:
        in_nbr, _ = _row(csc, v)
        for u in in_nbr:
            if finite(labels[u]):
                seeds.add(int(u))
    improvers = [batch.inserts] if unit \
        else [batch.inserts, batch.reweights]
    for pairs in improvers:
        for u, _v in pairs:
            if finite(labels[int(u)]):
                seeds.add(int(u))
    frontier = np.asarray(sorted(seeds), dtype=np.int64)
    _relax_wave(g, labels, preds, frontier, unit=unit, machine=machine)
    return labels, preds


def incremental_pagerank_reference(old_g: Csr, new_g: Csr,
                                   old_rank: np.ndarray,
                                   batch: MutationBatch, *,
                                   damping: float = 0.85,
                                   tolerance: Optional[float] = None,
                                   machine=None, max_rounds: int = 100_000
                                   ) -> np.ndarray:
    """Warm-restart residual-push PageRank after ``batch``, seeding the
    residual one mutated source at a time."""
    old_g, new_g = _csr(old_g, machine), _csr(new_g, machine)
    n = new_g.n
    tol = (0.01 / max(1, n)) if tolerance is None else tolerance
    rank = np.asarray(old_rank, dtype=np.float64).copy()
    if batch.weight_only:
        return rank
    residual = np.zeros(n, dtype=np.float64)
    for u in batch.touched_sources:
        u = int(u)
        mass = damping * rank[u]
        old_nbr, _ = _row(old_g, u)
        new_nbr, _ = _row(new_g, u)
        if len(old_nbr):
            np.subtract.at(residual, old_nbr, mass / len(old_nbr))
        if len(new_nbr):
            np.add.at(residual, new_nbr, mass / len(new_nbr))
    for _ in range(max_rounds):
        active = np.flatnonzero(np.abs(residual) > tol)
        if not len(active):
            break
        move = residual[active].copy()
        residual[active] = 0.0
        rank[active] += move
        src_rep, dst, _, counts = _gather_out(new_g, active)
        _charge_scan(machine, "dynamic.pagerank_push", len(dst))
        if len(dst):
            vals = damping * np.repeat(
                move / np.maximum(counts, 1), counts)
            np.add.at(residual, dst, vals)
    else:  # pragma: no cover - safety valve
        raise RuntimeError("incremental pagerank failed to converge")
    return rank
