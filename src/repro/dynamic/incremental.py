"""Incremental repair of primitive results after a mutation batch.

The journal Gunrock frames every primitive as frontier reactivation from
changed state; these routines exploit that directly: seed a frontier
from the vertices a mutation touched and re-relax only the damaged
region, instead of recomputing the world.

* :func:`delta_bfs` / :func:`delta_sssp` — Ramalingam–Reps-style repair:
  deletions (and weight increases) compute the *damage closure* — the
  set of vertices whose shortest-path label provably lost its support —
  then a monotone label-correcting wave re-relaxes outward from the
  intact boundary plus the endpoints of improving mutations.  The
  repaired label array is **bitwise equal** to a from-scratch run on the
  compacted graph: both converge to the unique minimal fixpoint of the
  Bellman recurrence under float64 fold-left path sums (predecessors are
  order-dependent in the from-scratch engine, so repair pins them by the
  support oracle ``dist[pred] + w == dist[v]`` instead).
* :func:`incremental_pagerank` — warm-restart residual push: residuals
  are injected only at mutated sources (``d·rank/deg`` retracted along
  the old row, re-scattered along the new row) and pushed until every
  residual is under tolerance; equivalence to from-scratch is
  tolerance-bounded via the defect certificate
  ``||p − p*||_∞ ≤ ||b + dMᵀp − p||₁ / (1 − d)``.
* :func:`repair_payload` — the serving tier's entry point: repairs one
  cached :class:`~repro.serve.batcher.LaneResult` payload, falling back
  to a priced from-scratch run when repair is unprofitable or unsound
  (zero/negative weights, damage beyond ``FALLBACK_DAMAGE_FRAC``).

Every routine reads immutable CSRs only — the same snapshot the
queries of that graph version run on, with its CSC for in-rows.  A
delta chain handed to a public entry is read through its memoized
snapshot (:func:`_csr`).  All repair work is charged to the simulated
clock with the same ``C_EDGE``-per-scanned-edge pricing the operators
pay.
"""

from __future__ import annotations

import heapq
from typing import Dict, Optional, Tuple

import numpy as np

from ..graph.csr import Csr, row_lanes, transpose_product
from ..simt import calib
from ..simt.primitives import first_of_run
from .delta import DeltaCsr, MutationBatch, WEIGHT_INSENSITIVE

#: repair aborts (falls back to from-scratch) once the damage closure
#: exceeds this fraction of the vertex set — past that point the wave
#: would re-relax most of the graph anyway
FALLBACK_DAMAGE_FRAC = 0.25

_MAX_WAVES = 1_000_000


# -- CSR row access -----------------------------------------------------------


def _csr(g, machine) -> Csr:
    """The CSR a public entry reads: ``g`` itself, or a
    :class:`DeltaCsr`'s ``snapshot(machine)`` — free once memoized, else
    built here and charged to ``machine`` before any repair work."""
    return g.snapshot(machine) if isinstance(g, DeltaCsr) else g


def _row(g: Csr, v: int) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Row ``v`` as ``(neighbors, float64 weights or None)``; on
    ``g.csc`` that is ``v``'s in-row."""
    lo, hi = int(g.indptr[v]), int(g.indptr[v + 1])
    w = None if g.edge_values is None else g.artifacts.weights64[lo:hi]
    return g.indices[lo:hi], w


def _min_weight(g: Csr) -> float:
    """The smallest edge weight (1.0 when unweighted or edgeless)."""
    if g.edge_values is None or not g.m:
        return 1.0
    return float(g.artifacts.weights64.min())


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


def _charge_scan(machine, name: str, edges: int) -> None:
    if machine is not None and edges > 0:
        machine.map_kernel(name, edges, calib.C_EDGE)


# -- shortest-path repair (shared skeleton) -----------------------------------


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


def _repair_shortest_paths(g: Csr, src: int, old_labels: np.ndarray,
                           old_preds: np.ndarray, batch: MutationBatch,
                           *, unit: bool, machine=None
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


def delta_bfs(g: Csr, src: int, old_labels: np.ndarray,
              old_preds: np.ndarray, batch: MutationBatch,
              machine=None) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Repair a BFS labeling after ``batch``; ``None`` = recompute.

    The returned label array is bitwise equal to
    ``bfs(snapshot, src, idempotent=False, direction='push').labels``
    (BFS depth labels are mode-independent, so to any configuration);
    predecessors satisfy ``labels[pred[v]] == labels[v] - 1`` with
    ``(pred[v], v)`` an edge of the new graph.
    """
    g = _csr(g, machine)
    if batch.weight_only:
        return old_labels.copy(), old_preds.copy()
    return _repair_shortest_paths(g, src, old_labels, old_preds, batch,
                                  unit=True, machine=machine)


def delta_sssp(g: Csr, src: int, old_labels: np.ndarray,
               old_preds: np.ndarray, batch: MutationBatch,
               machine=None) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Repair an SSSP labeling after ``batch``; ``None`` = recompute.

    Labels match ``sssp(snapshot, src, use_priority_queue=False)``
    bitwise: both runs converge to the minimal fixpoint over float64
    fold-left path sums, which is unique for positive weights.
    """
    g = _csr(g, machine)
    if batch.all_weights is not None:
        return None  # full reweight: everything is suspect
    return _repair_shortest_paths(g, src, old_labels, old_preds, batch,
                                  unit=False, machine=machine)


# -- incremental PageRank -----------------------------------------------------


def incremental_pagerank(old_g: Csr, new_g: Csr,
                         old_rank: np.ndarray, batch: MutationBatch, *,
                         damping: float = 0.85,
                         tolerance: Optional[float] = None,
                         machine=None, max_rounds: int = 100_000
                         ) -> np.ndarray:
    """Warm-restart residual-push PageRank after ``batch``.

    For every mutated source the old scatter ``d·rank/deg_old`` is
    retracted along its old out-row and re-scattered along the new row;
    the resulting signed residuals are pushed (synchronously, the same
    schedule as :mod:`repro.primitives.pagerank`) until all are under
    ``tolerance``.  Weight mutations are no-ops — PageRank reads
    topology only.
    """
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


def pagerank_defect(g: Csr, rank: np.ndarray, *,
                    damping: float = 0.85) -> np.ndarray:
    """The defect ``b + dMᵀp − p`` of a rank vector on ``g``.

    ``||p − p*||_∞ ≤ ||defect||₁ / (1 − d)`` bounds the distance to the
    true PageRank fixpoint — the certificate the equivalence tests (and
    the CI dynamic-smoke assert) evaluate for both the incremental and
    the from-scratch result.
    """
    n = max(1, g.n)
    b = np.full(g.n, (1.0 - damping) / n)
    push = np.zeros(g.n, dtype=np.float64)
    deg = np.maximum(g.out_degrees, 1).astype(np.float64)
    contrib = damping * rank / deg
    if not transpose_product(g, push, g.artifacts.iota_n, contrib):
        np.add.at(push, g.indices, np.repeat(contrib, g.out_degrees))
    return b + push - rank


# -- serving entry point ------------------------------------------------------


def repair_payload(primitive: str, params: Dict, old_arrays: Dict,
                   old_g: Csr, new_g: Csr,
                   batch: MutationBatch, machine=None
                   ) -> Tuple[Dict[str, np.ndarray], bool]:
    """Repair one cached lane payload; returns ``(arrays, repaired)``.

    ``repaired=False`` means the incremental path declined (unsound or
    unprofitable) and the payload was recomputed from scratch on the
    compacted graph — still correct, priced as a full run.
    """
    from ..primitives.bfs import bfs
    from ..primitives.pagerank import pagerank
    from ..primitives.sssp import sssp

    old_g, new_g = _csr(old_g, machine), _csr(new_g, machine)
    if batch.weight_only and primitive in WEIGHT_INSENSITIVE:
        return dict(old_arrays), True

    if primitive == "bfs":
        out = delta_bfs(new_g, params["src"], old_arrays["labels"],
                        old_arrays["preds"], batch, machine)
        if out is not None:
            return {"labels": out[0], "preds": out[1]}, True
        res = bfs(new_g, params["src"], machine=machine,
                  idempotent=False, direction="push")
        return {"labels": res.arrays["labels"],
                "preds": res.arrays["preds"]}, False
    if primitive == "sssp":
        out = delta_sssp(new_g, params["src"], old_arrays["labels"],
                         old_arrays["preds"], batch, machine)
        if out is not None:
            return {"labels": out[0], "preds": out[1]}, True
        res = sssp(new_g, params["src"], machine=machine,
                   use_priority_queue=False)
        return {"labels": res.arrays["labels"],
                "preds": res.arrays["preds"]}, False
    if primitive == "pagerank":
        rank = incremental_pagerank(
            old_g, new_g, old_arrays["rank"], batch,
            damping=params.get("damping", 0.85),
            tolerance=params.get("tolerance"), machine=machine)
        return {"rank": rank}, True
    raise ValueError(f"primitive {primitive!r} has no repair path")
