"""Incremental repair of primitive results after a mutation batch.

The journal Gunrock frames every primitive as frontier reactivation from
changed state; these routines exploit that directly: seed a frontier
from the vertices a mutation touched and re-relax only the damaged
region, instead of recomputing the world.

* :func:`delta_bfs` / :func:`delta_sssp` — Ramalingam–Reps-style repair:
  deletions (and weight increases) compute the *damage closure* — the
  set of vertices whose shortest-path label provably lost its support,
  closed in frontier waves to its unique fixpoint and charged what an
  ascending-label worklist would have scanned — then a monotone
  label-correcting wave re-relaxes outward from the intact boundary
  plus the endpoints of improving mutations.  The
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

from typing import Dict, Optional, Tuple

import numpy as np

from ..graph.csr import Csr, iota, row_lanes, transpose_product
from ..simt import calib
from ..simt.primitives import first_of_run, unique_by_sort
from .delta import DeltaCsr, MutationBatch, WEIGHT_INSENSITIVE

#: repair aborts (falls back to from-scratch) once the damage closure
#: exceeds this fraction of the vertex set — past that point the wave
#: would re-relax most of the graph anyway
FALLBACK_DAMAGE_FRAC = 0.25

_MAX_WAVES = 1_000_000


# -- CSR row access -----------------------------------------------------------


def _csr(g, machine) -> Csr:
    """The CSR a public entry reads: ``g`` itself, or a
    :class:`DeltaCsr`'s ``snapshot(machine)`` — free once the version
    has been read, else charged to ``machine`` before any repair work."""
    return g.snapshot(machine) if isinstance(g, DeltaCsr) else g


def _min_weight(g: Csr) -> float:
    """The smallest edge weight (1.0 when unweighted or edgeless)."""
    if g.edge_values is None or not g.m:
        return 1.0
    return float(g.artifacts.weights64.min())


def _lanes(g: Csr, vs: np.ndarray):
    """The lanes of rows ``vs`` (in-rows on ``g.csc``):
    ``(seg, nbr, w64, counts)``, ``seg`` the lane's index into ``vs``."""
    counts = g.degrees_of(vs)
    _, eids = row_lanes(g.indptr, vs, counts, int(counts.sum()))
    seg = np.repeat(np.arange(len(vs)), counts)
    w = g.artifacts.weights64[eids]
    return seg, g.indices[eids], w, counts


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
        seg, dst, w, _ = _lanes(g, frontier)
        src_rep = frontier[seg]
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


def _supported(labels: np.ndarray, lv: np.ndarray, nbr: np.ndarray,
               w: np.ndarray, unit: bool) -> np.ndarray:
    """Per lane ``nbr -> v`` (``lv`` = ``v``'s label): does it support
    ``v``?  An unreached ``nbr`` never does."""
    if unit:
        return labels[nbr] == lv - 1
    return labels[nbr] + w == lv


def _repair_shortest_paths(g: Csr, src: int, old_labels: np.ndarray,
                           old_preds: np.ndarray, batch: MutationBatch,
                           *, unit: bool, machine=None
                           ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Shared damage-closure + re-relax skeleton for BFS and SSSP;
    ``None`` = unsound or unprofitable, recompute from scratch.

    The closure runs in frontier waves from the trigger set: a wave
    marks its unsupported candidates damaged (``D``) and hands on their
    dependents.  Weights are positive, so any order reaches the fixpoint
    an ascending ``(label, v)`` worklist reaches, and that worklist's
    scan is the charge: ``D`` scans in- and out-rows once, a pushed
    vertex that stayed supported its in-row once per push.  Past the
    fallback limit the charge is the worklist's prefix up to the first
    damaged vertex over it, plus that vertex's in-row.
    """
    if not unit and _min_weight(g) <= 0.0:
        return None  # zero-weight edges break ascending-label closure
    csc = g.csc
    labels = old_labels.copy()
    preds = old_preds.copy()
    reached = (lambda x: x >= 0) if unit else np.isfinite

    # -- wave 0: targets of deleted (and, for SSSP, reweighted) edges
    #    whose label may have lost its support
    parts = [batch.deletes[:, 1]]
    if not unit:
        parts.append(batch.reweights[:, 1])
    cand = np.concatenate(parts).astype(np.int64)
    cand = unique_by_sort(cand[(cand != src) & reached(labels[cand])])
    damaged = np.zeros(g.n, dtype=bool)
    pushes = np.zeros(g.n, dtype=np.int64)
    pushes[cand] = 1
    while len(cand):
        seg, nbr, w, _ = _lanes(csc, cand)
        has = np.zeros(len(cand), dtype=bool)
        has[seg[_supported(labels, labels[cand][seg], nbr, w, unit)]] = True
        lost = cand[~has]
        damaged[lost] = True
        labels[lost] = -1 if unit else np.inf
        seg, nbr, w, _ = _lanes(g, lost)
        lv = old_labels[lost][seg]
        dep = nbr[(labels[nbr] == (lv + 1 if unit else lv + w))
                  & (nbr != src)]
        np.add.at(pushes, dep, 1)
        cand = unique_by_sort(dep)
    preds[damaged] = -1

    # -- the worklist's charge: damaged D, supported S, pushes per vertex
    pushed = np.flatnonzero(pushes)
    din = csc.degrees_of(pushed)
    lost = damaged[pushed]
    cost = np.where(lost, din + g.degrees_of(pushed), pushes[pushed] * din)
    limit = max(16, int(FALLBACK_DAMAGE_FRAC * g.n))
    if int(lost.sum()) > limit:
        # ``pushed`` ascends, so a stable sort orders by ``(label, v)``
        order = np.argsort(old_labels[pushed], kind="stable")
        stop = np.flatnonzero(lost[order])[limit]
        _charge_scan(machine, "dynamic.repair_closure",
                     int(cost[order[:stop]].sum() + din[order[stop]]))
        return None
    _charge_scan(machine, "dynamic.repair_closure", int(cost.sum()))

    # -- preds of S: the old pred if it still supports, else the first
    #    supporting lane
    kept = pushed[~lost]
    seg, nbr, w, _ = _lanes(csc, kept)
    sup = _supported(labels, labels[kept][seg], nbr, w, unit)
    keep = np.zeros(len(kept), dtype=bool)
    keep[seg[sup & (nbr == old_preds[kept][seg])]] = True
    lanes = np.flatnonzero(sup)
    first = lanes[first_of_run(seg[lanes])]
    adopt = ~keep[seg[first]]
    preds[kept[seg[first[adopt]]]] = nbr[first[adopt]]

    # -- seed frontier: intact boundary of the damage + sources of
    #    improving mutations (inserts; reweights for SSSP)
    _, nbr, _, _ = _lanes(csc, np.flatnonzero(damaged))
    parts = [nbr, batch.inserts[:, 0]]
    if not unit:
        parts.append(batch.reweights[:, 0])
    seeds = np.concatenate(parts).astype(np.int64)
    frontier = unique_by_sort(seeds[reached(labels[seeds])])
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
    # retract along the old row, re-scatter along the new one: one
    # scatter whose lanes run old row then new row per source, sources
    # ascending (``a - x == a + (-x)``, so the order pins the bits)
    srcs = batch.touched_sources.astype(np.int64)
    mass = damping * rank[srcs]
    seg_old, nbr_old, _, deg_old = _lanes(old_g, srcs)
    seg_new, nbr_new, _, deg_new = _lanes(new_g, srcs)
    share_old = -mass / np.maximum(deg_old, 1)
    share_new = mass / np.maximum(deg_new, 1)
    order = np.argsort(np.concatenate([seg_old, seg_new]), kind="stable")
    residual = np.zeros(n, dtype=np.float64)
    np.add.at(residual, np.concatenate([nbr_old, nbr_new])[order],
              np.concatenate([share_old[seg_old], share_new[seg_new]])[order])
    for _ in range(max_rounds):
        active = np.flatnonzero(np.abs(residual) > tol)
        if not len(active):
            break
        move = residual[active].copy()
        residual[active] = 0.0
        rank[active] += move
        seg, dst, _, counts = _lanes(new_g, active)
        _charge_scan(machine, "dynamic.pagerank_push", len(dst))
        if len(dst):
            vals = damping * (move / np.maximum(counts, 1))[seg]
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
    if not transpose_product(g, push, iota(g.n), contrib):
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

    if primitive in ("bfs", "sssp"):
        repair = delta_bfs if primitive == "bfs" else delta_sssp
        out = repair(new_g, params["src"], old_arrays["labels"],
                     old_arrays["preds"], batch, machine)
        if out is not None:
            return {"labels": out[0], "preds": out[1]}, True
        res = bfs(new_g, params["src"], machine=machine, idempotent=False,
                  direction="push") if primitive == "bfs" else \
            sssp(new_g, params["src"], machine=machine,
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
