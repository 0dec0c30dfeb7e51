"""Delta-CSR: a frozen base graph plus an ordered mutation overlay.

The CSR object in :mod:`repro.graph.csr` is immutable by design — every
operator, cache, and artifact assumes topology never moves under it.  A
streaming workload mutates the graph anyway, so this module supplies the
middle ground Gunrock-style engines use: keep the base CSR frozen, log
edge inserts / deletes / reweights into small per-vertex overlay rows,
and periodically *compact* the overlay back into a fresh immutable CSR.

The overlay is write-only: nothing reads the graph through it.  Every
graph version is read as :meth:`DeltaCsr.snapshot`, the immutable CSR
the overlay materializes (memoized until the next ``apply``), so queries
and incremental repairs run on one representation.  Snapshot and
compaction cost is charged to the simulated clock byte-for-byte like
checkpointing is, and every cache that is provably still valid
(topology artifacts on a weight-only rebase) is carried over instead of
recomputed.

Mutation semantics, fixed for determinism:

* a batch applies **deletes, then reweights, then inserts**;
* a delete of ``(u, v)`` removes *all* parallel copies of that edge and
  it is an error if none exists;
* a reweight sets the weight of all surviving copies of ``(u, v)`` and
  it is an error if none exists;
* inserts append to the end of ``u``'s row in batch order, so the
  compacted CSR is a pure function of (base, batch sequence).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

import numpy as np

from ..graph.csr import Csr, EDGE_DT, VERTEX_DT
from ..simt import calib

#: Primitives with an incremental repair path in :mod:`.incremental`.
REPAIRABLE_PRIMITIVES: Tuple[str, ...] = ("bfs", "sssp", "pagerank")

#: Primitives whose served results never read edge weights (verified by
#: the functor effect analysis of PR 6: bfs/pagerank/ppr/wtf touch only
#: topology).  A weight-only mutation cannot change their answers, so
#: the serving cache keeps those entries across the version bump.
WEIGHT_INSENSITIVE: FrozenSet[str] = frozenset(
    {"bfs", "pagerank", "ppr", "wtf"})


def _pairs(arr, name: str) -> np.ndarray:
    """Normalize an edge-pair argument to an ``(k, 2)`` int64 array."""
    if arr is None:
        return np.empty((0, 2), dtype=VERTEX_DT)
    out = np.asarray(arr, dtype=VERTEX_DT)
    if out.size == 0:
        return np.empty((0, 2), dtype=VERTEX_DT)
    if out.ndim != 2 or out.shape[1] != 2:
        raise ValueError(f"{name} must have shape (k, 2)")
    return np.ascontiguousarray(out)


@dataclass(frozen=True)
class MutationBatch:
    """One atomic set of edge mutations against a live graph.

    ``all_weights`` is the legacy full re-randomization path (PR 5's
    ``--updates`` semantics): it replaces the entire edge-value column
    of the *current* topology and is mutually exclusive with the
    per-edge fields.
    """

    inserts: np.ndarray = field(
        default_factory=lambda: np.empty((0, 2), dtype=VERTEX_DT))
    insert_weights: Optional[np.ndarray] = None
    deletes: np.ndarray = field(
        default_factory=lambda: np.empty((0, 2), dtype=VERTEX_DT))
    reweights: np.ndarray = field(
        default_factory=lambda: np.empty((0, 2), dtype=VERTEX_DT))
    reweight_values: Optional[np.ndarray] = None
    all_weights: Optional[np.ndarray] = None

    def __post_init__(self):
        object.__setattr__(self, "inserts", _pairs(self.inserts, "inserts"))
        object.__setattr__(self, "deletes", _pairs(self.deletes, "deletes"))
        object.__setattr__(self, "reweights",
                           _pairs(self.reweights, "reweights"))
        if self.insert_weights is not None:
            object.__setattr__(
                self, "insert_weights",
                np.asarray(self.insert_weights, dtype=np.float64))
            if len(self.insert_weights) != len(self.inserts):
                raise ValueError("insert_weights length mismatch")
        if self.reweight_values is not None:
            object.__setattr__(
                self, "reweight_values",
                np.asarray(self.reweight_values, dtype=np.float64))
        if len(self.reweights) and (
                self.reweight_values is None
                or len(self.reweight_values) != len(self.reweights)):
            raise ValueError("reweights require matching reweight_values")
        if self.all_weights is not None:
            object.__setattr__(self, "all_weights",
                               np.asarray(self.all_weights, dtype=np.float64))
            if self.size:
                raise ValueError(
                    "all_weights is exclusive with per-edge mutations")

    # -- classification -------------------------------------------------------

    @property
    def size(self) -> int:
        """Number of per-edge mutations named by the batch."""
        return len(self.inserts) + len(self.deletes) + len(self.reweights)

    @property
    def structural(self) -> bool:
        """True when the batch changes topology (inserts or deletes)."""
        return bool(len(self.inserts) or len(self.deletes))

    @property
    def weight_only(self) -> bool:
        """True when only edge values change (reweights / all_weights)."""
        return not self.structural

    @property
    def touched_sources(self) -> np.ndarray:
        """Sorted unique source vertices whose out-rows the batch edits."""
        srcs = [self.inserts[:, 0], self.deletes[:, 0], self.reweights[:, 0]]
        return np.unique(np.concatenate(srcs))

    @property
    def touched_targets(self) -> np.ndarray:
        """Sorted unique destination vertices the batch edits."""
        dsts = [self.inserts[:, 1], self.deletes[:, 1], self.reweights[:, 1]]
        return np.unique(np.concatenate(dsts))

    @property
    def touched_vertices(self) -> np.ndarray:
        """Sorted unique endpoints of every mutated edge."""
        return np.unique(np.concatenate(
            [self.touched_sources, self.touched_targets]))

    def validate_for(self, n: int) -> None:
        for name, arr in (("inserts", self.inserts),
                          ("deletes", self.deletes),
                          ("reweights", self.reweights)):
            if len(arr) and (arr.min() < 0 or arr.max() >= n):
                raise ValueError(f"{name} contain out-of-range vertex ids")


def unaffected_primitives(batch: MutationBatch) -> FrozenSet[str]:
    """Served primitives whose cached results survive ``batch``.

    The cache-retention rule: a weight-only mutation leaves every
    weight-insensitive primitive's answer bitwise unchanged; a
    structural mutation can change anything, so nothing is retained
    (retained ≠ repaired — repairable primitives get their entries
    *re-derived* by background repair jobs instead).
    """
    if batch.weight_only:
        return WEIGHT_INSENSITIVE
    return frozenset()


@dataclass(frozen=True)
class GraphUpdate:
    """A scheduled graph update, the one update payload the serving
    schedulers accept: the post-mutation CSR plus, on the incremental
    path, the batch that produced it."""

    csr: Csr
    batch: Optional[MutationBatch] = None


class DeltaCsr:
    """A frozen base :class:`Csr` plus materialized overlay rows.

    Overlay state per touched vertex is the fully merged out-row
    (surviving base edges in base order, then inserts in arrival order),
    so a later batch edits it without re-running the merge.  The graph
    itself is read as ``snapshot()``, a fresh immutable CSR memoized
    until the next ``apply``.
    """

    __slots__ = ("base", "compact_threshold", "weighted", "log_edges",
                 "batches_applied", "compactions",
                 "_m", "_out", "_degrees", "_structural", "_snapshot")

    def __init__(self, base: Csr, *, compact_threshold: float = 0.05):
        self.base = base
        self.compact_threshold = float(compact_threshold)
        self.weighted = base.edge_values is not None
        #: per-edge mutations logged since the last compaction
        self.log_edges = 0
        self.batches_applied = 0
        self.compactions = 0
        self._m = base.m
        # touched vertex -> (neighbor ids, float64 weights or None)
        self._out: Dict[int, Tuple[np.ndarray, Optional[np.ndarray]]] = {}
        self._degrees: Optional[np.ndarray] = None
        self._structural = False
        self._snapshot: Optional[Csr] = base

    # -- shape and merged rows ------------------------------------------------

    @property
    def n(self) -> int:
        return self.base.n

    @property
    def m(self) -> int:
        return self._m

    @property
    def out_degrees(self) -> np.ndarray:
        """Current out-degrees (base array until a structural apply)."""
        if self._degrees is not None:
            return self._degrees
        return self.base.out_degrees

    def out_row(self, v: int) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Merged out-row of ``v``: ``(neighbors, weights-or-None)``."""
        row = self._out.get(int(v))
        if row is not None:
            return row
        lo, hi = int(self.base.indptr[v]), int(self.base.indptr[v + 1])
        w = None if self.base.edge_values is None \
            else self.base.artifacts.weights64[lo:hi]
        return self.base.indices[lo:hi], w

    @property
    def pending(self) -> bool:
        """True when overlay rows exist (snapshot != base)."""
        return bool(self._out)

    # -- mutation side --------------------------------------------------------

    def apply(self, batch: MutationBatch, machine=None) -> None:
        """Apply one mutation batch to the overlay (deterministic)."""
        if batch.all_weights is not None:
            self._apply_all_weights(batch.all_weights, machine)
            self.batches_applied += 1
            return
        batch.validate_for(self.n)
        if not batch.size:
            self.batches_applied += 1
            return
        if len(batch.inserts) and batch.insert_weights is None \
                and self.weighted:
            raise ValueError("inserting into a weighted graph requires "
                             "insert_weights")
        if batch.insert_weights is not None and not self.weighted:
            raise ValueError("insert_weights on an unweighted graph")
        if len(batch.reweights) and not self.weighted:
            raise ValueError("reweight on an unweighted graph")
        if batch.structural and self._degrees is None:
            self._degrees = self.base.out_degrees.copy()

        by_src: Dict[int, List] = {}
        for u, v in batch.deletes:
            by_src.setdefault(int(u), []).append(("del", int(v), None))
        if len(batch.reweights):
            for (u, v), w in zip(batch.reweights, batch.reweight_values):
                by_src.setdefault(int(u), []).append(("rw", int(v), float(w)))
        if len(batch.inserts):
            ws = batch.insert_weights
            for i, (u, v) in enumerate(batch.inserts):
                w = None if ws is None else float(ws[i])
                by_src.setdefault(int(u), []).append(("ins", int(v), w))

        for u in sorted(by_src):
            self._edit_row(u, by_src[u])

        self.log_edges += batch.size
        self.batches_applied += 1
        self._snapshot = None

    def _edit_row(self, v: int, ops: List) -> None:
        """Apply (op, destination, weight) edits to ``v``'s overlay row."""
        nbr, w = self.out_row(v)
        nbr = np.array(nbr, dtype=VERTEX_DT)
        if self.weighted:
            w = np.ones(len(nbr), dtype=np.float64) if w is None \
                else np.array(w, dtype=np.float64)
        else:
            w = None
        appended: List[int] = []
        appended_w: List[float] = []
        for op, other, val in ops:
            if op == "del":
                keep = nbr != other
                if keep.all():
                    raise ValueError(
                        f"delete of absent edge ({v}, {other})")
                nbr = nbr[keep]
                if w is not None:
                    w = w[keep]
            elif op == "rw":
                hit = nbr == other
                if not hit.any():
                    raise ValueError(
                        f"reweight of absent edge ({v}, {other})")
                w[hit] = val
            else:  # ins
                appended.append(other)
                appended_w.append(1.0 if val is None else val)
        if appended:
            nbr = np.concatenate(
                [nbr, np.asarray(appended, dtype=VERTEX_DT)])
            if w is not None:
                w = np.concatenate(
                    [w, np.asarray(appended_w, dtype=np.float64)])
        self._out[v] = (nbr, w)
        if self._degrees is not None:
            old = int(self._degrees[v])
            self._degrees[v] = len(nbr)
            self._m += len(nbr) - old
        self._structural = self._structural or bool(
            any(op in ("del", "ins") for op, _, _ in ops))

    def _apply_all_weights(self, values: np.ndarray, machine) -> None:
        """Full edge-value replacement: rebase onto the current topology
        with the new weight column, carrying topology caches over."""
        base = self.snapshot(machine)
        if len(values) != base.m:
            raise ValueError("all_weights length mismatch")
        fresh = base.with_edge_values(values)
        fresh.share_topology_caches(base)
        # topology is shared; the only bytes moved are the new weights
        self._charge(machine, "dynamic.compact", values.nbytes)
        self._rebase(fresh)
        self.weighted = True

    # -- compaction -----------------------------------------------------------

    def should_compact(self) -> bool:
        """Deterministic policy: compact once the mutation log exceeds
        ``compact_threshold`` of the base edge count (floor 64)."""
        return self.log_edges >= max(
            64, int(self.compact_threshold * max(1, self.base.m)))

    def snapshot(self, machine=None) -> Csr:
        """The current graph as a fresh immutable CSR (memoized).

        Building it is priced like a checkpoint: one simulated kernel
        moving the output bytes at ``C_MEM_PER_BYTE`` cycles each.
        """
        if self._snapshot is not None:
            return self._snapshot
        if not self._structural:
            snap = self._snapshot_reweight_only()
        else:
            snap = self._snapshot_structural()
        self._charge(machine, "dynamic.compact", snap.nbytes())
        self._snapshot = snap
        return snap

    def _snapshot_reweight_only(self) -> Csr:
        """Topology unchanged: patch the weight column in place and
        share every topology-derived cache with the base."""
        values = np.array(self.base.weight_or_ones(), dtype=np.float64)
        indptr = self.base.indptr
        for u, (_, w) in self._out.items():
            values[indptr[u]:indptr[u + 1]] = w
        snap = self.base.with_edge_values(values)
        snap.share_topology_caches(self.base)
        return snap

    def _snapshot_structural(self) -> Csr:
        degrees = self.out_degrees
        indptr = np.zeros(self.n + 1, dtype=EDGE_DT)
        np.cumsum(degrees, out=indptr[1:])
        indices = np.empty(self._m, dtype=VERTEX_DT)
        values = np.empty(self._m, dtype=np.float64) if self.weighted \
            else None
        touched = sorted(self._out)
        base_ip = self.base.indptr
        base_ix = self.base.indices
        base_w = None if not self.weighted \
            else self.base.artifacts.weights64
        prev = 0
        for u in touched + [self.n]:
            # bulk-copy the untouched run [prev, u): degrees unchanged
            # there, so base and new spans have equal length
            if prev < u:
                dst_lo, dst_hi = int(indptr[prev]), int(indptr[u])
                src_lo, src_hi = int(base_ip[prev]), int(base_ip[u])
                indices[dst_lo:dst_hi] = base_ix[src_lo:src_hi]
                if values is not None:
                    values[dst_lo:dst_hi] = base_w[src_lo:src_hi]
            if u == self.n:
                break
            nbr, w = self._out[u]
            lo, hi = int(indptr[u]), int(indptr[u + 1])
            indices[lo:hi] = nbr
            if values is not None:
                values[lo:hi] = w
            prev = u + 1
        return Csr(indptr, indices, values, n=self.n, validate=False)

    def compact(self, machine=None) -> Csr:
        """Compact the overlay into a fresh base CSR and reset the log."""
        snap = self.snapshot(machine)
        self._rebase(snap)
        return snap

    def maybe_compact(self, machine=None) -> Optional[Csr]:
        """Run :meth:`compact` if the deterministic policy says so."""
        if self.pending and self.should_compact():
            return self.compact(machine)
        return None

    def _rebase(self, csr: Csr) -> None:
        if self.pending or csr is not self.base:
            self.compactions += 1
        self.base = csr
        self._m = csr.m
        self._out.clear()
        self._degrees = None
        self._structural = False
        self.log_edges = 0
        self._snapshot = csr

    @staticmethod
    def _charge(machine, name: str, nbytes: int) -> None:
        if machine is None or nbytes <= 0:
            return
        machine.launch(name, body_cycles=nbytes * calib.C_MEM_PER_BYTE,
                       items=nbytes)
        machine.counters.record_bytes(float(nbytes))

    def __repr__(self) -> str:
        return (f"DeltaCsr(n={self.n}, m={self._m}, "
                f"log={self.log_edges}, touched={len(self._out)})")


def random_mutation_batch(csr: Csr, seed: int, *, frac: float = 0.005,
                          kind: str = "mixed",
                          weight_high: int = 64) -> MutationBatch:
    """Seed-deterministic structural delta over a live graph.

    Samples ``frac * m`` edge deletions from the current edge list and
    the same number of fresh insertions (uniform endpoints, no self
    loops); ``kind`` restricts to one side (``"insert"`` / ``"delete"``)
    or interleaves both (``"mixed"``).  Weights for inserts are drawn
    uniformly from ``1..weight_high`` when the graph is weighted.
    """
    rng = np.random.default_rng(seed)
    k = max(1, int(round(frac * max(1, csr.m))))
    deletes = np.empty((0, 2), dtype=VERTEX_DT)
    inserts = np.empty((0, 2), dtype=VERTEX_DT)
    if kind in ("mixed", "delete") and csr.m:
        eids = rng.choice(csr.m, size=min(k, csr.m), replace=False)
        pairs = np.stack([csr.edge_sources[eids], csr.indices[eids]],
                         axis=1)
        deletes = np.unique(pairs, axis=0)
    if kind in ("mixed", "insert"):
        u = rng.integers(0, csr.n, size=k, dtype=VERTEX_DT)
        v = rng.integers(0, csr.n, size=k, dtype=VERTEX_DT)
        keep = u != v
        inserts = np.stack([u[keep], v[keep]], axis=1)
        if not len(inserts):  # tiny graphs can reject every sample
            a = int(rng.integers(0, csr.n))
            inserts = np.array([[a, (a + 1) % csr.n]], dtype=VERTEX_DT)
    insert_weights = None
    if csr.edge_values is not None and len(inserts):
        insert_weights = rng.integers(
            1, weight_high + 1, size=len(inserts)).astype(np.float64)
    return MutationBatch(inserts=inserts, insert_weights=insert_weights,
                         deletes=deletes)
