"""Per-vertex overlay reference for ``repro.dynamic.delta``: the oracle
for the one-pass ``apply`` and the ``DeltaCsr`` version chain around it.

This is the ``DeltaCsr`` ``dynamic/delta.py`` shipped before each graph
version was built in one NumPy pass: a frozen base CSR plus merged
per-vertex out-rows, edited one row and one edit at a time by a Python
loop, and materialized into a CSR on the first ``snapshot``.  It is slow
and obviously right for accepted batches, and ``tests/test_dynamic.py``
holds the production chain to it bitwise: arrays, dtypes, compaction
count and every charged kernel.  (It is *not* an oracle for rejected
batches: it raises part-way through a batch and keeps the rows it has
already edited.)
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.dynamic.delta import MutationBatch
from repro.graph.csr import Csr, EDGE_DT, VERTEX_DT
from repro.simt import calib


class DeltaCsrReference:
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
        return (f"DeltaCsrReference(n={self.n}, m={self._m}, "
                f"log={self.log_edges}, touched={len(self._out)})")
