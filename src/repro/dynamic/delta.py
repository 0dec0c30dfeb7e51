"""Graph versions: one immutable CSR per mutation batch, built in one pass.

The CSR object in :mod:`repro.graph.csr` is immutable by design — every
operator, cache, and artifact assumes topology never moves under it.  A
streaming workload mutates the graph anyway, so :func:`apply` builds the
next version from the current one and a batch of edge inserts / deletes
/ reweights in one vectorised pass: the touched rows' lanes find the
deletes and reweights, and the inserts go in with one ``np.insert``.
The whole batch is checked first, so a rejected batch changes nothing.

:class:`DeltaCsr` is the version chain the serving tier keeps around
it.  Queries and incremental repairs read a version as
:meth:`DeltaCsr.snapshot`; its first read is charged to the simulated
clock byte-for-byte like checkpointing is, and a weight-only version
shares its predecessor's topology arrays and every cache derived from
them instead of recomputing them.  Compaction is the chain's
deterministic bookkeeping (the mutation log and the ``compactions``
count); no graph is rebuilt for it.

Mutation semantics, fixed for determinism:

* a batch applies **deletes, then reweights, then inserts**;
* a delete of ``(u, v)`` removes *all* parallel copies of that edge and
  it is an error if none exists;
* a reweight sets the weight of all surviving copies of ``(u, v)`` and
  it is an error if none exists;
* inserts append to the end of ``u``'s row in batch order, so every
  version is a pure function of (first graph, batch sequence).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Optional, Tuple

import numpy as np

from ..graph.csr import Csr, EDGE_DT, VERTEX_DT, row_lanes
from ..simt import calib
from ..simt.primitives import first_occurrence, unique_by_sort

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
        for name in ("inserts", "deletes", "reweights"):
            object.__setattr__(self, name, _pairs(getattr(self, name), name))
        for name in ("insert_weights", "reweight_values", "all_weights"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, np.asarray(
                    getattr(self, name), dtype=np.float64))
        if self.insert_weights is not None \
                and len(self.insert_weights) != len(self.inserts):
            raise ValueError("insert_weights length mismatch")
        if len(self.reweights) and (
                self.reweight_values is None
                or len(self.reweight_values) != len(self.reweights)):
            raise ValueError("reweights require matching reweight_values")
        if self.all_weights is not None and self.size:
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
        return unique_by_sort(np.concatenate(srcs))

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


def _last_match(sorted_keys: np.ndarray, needles: np.ndarray) -> np.ndarray:
    """Index of the last ``sorted_keys`` entry equal to each needle, else
    -1: ``np.isin`` without its hash pass, plus a last-write-wins slot."""
    at = np.searchsorted(sorted_keys, needles, side="right") - 1
    hit = at >= 0
    hit[hit] = sorted_keys[at[hit]] == needles[hit]
    return np.where(hit, at, -1)


def apply(csr: Csr, batch: MutationBatch) -> Csr:
    """The graph ``batch`` makes of ``csr``, built in one pass.

    The whole batch is checked before anything is built, so a rejected
    batch raises and changes nothing.  An empty batch returns ``csr``; a
    weight-only one shares ``csr``'s topology arrays and caches.
    """
    if batch.all_weights is not None:
        if len(batch.all_weights) != csr.m:
            raise ValueError("all_weights length mismatch")
        fresh = csr.with_edge_values(batch.all_weights)
        fresh.share_topology_caches(csr)
        return fresh
    n = csr.n
    batch.validate_for(n)
    if not batch.size:
        return csr
    weighted = csr.edge_values is not None
    if len(batch.inserts) and batch.insert_weights is None and weighted:
        raise ValueError("inserting into a weighted graph requires "
                         "insert_weights")
    if batch.insert_weights is not None and not weighted:
        raise ValueError("insert_weights on an unweighted graph")
    if len(batch.reweights) and not weighted:
        raise ValueError("reweight on an unweighted graph")

    # the touched rows' lanes, keyed u*n+v like the edits
    dels, rws = batch.deletes, batch.reweights
    rows = unique_by_sort(np.concatenate([dels[:, 0], rws[:, 0]]))
    degs = csr.degrees_of(rows)
    _, eids = row_lanes(csr.indptr, rows, degs, int(degs.sum()))
    lane_rows = np.repeat(rows, degs)
    keys = lane_rows * n + csr.indices[eids]
    del_keys = dels[:, 0] * n + dels[:, 1]
    rw_keys = rws[:, 0] * n + rws[:, 1]
    # a delete takes every parallel copy, so a repeated one finds nothing
    bad_del = np.ones(len(dels), dtype=bool)
    bad_del[first_occurrence(del_keys)] = False
    bad_del |= _last_match(np.sort(keys), del_keys) < 0
    gone = _last_match(np.sort(del_keys), keys) >= 0
    bad_rw = _last_match(np.sort(keys[~gone]), rw_keys) < 0
    if bad_del.any() or bad_rw.any():
        # name the edit a row-by-row pass meets first: lowest row, a row's
        # deletes before its reweights, then batch order
        if dels[bad_del, 0].min(initial=n) <= rws[bad_rw, 0].min(initial=n):
            kind, pairs, bad = "delete", dels, bad_del
        else:
            kind, pairs, bad = "reweight", rws, bad_rw
        u, v = pairs[np.flatnonzero(bad)[np.argmin(pairs[bad, 0])]]
        raise ValueError(f"{kind} of absent edge ({u}, {v})")

    values = None
    if weighted:
        values = np.array(csr.edge_values, dtype=np.float64)
        if len(rws):
            # last write wins: the stable order's rightmost copy of a key
            order = np.argsort(rw_keys, kind="stable")
            slot = _last_match(rw_keys[order], keys)
            hit = ~gone & (slot >= 0)
            values[eids[hit]] = batch.reweight_values[order[slot[hit]]]
    if not batch.structural:
        fresh = csr.with_edge_values(values)
        fresh.share_topology_caches(csr)
        return fresh

    keep = np.ones(csr.m, dtype=bool)
    keep[eids[gone]] = False
    indices = csr.indices[keep]
    counts = np.diff(csr.indptr)
    counts -= np.bincount(lane_rows[gone], minlength=n)
    if values is not None:
        values = values[keep]
    ins = batch.inserts
    if len(ins):
        # each row's inserts at its end in arrival order; positions tie
        # across empty rows, so the stable sort by row keeps rows apart
        order = np.argsort(ins[:, 0], kind="stable")
        at = np.cumsum(counts)[ins[order, 0]]
        indices = np.insert(indices, at, ins[order, 1])
        if values is not None:
            values = np.insert(values, at, batch.insert_weights[order])
        counts += np.bincount(ins[:, 0], minlength=n)
    indptr = np.zeros(n + 1, dtype=EDGE_DT)
    np.cumsum(counts, out=indptr[1:])
    return Csr(indptr, indices, values, n=n, validate=False)


#: compact once the log since the last compaction reaches this share of
#: the edge count at that compaction (never below 64 mutations)
COMPACT_SHARE = 0.05


class DeltaCsr:
    """One graph's version chain: the current CSR built by :func:`apply`,
    plus the mutation log since the last compaction.

    A version is charged ``dynamic.compact`` at its bytes on its first
    ``snapshot``, to whatever machine that read passes; compaction only
    resets the log and counts itself.
    """

    __slots__ = ("compactions", "_csr", "_log", "_compacted_m", "_unread")

    def __init__(self, csr: Csr):
        self.compactions = 0
        self._csr = csr
        #: per-edge mutations since the last compaction
        self._log = 0
        self._compacted_m = csr.m
        #: the current version is built but nobody has read (paid for) it
        self._unread = False

    def apply(self, batch: MutationBatch, machine=None) -> None:
        """Build the next version (an ``all_weights`` batch compacts)."""
        fresh = apply(self._csr, batch)
        if batch.all_weights is not None:
            self.snapshot(machine)
            # topology is shared; the only bytes moved are the new weights
            _charge(machine, batch.all_weights.nbytes)
            self._csr = fresh
            self._reset()
        elif fresh is not self._csr:
            self._csr = fresh
            self._log += batch.size
            self._unread = True

    def snapshot(self, machine=None) -> Csr:
        """The current version; its first read after an ``apply`` is
        priced like a checkpoint, one simulated kernel moving its bytes."""
        if self._unread:
            _charge(machine, self._csr.nbytes())
            self._unread = False
        return self._csr

    def compact(self, machine=None) -> Csr:
        """Read the current version and start a new mutation log."""
        snap = self.snapshot(machine)
        if self._log:
            self._reset()
        return snap

    def maybe_compact(self, machine=None) -> Optional[Csr]:
        """Run :meth:`compact` once the log reaches the threshold."""
        if self._log and self._log >= max(
                64, int(COMPACT_SHARE * max(1, self._compacted_m))):
            return self.compact(machine)
        return None

    def _reset(self) -> None:
        self.compactions += 1
        self._log = 0
        self._compacted_m = self._csr.m


def _charge(machine, nbytes: int) -> None:
    """Price moving ``nbytes`` of a version as one ``dynamic.compact``."""
    if machine is not None and nbytes > 0:
        machine.launch("dynamic.compact", items=nbytes,
                       body_cycles=nbytes * calib.C_MEM_PER_BYTE)
        machine.counters.record_bytes(float(nbytes))


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
        deletes = np.unique(pairs, axis=0)  # np.unique ok: workload generation
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
