"""Compressed sparse row (CSR) graph storage.

Gunrock's default representation (Section 3): a row-offsets array ``R``
(``indptr``, length ``n+1``) and a column-indices array ``C`` (``indices``,
length ``m``), with per-edge and per-vertex properties stored as separate
structure-of-arrays (SoA) columns so that simulated accesses coalesce.

The CSR object is immutable after construction; a reverse (CSC) view used
by pull-based traversal is built lazily and cached, along with the
edge-source expansion used by edge frontiers.

Two kernels turn rows into work on their edges: :func:`row_lanes` expands
them into one lane per edge, and :func:`transpose_product` sums a
per-row value into every edge's destination without building a lane.
"""

from __future__ import annotations

import weakref
from typing import Dict, Optional, Tuple, Union

import numpy as np

try:                                     # optional: the 0/1 transpose product
    import scipy.sparse as _sp
except ImportError:                      # pragma: no cover - env-dependent
    _sp = None

# Topology is normalized to int64 at construction so the operator hot
# paths (advance/filter/pull expansion) index directly into it without
# paying an ``.astype(np.int64)`` copy per call.  ``tests/test_graph_csr``
# pins this invariant.
VERTEX_DT = np.int64
EDGE_DT = np.int64


def row_lanes(indptr: np.ndarray, rows: np.ndarray, degs: np.ndarray,
              total: int, ws=None) -> Tuple[np.ndarray, np.ndarray]:
    """Expand CSR rows into one lane per edge: ``(excl, eids)``.

    ``rows`` index ``indptr`` (an array; any order, duplicates allowed),
    ``degs`` are their int64 degrees and ``total == degs.sum()``.  ``eids``
    lists each row's edge ids back to back in ``rows`` order and belongs
    to the caller; ``excl`` is the exclusive prefix sum of ``degs``.
    ``total == 0`` returns two empty arrays.

    Both arrays are owned by the caller.  ``ws`` selects nothing: a
    ``Workspace`` supplies its cached read-only iota ramp, ``None``
    allocates one.  DESIGN §10 lists the callers.
    """
    if total == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty
    excl = np.empty(len(rows), dtype=np.int64)
    ramp = np.arange(total, dtype=np.int64) if ws is None else ws.iota(total)
    excl[0] = 0
    np.cumsum(degs[:-1], out=excl[1:])
    starts = indptr[rows]
    np.subtract(starts, excl, out=starts)  # rebase: edge id of lane 0
    eids = np.repeat(starts, degs)
    np.add(eids, ramp, out=eids)
    return excl, eids


def transpose_min_edges(m: int) -> int:
    """Edge volume from which one ``T @ x`` over all ``m`` edges beats
    scattering the frontier's own lanes: a quarter of the graph, the
    fused engine's crossover (``RegimeTable.spmv_min_edges``)."""
    return max(1, m // 4)


def transpose_product(graph: "Csr", acc: np.ndarray, rows: np.ndarray,
                      values) -> bool:
    """``acc[:] = T @ x`` with ``x[rows] = values`` and ``T`` the graph's
    0/1 transpose (:attr:`ArtifactCache.transpose_ones`): the gather form
    of ``atomic_add(acc, dsts, repeat(values, degs))`` over the lanes of
    ``rows``, equal to it bitwise, built without a single lane.

    Runs, and returns True, only when that equality is guaranteed:

    * ``acc`` is float64 with one cell per vertex, every cell +0.0
      bitwise, so each cell's sum starts from +0.0 in both forms;
    * ``rows`` is the cached ``iota_n`` or strictly increasing, so each
      cell receives its lanes in ascending source order.  A source
      outside ``rows`` adds ``1.0 * +0.0``, which leaves a sum begun at
      +0.0 unchanged;
    * ``T`` exists: scipy is present, ``m > 0``, and every row of ``T``
      stores its sources in ascending order, the order the lanes add
      them in.

    Otherwise ``acc`` is left untouched and False comes back: the caller
    scatters lanes.  Edge volume is the caller's choice
    (:func:`transpose_min_edges`).
    """
    n = graph.n
    if acc.dtype != np.float64 or acc.shape != (n,) \
            or acc.view(np.uint64).any():
        return False
    full = rows is graph.artifacts.iota_n
    if not full and len(rows) > 1 and not (rows[1:] > rows[:-1]).all():
        return False
    T = graph.artifacts.transpose_ones
    if T is None:
        return False
    if full or len(rows) == n:           # n ascending vertex ids are iota
        x = np.ascontiguousarray(values, dtype=np.float64)
    else:
        x = np.zeros(n)
        x[rows] = values
    acc[:] = T @ x
    return True


#: read-only unit weights; every transpose's ``data`` is a prefix view
_UNITS = np.ones(0)


def _unit_weights(m: int) -> np.ndarray:
    # frozen before it is published, and sliced from the local, so a
    # thread that loses a race to grow the run still gets m read-only ones
    global _UNITS
    u = _UNITS
    if len(u) < m:
        u = np.ones(m)
        u.setflags(write=False)
        if len(u) > len(_UNITS):
            _UNITS = u
    return u[:m]


def _transpose_ones(g: "Csr"):
    """The scipy CSR of ``g``'s transpose with unit weights, or None.

    Rows are destinations and columns sources, laid out as ``g.csc``: the
    CSC's own int64 ``indptr``/``indices`` are assigned, not passed to
    the constructor, which would copy them down to int32, and the weights
    are a view of one read-only run of ones shared by every graph.  None
    without scipy, without edges, or when some CSC row lists its sources
    out of order (a graph whose ``csc`` is another graph's unsorted CSR).
    """
    if _sp is None or g.m == 0:
        return None
    csc = g.csc
    # a drop in source id is allowed only where a new row starts
    drops = np.flatnonzero(csc.indices[1:] < csc.indices[:-1]) + 1
    if len(drops) and not np.array_equal(
            csc.indptr[np.searchsorted(csc.indptr, drops)], drops):
        return None
    T = _sp.csr_matrix((g.n, g.n))
    T.data = _unit_weights(g.m)
    T.indices = csc.indices
    T.indptr = csc.indptr
    return T


class ArtifactCache:
    """Memoized derived structures of one :class:`Csr`.

    The per-graph companion of the per-problem
    :class:`~repro.core.workspace.Workspace`: degree arrays, iota ramps,
    and float64 weights that the operators and load balancers would
    otherwise recompute every call.  All cached arrays are marked
    read-only — they are shared across every problem on the graph.

    The cache holds the graph's arrays and only a weak reference to the
    graph itself, so a dropped graph is freed at once rather than left
    in a cycle for the collector.  The artifacts that need the graph
    object (edge sources, the transpose over its CSC) fall back to a
    throwaway graph over the same arrays once the owner is gone.
    """

    __slots__ = ("_owner", "_indptr", "_indices", "_values", "_n",
                 "_out_degrees", "_iota_n", "_iota_m", "_weights64",
                 "_segments", "_transpose")

    def __init__(self, g: "Csr"):
        self._owner = weakref.ref(g)
        self._indptr, self._indices = g.indptr, g.indices
        self._values, self._n = g.edge_values, g.n
        self._out_degrees: Optional[np.ndarray] = None
        self._iota_n: Optional[np.ndarray] = None
        self._iota_m: Optional[np.ndarray] = None
        self._weights64: Optional[np.ndarray] = None
        self._segments: Optional[Tuple[np.ndarray, np.ndarray]] = None
        #: the transpose, or False once known to be unavailable
        self._transpose = None

    @staticmethod
    def _frozen(arr: np.ndarray) -> np.ndarray:
        arr.setflags(write=False)
        return arr

    def _graph(self) -> "Csr":
        g = self._owner()
        if g is None:
            g = Csr(self._indptr, self._indices, self._values, n=self._n,
                    validate=False)
        return g

    @property
    def out_degrees(self) -> np.ndarray:
        """``np.diff(indptr)`` computed once (read-only)."""
        if self._out_degrees is None:
            self._out_degrees = self._frozen(np.diff(self._indptr))
        return self._out_degrees

    @property
    def degree_prefix(self) -> np.ndarray:
        """Exclusive prefix sum of out-degrees — which is ``indptr``
        itself; exposed under the load-balancer's name for it."""
        return self._indptr

    @property
    def iota_n(self) -> np.ndarray:
        """Read-only ``arange(n)`` — the all-vertices frontier ramp."""
        if self._iota_n is None:
            self._iota_n = self._frozen(np.arange(self._n, dtype=np.int64))
        return self._iota_n

    @property
    def iota_m(self) -> np.ndarray:
        """Read-only ``arange(m)`` — the all-edges lane ramp."""
        if self._iota_m is None:
            self._iota_m = self._frozen(
                np.arange(len(self._indices), dtype=np.int64))
        return self._iota_m

    @property
    def weights64(self) -> np.ndarray:
        """Read-only float64 edge weights (ones when unweighted) —
        the cached counterpart of :meth:`Csr.weight_or_ones`."""
        if self._weights64 is None:
            self._weights64 = self._frozen(self._graph().weight_or_ones())
        return self._weights64

    @property
    def edge_sources(self) -> np.ndarray:
        return self._graph().edge_sources

    @property
    def segments(self) -> Tuple[np.ndarray, np.ndarray]:
        """Read-only ``(rows, starts)``: the vertices that own at least
        one edge, ascending, and the edge id each one's list starts at —
        the ``ufunc.reduceat`` segmentation of ``indices`` by row (rows
        without edges own no segment, so none is ever empty)."""
        if self._segments is None:
            rows = np.flatnonzero(self.out_degrees)
            self._segments = (self._frozen(rows),
                              self._frozen(self._indptr[rows]))
        return self._segments

    @property
    def transpose_ones(self):
        """The 0/1 transpose :func:`transpose_product` multiplies by: a
        scipy CSR sharing the CSC's index arrays and a process-wide run
        of unit weights, or None when unavailable.  Like the other
        artifacts it is not counted by :meth:`Csr.nbytes`."""
        if self._transpose is None:
            T = _transpose_ones(self._graph())
            self._transpose = False if T is None else T
        return None if self._transpose is False else self._transpose


class Csr:
    """An immutable directed graph in CSR form.

    Parameters
    ----------
    indptr:
        Row offsets, shape ``(n + 1,)``, non-decreasing, ``indptr[0] == 0``.
    indices:
        Neighbor (destination) vertex ids, shape ``(m,)``.
    edge_values:
        Optional per-edge weights aligned with ``indices``.
    n:
        Vertex count; inferred from ``indptr`` when omitted.
    """

    __slots__ = ("indptr", "indices", "edge_values", "n", "m",
                 "_csc", "_edge_sources", "_artifacts", "_fused_plans",
                 "vertex_props", "edge_props", "__weakref__")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray,
                 edge_values: Optional[np.ndarray] = None,
                 n: Optional[int] = None, validate: bool = True):
        self.indptr = np.ascontiguousarray(indptr, dtype=EDGE_DT)
        self.indices = np.ascontiguousarray(indices, dtype=VERTEX_DT)
        self.n = int(len(self.indptr) - 1 if n is None else n)
        self.m = int(len(self.indices))
        self.edge_values = None if edge_values is None else \
            np.ascontiguousarray(edge_values)
        #: named per-vertex SoA property columns
        self.vertex_props: Dict[str, np.ndarray] = {}
        #: named per-edge SoA property columns
        self.edge_props: Dict[str, np.ndarray] = {}
        #: the CSC, or a weak reference to the graph this one is the CSC of
        self._csc: Union["Csr", weakref.ref, None] = None
        self._edge_sources: Optional[np.ndarray] = None
        self._artifacts: Optional[ArtifactCache] = None
        #: per-primitive fused execution plans (repro.analysis.plan);
        #: cached here so plans die with the graph they were learned on
        self._fused_plans: Optional[dict] = None
        if validate:
            self.validate()

    # -- invariants ----------------------------------------------------------

    def validate(self) -> None:
        """Check CSR structural invariants; raise ``ValueError`` on breakage."""
        if len(self.indptr) != self.n + 1:
            raise ValueError(f"indptr length {len(self.indptr)} != n+1 = {self.n + 1}")
        if self.indptr[0] != 0:
            raise ValueError("indptr[0] must be 0")
        if int(self.indptr[-1]) != self.m:
            raise ValueError(f"indptr[-1] = {self.indptr[-1]} != m = {self.m}")
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if self.m and (self.indices.min() < 0 or self.indices.max() >= self.n):
            raise ValueError("indices contain out-of-range vertex ids")
        if self.edge_values is not None and len(self.edge_values) != self.m:
            raise ValueError("edge_values length mismatch")

    # -- basic accessors -----------------------------------------------------

    @property
    def out_degrees(self) -> np.ndarray:
        """Out-degree of every vertex, shape ``(n,)`` (cached, read-only)."""
        return self.artifacts.out_degrees

    def degrees_of(self, vertices: np.ndarray) -> np.ndarray:
        """Out-degrees of a vertex id array (frontier degree lookup)."""
        v = np.asarray(vertices, dtype=np.int64)
        return self.indptr[v + 1] - self.indptr[v]

    def neighbors(self, v: int) -> np.ndarray:
        """Read-only view of vertex ``v``'s neighbor list."""
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def edge_range(self, v: int) -> range:
        """Edge ids owned by vertex ``v``."""
        return range(int(self.indptr[v]), int(self.indptr[v + 1]))

    def weight_or_ones(self) -> np.ndarray:
        """Edge weights, defaulting to 1.0 for unweighted graphs."""
        if self.edge_values is None:
            return np.ones(self.m, dtype=np.float64)
        return np.asarray(self.edge_values, dtype=np.float64)

    # -- derived structures (cached) ------------------------------------------

    @property
    def artifacts(self) -> "ArtifactCache":
        """Memoized derived arrays (degrees, iota ramps, weights)."""
        if self._artifacts is None:
            self._artifacts = ArtifactCache(self)
        return self._artifacts

    @property
    def edge_sources(self) -> np.ndarray:
        """Source vertex of every edge id (expansion of indptr), cached."""
        if self._edge_sources is None:
            src = np.repeat(
                np.arange(self.n, dtype=VERTEX_DT), self.out_degrees
            )
            self._edge_sources = src
        return self._edge_sources

    @property
    def csc(self) -> "Csr":
        """The reverse graph (CSC of this one), used by pull traversal.

        ``csc.indices`` holds in-neighbors; ``csc.edge_props['orig_edge']``
        maps each reverse edge back to its forward edge id.  The round
        trip ``g.csc.csc is g`` holds while ``g`` lives: the CSC points
        back weakly, so the pair is no reference cycle.
        """
        csc = self._built_csc()
        if csc is None:
            csc = self._csc = self.reverse()
            csc._csc = weakref.ref(self)
        return csc

    def _built_csc(self) -> Optional["Csr"]:
        csc = self._csc
        return csc() if isinstance(csc, weakref.ref) else csc

    def reverse(self) -> "Csr":
        """Build the transposed graph (counting sort by destination)."""
        counts = np.bincount(self.indices, minlength=self.n).astype(EDGE_DT)
        indptr = np.zeros(self.n + 1, dtype=EDGE_DT)
        np.cumsum(counts, out=indptr[1:])
        # a stable sort's permutation is unique, so sorting the ids as
        # 16-bit keys (numpy radix-sorts those) gives the same order
        keys = self.indices.astype(np.uint16) if self.n <= 1 << 16 \
            else self.indices
        order = np.argsort(keys, kind="stable")
        indices = self.edge_sources[order]
        values = None if self.edge_values is None else self.edge_values[order]
        rev = Csr(indptr, indices, values, n=self.n, validate=False)
        rev.edge_props["orig_edge"] = order.astype(EDGE_DT)
        return rev

    @property
    def in_degrees(self) -> np.ndarray:
        return self.csc.out_degrees

    # -- transformations ------------------------------------------------------

    def with_edge_values(self, values: np.ndarray) -> "Csr":
        """Return a copy of this topology with new edge weights attached."""
        if len(values) != self.m:
            raise ValueError("edge value array length mismatch")
        return Csr(self.indptr, self.indices, np.asarray(values), n=self.n,
                   validate=False)

    def share_topology_caches(self, src: "Csr") -> None:
        """Adopt ``src``'s topology-derived caches (degrees, iota ramps,
        edge sources, the CSC *structure*) into this graph.

        Used by the delta-CSR compaction path when a mutation batch was
        weight-only: the new snapshot shares ``indptr``/``indices`` with
        its base by construction, so every cache keyed on topology alone
        is still valid and re-deriving it (an O(m) argsort for the CSC)
        would be pure waste.  Weight-dependent caches (``weights64``, CSC
        edge values) are rebuilt from the new weights.
        """
        if src.indptr is not self.indptr or src.indices is not self.indices:
            raise ValueError("share_topology_caches requires identical "
                             "topology arrays (same objects)")
        if src._edge_sources is not None:
            self._edge_sources = src._edge_sources
        if src._artifacts is not None:
            mine = self.artifacts
            mine._out_degrees = src._artifacts._out_degrees
            mine._iota_n = src._artifacts._iota_n
            mine._iota_m = src._artifacts._iota_m
        old = src._built_csc()
        if old is not None and self._csc is None:
            order = old.edge_props["orig_edge"]
            vals = None if self.edge_values is None \
                else np.ascontiguousarray(self.edge_values)[order]
            csc = Csr(old.indptr, old.indices, vals, n=self.n,
                      validate=False)
            csc.edge_props["orig_edge"] = order
            csc._csc = weakref.ref(self)
            self._csc = csc

    # -- memory audit (Section 6: data size = alpha*|E| + beta*|V|) ----------

    def nbytes(self) -> int:
        """Bytes held by the topology arrays (not cached derived views)."""
        total = self.indptr.nbytes + self.indices.nbytes
        if self.edge_values is not None:
            total += self.edge_values.nbytes
        for arr in self.vertex_props.values():
            total += arr.nbytes
        for arr in self.edge_props.values():
            total += arr.nbytes
        return total

    # -- dunder ---------------------------------------------------------------

    def __repr__(self) -> str:
        w = "weighted" if self.edge_values is not None else "unweighted"
        return f"Csr(n={self.n}, m={self.m}, {w})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Csr):
            return NotImplemented
        same = (self.n == other.n and self.m == other.m
                and np.array_equal(self.indptr, other.indptr)
                and np.array_equal(self.indices, other.indices))
        if not same:
            return False
        if (self.edge_values is None) != (other.edge_values is None):
            return False
        if self.edge_values is not None:
            return bool(np.array_equal(self.edge_values, other.edge_values))
        return True

    def __hash__(self):  # pragma: no cover - identity hashing for caches
        return id(self)
