"""Problem base class — Gunrock's algorithm-state container.

"Gunrock programs specify three components: the Problem, which provides
graph topology data and an algorithm-specific data management interface;
the functors ...; and an enactor" (Section 4.3).

A Problem owns the graph, the (optional) simulated machine, and named
per-vertex / per-edge SoA arrays registered through
:meth:`ProblemBase.add_vertex_array` / :meth:`add_edge_array`.  The
registration API exists so the memory-footprint audit (Section 6:
"data size is alpha|E| + beta|V|") can enumerate exactly what a primitive
allocates.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..graph.csr import Csr
from ..simt.machine import Machine


class ProblemBase:
    """Graph + machine + named SoA state arrays."""

    #: registered array names with *benign* nondeterminism by design —
    #: e.g. BFS parent pointers, where any same-level parent is a valid
    #: answer exactly as on real hardware.  The dynamic sanitizer
    #: (:mod:`repro.analysis.sanitizer`) exempts these from its
    #: write-write value checks; unrouted writes are never exempt.
    relaxed_arrays: frozenset = frozenset()

    def __init__(self, graph: Csr, machine: Optional[Machine] = None):
        self.graph = graph
        self.machine = machine
        self._vertex_arrays: Dict[str, np.ndarray] = {}
        self._edge_arrays: Dict[str, np.ndarray] = {}

    # -- data management -------------------------------------------------------

    def add_vertex_array(self, name: str, dtype, fill) -> np.ndarray:
        """Allocate and register an ``(n,)`` per-vertex array."""
        arr = np.full(self.graph.n, fill, dtype=dtype)
        self._vertex_arrays[name] = arr
        setattr(self, name, arr)
        return arr

    def add_edge_array(self, name: str, dtype, fill) -> np.ndarray:
        """Allocate and register an ``(m,)`` per-edge array."""
        arr = np.full(self.graph.m, fill, dtype=dtype)
        self._edge_arrays[name] = arr
        setattr(self, name, arr)
        return arr

    def registered_arrays(self) -> Dict[str, np.ndarray]:
        """All registered state arrays by name (vertex first, then edge).

        This registry is what the memory audit enumerates, what the
        dynamic sanitizer tracks through kernels, and what super-step
        checkpointing (:mod:`repro.resilience.checkpoint`) snapshots and
        restores.
        """
        out: Dict[str, np.ndarray] = {}
        out.update(self._vertex_arrays)
        out.update(self._edge_arrays)
        return out

    def array_specs(self) -> Dict[str, Dict[str, object]]:
        """Machine-readable registry: name -> kind/dtype/size/relaxed.

        The static effect analysis (:mod:`repro.analysis.effects`) infers
        the same registry from the ``add_*_array`` call sites without
        importing anything; this runtime view is its ground truth, and
        the two are cross-checked in tests.
        """
        out: Dict[str, Dict[str, object]] = {}
        for name, arr in self._vertex_arrays.items():
            out[name] = {"kind": "vertex", "dtype": str(arr.dtype),
                         "size": int(arr.shape[0]),
                         "relaxed": name in self.relaxed_arrays}
        for name, arr in self._edge_arrays.items():
            out[name] = {"kind": "edge", "dtype": str(arr.dtype),
                         "size": int(arr.shape[0]),
                         "relaxed": name in self.relaxed_arrays}
        return out

    # -- resilience hooks --------------------------------------------------------

    def snapshot_state(self) -> Dict[str, object]:
        """Extra non-array state a checkpoint must capture (overridable).

        Subclasses with mutable scalars or derived structures that the
        registered arrays do not cover (e.g. BFS's unvisited counter)
        return copies of them here; :meth:`restore_state` reinstalls them.
        """
        return {}

    def restore_state(self, state: Dict[str, object]) -> None:
        """Reinstall state captured by :meth:`snapshot_state`."""

    # -- memory audit ------------------------------------------------------------

    def state_nbytes(self) -> int:
        """Bytes of algorithm state (excludes the topology itself)."""
        return sum(a.nbytes for a in self._vertex_arrays.values()) + \
            sum(a.nbytes for a in self._edge_arrays.values())

    def footprint_coefficients(self) -> Dict[str, float]:
        """The paper's (alpha, beta): per-edge and per-vertex *elements*.

        alpha counts 4-byte-equivalent elements per edge, beta per vertex
        — comparable to Section 6's "alpha is usually 1 and at most 3,
        beta is between 2 and 8".
        """
        v_bytes = sum(a.nbytes for a in self._vertex_arrays.values())
        e_bytes = sum(a.nbytes for a in self._edge_arrays.values())
        n = max(1, self.graph.n)
        m = max(1, self.graph.m)
        return {"alpha": e_bytes / m / 4.0, "beta": v_bytes / n / 4.0}

    # -- hooks the operators may use ------------------------------------------------

    def unvisited_mask(self) -> np.ndarray:
        """Dense mask of vertices not yet finalized.

        Pull-based advance (Section 4.1.1) generates its candidate
        frontier from this; problems that support pull must override.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not define unvisited_mask(); "
            "pull-based advance requires it")

    def reset(self) -> None:  # pragma: no cover - overridden by subclasses
        """Re-initialize state so the problem can be enacted again."""
        raise NotImplementedError
