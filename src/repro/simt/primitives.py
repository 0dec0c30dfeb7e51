"""Data-parallel device primitives the operators launch.

Semantics are computed with NumPy; where a :class:`~repro.simt.machine.
Machine` is supplied a call also records the cycles the equivalent
device kernel would cost.  What is here: the filter's compaction record
(:func:`charge_compact`), the segmented reduction under neighbor-reduce,
and the dedup and relabel kernels (:func:`unique_by_sort`,
:func:`first_occurrence`, :func:`first_of_run`, :func:`unique_inverse`).

The paper's scan (Section 3: "CSR ... allows us to use scan ... to
reorganize sparse and uneven workloads into dense and uniform ones") is
no kernel of its own here.  It runs as the prefix sum inside
:func:`repro.graph.csr.row_lanes` and is charged as setup cycles by the
load balancers (:mod:`repro.core.loadbalance`).  Sorted search is priced
by ``LBPartitioned`` (one search per CTA chunk start) and runs as the
fused engine's ``searchsorted`` of kept lanes into the scanned offsets.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from . import calib
from .machine import Machine


def _charge(machine: Optional[Machine], name: str, n: int,
            per_item: float) -> None:
    if machine is not None and n >= 0:
        machine.map_kernel(name, n, per_item)


def charge_compact(machine: Machine, n: int) -> None:
    """Record the scan+scatter compaction pass over an ``n``-element
    input frontier, the standard GPU filter kernel: ``n`` compacted
    elements and one ``compact`` map kernel."""
    machine.counters.compact_elements += n
    machine.map_kernel("compact", n, calib.C_COMPACT_PER_ELEM)


def segmented_reduce_sum(values: np.ndarray, segment_offsets: np.ndarray,
                         machine: Optional[Machine] = None) -> np.ndarray:
    """Sum ``values`` within segments delimited by ``segment_offsets``.

    ``segment_offsets`` has ``n_segments + 1`` entries (CSR-style).
    """
    values = np.asarray(values, dtype=np.float64)
    offsets = np.asarray(segment_offsets, dtype=np.int64)
    if len(offsets) == 0:
        raise ValueError("segment_offsets must have at least one entry")
    # prefix-sum difference handles empty segments exactly (the device
    # primitive is a segmented scan anyway)
    csum = np.zeros(len(values) + 1, dtype=np.float64)
    np.cumsum(values, out=csum[1:])
    totals = csum[offsets[1:]] - csum[offsets[:-1]]
    _charge(machine, "segmented_reduce", len(values), calib.C_SCAN_PER_ELEM)
    return totals


def first_of_run(sorted_keys: np.ndarray) -> np.ndarray:
    """Mask of the first element of every run of equal adjacent keys."""
    first = np.empty(len(sorted_keys), dtype=bool)
    first[:1] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=first[1:])
    return first


def unique_by_sort(keys: np.ndarray, machine: Optional[Machine] = None) -> np.ndarray:
    """Deduplicate via sort + adjacent-difference compaction.

    Dense nonnegative id sets take a scatter-and-compact path (mark a
    bitmap, ``flatnonzero`` it) instead of sorting — the output is the
    same sorted unique array, and the simulated charge is identical."""
    keys = np.asarray(keys)
    out = None
    if len(keys) > 32 and keys.dtype == np.int64:
        hi = int(keys.max()) + 1
        if int(keys.min()) >= 0 and hi <= 4 * len(keys):
            seen = np.zeros(hi, dtype=bool)
            seen[keys] = True
            out = np.flatnonzero(seen)
    if out is None:
        out = np.sort(keys)
        out = out[first_of_run(out)]
    _charge(machine, "unique", len(keys), 14.0)
    return out


def unique_inverse(keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """What ``np.unique`` returns with ``return_inverse=True``, without
    its hash pass: ``(uniq, inverse)`` with ``uniq[inverse] == keys``,
    same values and dtypes.  Uncharged (a relabel, not a modelled device
    kernel).

    Dense non-negative integer ids (``max < 4·len``, the rule of
    :func:`unique_by_sort`) mark a bitmap whose prefix sum is each id's
    rank; anything else stable-sorts and numbers the runs."""
    keys = np.asarray(keys)
    n = len(keys)
    if n and keys.dtype.kind in "iu":
        hi = int(keys.max()) + 1
        if int(keys.min()) >= 0 and hi <= 4 * n:
            seen = np.zeros(hi, dtype=bool)
            seen[keys] = True
            rank = np.cumsum(seen, dtype=np.intp)
            rank -= 1
            uniq = np.flatnonzero(seen).astype(keys.dtype, copy=False)
            return uniq, rank[keys]
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    first = first_of_run(sorted_keys)
    inverse = np.empty(n, dtype=np.intp)
    inverse[order] = np.cumsum(first, dtype=np.intp) - 1
    return sorted_keys[first], inverse


def first_occurrence(keys: np.ndarray) -> np.ndarray:
    """Lane index of the first lane holding each distinct key, ascending
    by key (what ``np.unique`` returns as ``return_index``): a stable
    argsort keeps equal keys in lane order, so each run starts at its
    first lane."""
    order = np.argsort(keys, kind="stable")
    return order[first_of_run(keys[order])]
