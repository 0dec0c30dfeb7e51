"""Data-parallel device primitives.

These are the GPU building blocks Gunrock leans on (Section 3: "CSR ...
allows us to use scan, a common and efficient parallel primitive, to
reorganize sparse and uneven workloads into dense and uniform ones").
Semantics are computed with NumPy; when a :class:`~repro.simt.machine.
Machine` is supplied each call also records the cycles the equivalent
device primitive would cost (work-efficient scan, merge-path sorted
search, scan+scatter compaction).

All functions accept ``machine=None`` for plain library use.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from . import calib
from .machine import Machine


def _charge(machine: Optional[Machine], name: str, n: int, per_item: float,
            extra: float = 0.0) -> None:
    if machine is None or n < 0:
        return
    machine.map_kernel(name, n, per_item)
    if extra:
        machine.launch(name + "_extra", body_cycles=extra, items=0)


def exclusive_scan(values: np.ndarray, machine: Optional[Machine] = None) -> Tuple[np.ndarray, int]:
    """Exclusive prefix sum.  Returns ``(scan, total)``.

    Models a single-pass decoupled-lookback device scan: ~2 memory
    round-trips per element.
    """
    values = np.asarray(values)
    out = np.empty(len(values) + 1, dtype=np.int64)
    out[0] = 0
    np.cumsum(values, out=out[1:])
    if machine is not None:
        machine.counters.scan_elements += len(values)
        machine.map_kernel("scan", len(values), calib.C_SCAN_PER_ELEM)
    return out[:-1], int(out[-1])


def inclusive_scan(values: np.ndarray, machine: Optional[Machine] = None) -> np.ndarray:
    """Inclusive prefix sum."""
    values = np.asarray(values)
    out = np.cumsum(values)
    if machine is not None:
        machine.counters.scan_elements += len(values)
        machine.map_kernel("scan", len(values), calib.C_SCAN_PER_ELEM)
    return out


def reduce_sum(values: np.ndarray, machine: Optional[Machine] = None) -> float:
    """Device reduction (tree depth folded into the per-element constant)."""
    values = np.asarray(values)
    total = values.sum()
    _charge(machine, "reduce", len(values), calib.C_SCAN_PER_ELEM * 0.5)
    return total


def compact(data: np.ndarray, mask: np.ndarray,
            machine: Optional[Machine] = None) -> np.ndarray:
    """Stream compaction: keep ``data[i]`` where ``mask[i]``.

    Models scan-of-flags + scatter, the standard GPU filter kernel.
    """
    data = np.asarray(data)
    mask = np.asarray(mask, dtype=bool)
    if data.shape[0] != mask.shape[0]:
        raise ValueError(f"compact: data length {data.shape[0]} != mask length {mask.shape[0]}")
    out = data[mask]
    if machine is not None:
        machine.counters.compact_elements += len(data)
        machine.map_kernel("compact", len(data), calib.C_COMPACT_PER_ELEM)
    return out


def sorted_search(needles: np.ndarray, haystack: np.ndarray,
                  side: str = "right",
                  machine: Optional[Machine] = None) -> np.ndarray:
    """Vectorized sorted search (merge-path): ``searchsorted`` semantics.

    Gunrock uses this to map equal-size edge chunks back to their source
    rows in the load-balanced partitioning strategy (Section 4.4, Fig. 3).
    """
    needles = np.asarray(needles)
    haystack = np.asarray(haystack)
    out = np.searchsorted(haystack, needles, side=side)
    if machine is not None:
        machine.counters.sorted_search_needles += len(needles)
        machine.map_kernel("sorted_search", len(needles), calib.C_SORTED_SEARCH)
    return out


def histogram(keys: np.ndarray, n_bins: int,
              machine: Optional[Machine] = None) -> np.ndarray:
    """Device histogram via atomics (cost includes expected conflicts)."""
    keys = np.asarray(keys)
    counts = np.bincount(keys, minlength=n_bins)
    if machine is not None:
        conflicts = int(len(keys) - np.count_nonzero(counts)) if len(keys) else 0
        machine.counters.record_atomics(len(keys), max(0, conflicts))
        machine.map_kernel("histogram", len(keys), calib.C_ATOMIC * 0.5)
    return counts[:n_bins]


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


def segment_ids_from_offsets(offsets: np.ndarray, total: Optional[int] = None,
                             machine: Optional[Machine] = None) -> np.ndarray:
    """Expand CSR-style offsets into a per-element segment-id array.

    The workhorse of frontier expansion: given the scanned neighbor-list
    sizes of a frontier, produce for every output edge slot the index of
    the frontier vertex that owns it.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    n = int(offsets[-1]) if total is None else int(total)
    n_segments = len(offsets) - 1
    ids = np.zeros(n, dtype=np.int64)
    starts = offsets[:-1]
    valid = starts < n
    np.add.at(ids, starts[valid], 1)
    ids = np.cumsum(ids) - 1
    _charge(machine, "expand_segments", n, calib.C_SCAN_PER_ELEM)
    return ids.astype(np.int64)


def sort_pairs(keys: np.ndarray, values: np.ndarray,
               machine: Optional[Machine] = None) -> Tuple[np.ndarray, np.ndarray]:
    """Device radix sort of (key, value) pairs; stable.

    Cost model: 4 passes of counting sort over 8-bit digits, ~10 cycles
    per element per pass folded into one constant.
    """
    keys = np.asarray(keys)
    values = np.asarray(values)
    order = np.argsort(keys, kind="stable")
    _charge(machine, "radix_sort", len(keys), 12.0)
    return keys[order], values[order]


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
