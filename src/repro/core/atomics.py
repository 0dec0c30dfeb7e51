"""Bulk-synchronous atomics.

CUDA functors call ``atomicMin``/``atomicAdd``/``atomicCAS`` per lane; our
vectorized functors call these helpers over index/value arrays.  Semantics
follow the BSP reading used throughout Gunrock: every lane observes the
*pre-kernel* value of the cell (labels/distances written by earlier
iterations), and the post-kernel cell holds the combined result of all
lanes.  This is deterministic regardless of lane order, and it is exactly
the property Gunrock's primitives rely on (e.g. SSSP's ``UpdateLabel``
returns whether the lane improved on the previous distance; the filter
step then removes redundant winners).

Cost model: each call charges ``C_ATOMIC`` per lane plus serialization of
conflicting lanes (lanes - distinct addresses) at ``C_ATOMIC_CONFLICT``,
folded into the enclosing fused kernel when one is open.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..analysis.sanitizer import current_sanitizer
from ..simt import calib
from ..simt.machine import Machine


def _tracked(array: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Report this atomic's lane set to an active sanitizer.

    Returns the raw base array so the atomic's internal reads and writes
    bypass raw-write tracking — routed writes are the contract-compliant
    path, recorded as a per-kernel atomic write-set instead.
    """
    sanitizer = current_sanitizer()
    if sanitizer is not None:
        return sanitizer.on_atomic(array, idx)
    return array


#: cells of histogram scratch allowed per lane: the address range
#: ``max - min`` must stay below this many times the lane count for
#: :func:`cell_stats` to count cells with ``np.bincount``.  At 4x the
#: histogram beat the sort at every lane count measured (2 to 65k) and at
#: 16x it lost from 512 lanes up; at 4x its transient scratch is at most
#: 32 bytes a lane.
_HISTOGRAM_CELLS_PER_LANE = 4

#: what an atomic launch is priced from: ``(lanes, distinct cells, the
#: hottest cell's multiplicity)``
CellStats = Tuple[int, int, int]


def cell_stats(idx: np.ndarray) -> CellStats:
    """The :data:`CellStats` of a lane -> cell array.

    A histogram over the touched range when that range is commensurate
    with the lane count, a sort otherwise — ``[0, 2**40]`` must not
    allocate O(max - min).  A scatter that knows its per-cell lane counts
    without lanes (:func:`repro.graph.csr.transpose_cell_stats`) skips
    this and prices the counts directly.
    """
    lanes = len(idx)
    if lanes == 0:
        return 0, 0, 0
    lo = int(idx.min())
    if int(idx.max()) - lo < _HISTOGRAM_CELLS_PER_LANE * lanes:
        counts = np.bincount(idx - lo)
        return lanes, int(np.count_nonzero(counts)), int(counts.max())
    ordered = np.sort(idx)
    # last lane of every run of equal cells but the final run
    # (the range outgrew the lanes, so there are at least two runs)
    ends = np.flatnonzero(ordered[1:] != ordered[:-1])
    hottest = max(int(ends[0]) + 1, lanes - 1 - int(ends[-1]))
    if len(ends) > 1:
        hottest = max(hottest, int((ends[1:] - ends[:-1]).max()))
    return lanes, len(ends) + 1, hottest


def price(machine: Machine, name: str, stats: CellStats) -> None:
    """Charge one atomic launch from its :data:`CellStats`: conflicts are
    the lanes beyond the first per cell, and the hottest cell's
    multiplicity is the serial chain.  No lane, no launch."""
    lanes, distinct, hottest = stats
    if lanes == 0:
        return
    machine.counters.record_atomics(lanes, lanes - distinct)
    # aggregate throughput term + serial chain on the hottest address
    body = (lanes * calib.C_ATOMIC_THROUGHPUT
            + (hottest - 1) * calib.C_ATOMIC_CONFLICT)
    machine.launch(name, body_cycles=body, items=lanes)


def _charge(machine: Optional[Machine], name: str, idx: np.ndarray) -> None:
    """Price one atomic launch from its lane -> cell distribution."""
    if machine is not None:
        price(machine, name, cell_stats(idx))


def atomic_min(array: np.ndarray, idx: np.ndarray, vals: np.ndarray,
               machine: Optional[Machine] = None) -> np.ndarray:
    """``atomicMin`` over lanes: returns the per-lane "improved" mask.

    A lane's mask bit is True when its value is strictly below the
    pre-kernel value of its cell — the condition under which Gunrock's
    SSSP admits the destination into the new frontier.
    """
    idx = np.asarray(idx, dtype=np.int64)
    vals = np.asarray(vals)
    if len(idx) != len(vals):
        raise ValueError("atomic_min: index/value length mismatch")
    array = _tracked(array, idx)
    old = array[idx]
    won = vals < old
    np.minimum.at(array, idx, vals)
    _charge(machine, "atomic_min", idx)
    return won


def atomic_max(array: np.ndarray, idx: np.ndarray, vals: np.ndarray,
               machine: Optional[Machine] = None) -> np.ndarray:
    """``atomicMax`` over lanes: per-lane "improved" mask (strictly above)."""
    idx = np.asarray(idx, dtype=np.int64)
    vals = np.asarray(vals)
    if len(idx) != len(vals):
        raise ValueError("atomic_max: index/value length mismatch")
    array = _tracked(array, idx)
    old = array[idx]
    won = vals > old
    np.maximum.at(array, idx, vals)
    _charge(machine, "atomic_max", idx)
    return won


def atomic_add(array: np.ndarray, idx: np.ndarray, vals: np.ndarray,
               machine: Optional[Machine] = None) -> None:
    """``atomicAdd`` over lanes (PageRank/BC accumulation)."""
    idx = np.asarray(idx, dtype=np.int64)
    vals = np.asarray(vals)
    if len(idx) != len(vals):
        raise ValueError("atomic_add: index/value length mismatch")
    array = _tracked(array, idx)
    np.add.at(array, idx, vals)
    _charge(machine, "atomic_add", idx)


def atomic_cas_claim(flags: np.ndarray, idx: np.ndarray,
                     machine: Optional[Machine] = None) -> np.ndarray:
    """First-claimer-wins ``atomicCAS`` on a boolean flag array.

    Returns the per-lane mask of *winners*: exactly one lane per distinct
    unclaimed cell (deterministically the first occurrence in lane order).
    This is the primitive behind Gunrock's non-idempotent advance, which
    "internally uses atomic operations to guarantee each element appears
    only once in the output frontier" (Section 4.1.1).
    """
    idx = np.asarray(idx, dtype=np.int64)
    flags = _tracked(flags, idx)
    won = np.zeros(len(idx), dtype=bool)
    if len(idx):
        unclaimed = ~flags[idx]
        # first occurrence of each distinct index, in lane order: scatter
        # lane numbers in reverse, so the last write a cell keeps (numpy
        # fancy assignment) is its lowest lane; untouched cells stay junk
        lane = np.arange(len(idx))
        first_lane = np.empty(len(flags), dtype=np.int64)
        first_lane[idx[::-1]] = lane[::-1]
        won = unclaimed & (first_lane[idx] == lane)
        flags[idx[won]] = True
    _charge(machine, "atomic_cas", idx)
    return won


def atomic_exch_gather(array: np.ndarray, idx: np.ndarray, vals: np.ndarray,
                       machine: Optional[Machine] = None) -> np.ndarray:
    """``atomicExch``-style scatter where the *last* lane per cell wins
    deterministically (lane order = array order); returns old values."""
    idx = np.asarray(idx, dtype=np.int64)
    vals = np.asarray(vals)
    array = _tracked(array, idx)
    old = array[idx].copy()
    array[idx] = vals  # numpy fancy assignment: last write wins
    _charge(machine, "atomic_exch", idx)
    return old


def conflict_stats(idx: np.ndarray) -> Tuple[int, int]:
    """(lanes, conflicting lanes) for an address vector — used by tests."""
    idx = np.asarray(idx)
    if len(idx) == 0:
        return 0, 0
    return len(idx), len(idx) - len(np.unique(idx))  # np.unique ok: test oracle
