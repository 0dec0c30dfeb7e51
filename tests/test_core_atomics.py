"""BSP atomics: semantics, determinism, conflict accounting."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core import atomics
from repro.simt import Machine, calib


def test_atomic_min_basic():
    arr = np.array([10.0, 10.0, 10.0])
    won = atomics.atomic_min(arr, np.array([0, 1]), np.array([5.0, 20.0]))
    assert won.tolist() == [True, False]
    assert arr.tolist() == [5.0, 10.0, 10.0]


def test_atomic_min_conflicts_all_report_pre_state():
    """Every lane that improves on the PRE-kernel value reports a win —
    the BSP semantics Gunrock's SSSP relies on (filter dedups later)."""
    arr = np.array([100.0])
    won = atomics.atomic_min(arr, np.array([0, 0, 0]),
                             np.array([7.0, 3.0, 9.0]))
    assert won.tolist() == [True, True, True]
    assert arr[0] == 3.0


def test_atomic_min_equal_is_not_win():
    arr = np.array([5.0])
    won = atomics.atomic_min(arr, np.array([0]), np.array([5.0]))
    assert won.tolist() == [False]


def test_atomic_min_length_mismatch():
    with pytest.raises(ValueError):
        atomics.atomic_min(np.zeros(3), np.array([0]), np.array([1.0, 2.0]))


def test_atomic_max():
    arr = np.array([1.0, 5.0])
    won = atomics.atomic_max(arr, np.array([0, 1]), np.array([3.0, 2.0]))
    assert won.tolist() == [True, False]
    assert arr.tolist() == [3.0, 5.0]


def test_atomic_add_accumulates_duplicates():
    arr = np.zeros(3)
    atomics.atomic_add(arr, np.array([0, 0, 2]), np.array([1.0, 2.0, 4.0]))
    assert arr.tolist() == [3.0, 0.0, 4.0]


def test_atomic_add_length_mismatch():
    with pytest.raises(ValueError):
        atomics.atomic_add(np.zeros(3), np.array([0, 1]), np.array([1.0]))


def test_atomic_cas_claim_unique_winner():
    flags = np.zeros(4, dtype=bool)
    won = atomics.atomic_cas_claim(flags, np.array([2, 2, 2, 1]))
    assert won.sum() == 2            # one winner per distinct cell
    assert won.tolist() == [True, False, False, True]  # first lane wins
    assert flags.tolist() == [False, True, True, False]


def test_atomic_cas_claim_respects_prior_claims():
    flags = np.array([True, False])
    won = atomics.atomic_cas_claim(flags, np.array([0, 1]))
    assert won.tolist() == [False, True]


def test_atomic_cas_empty():
    flags = np.zeros(2, dtype=bool)
    won = atomics.atomic_cas_claim(flags, np.zeros(0, dtype=np.int64))
    assert len(won) == 0


def test_atomic_exch_last_wins():
    arr = np.array([0.0, 0.0])
    old = atomics.atomic_exch_gather(arr, np.array([0, 0]), np.array([1.0, 2.0]))
    assert arr[0] == 2.0
    assert old.tolist() == [0.0, 0.0]


def test_conflict_stats():
    assert atomics.conflict_stats(np.array([1, 1, 2])) == (3, 1)
    assert atomics.conflict_stats(np.zeros(0)) == (0, 0)


def test_atomics_charge_machine():
    m = Machine()
    arr = np.zeros(4)
    atomics.atomic_add(arr, np.array([0, 0, 1]), np.ones(3), m)
    assert m.counters.atomics_issued == 3
    assert m.counters.atomic_conflicts == 1
    assert m.counters.cycles > 0


def test_atomics_charge_counts_all_colliding_lanes():
    """Regression: conflicts = lanes beyond the first per cell, summed over
    every contended cell — idx [7, 7, 9, 12] has exactly one extra lane."""
    m = Machine()
    arr = np.zeros(16)
    atomics.atomic_add(arr, np.array([7, 7, 9, 12]), np.ones(4), m)
    assert m.counters.atomics_issued == 4
    assert m.counters.atomic_conflicts == 1


def test_atomics_charge_multiple_hot_cells():
    """Three lanes on cell 2 and two on cell 5: 3-1 + 2-1 = 3 conflicts."""
    m = Machine()
    arr = np.zeros(8)
    atomics.atomic_add(arr, np.array([2, 5, 2, 2, 5, 0]), np.ones(6), m)
    assert m.counters.atomics_issued == 6
    assert m.counters.atomic_conflicts == 3


def test_atomics_charge_sparse_addresses():
    """Widely separated addresses must not inflate the conflict count
    (the bincount-era implementation scanned the whole address range)."""
    m = Machine()
    arr = np.zeros(1_000_000)
    atomics.atomic_add(arr, np.array([0, 999_999]), np.ones(2), m)
    assert m.counters.atomics_issued == 2
    assert m.counters.atomic_conflicts == 0


def test_atomics_fold_into_fusion_scope():
    m = Machine()
    with m.fused("outer"):
        atomics.atomic_add(np.zeros(2), np.array([0]), np.ones(1), m)
    assert m.counters.kernel_launches == 1
    assert m.counters.kernels[0].name == "outer"


def test_atomic_min_determinism_any_order():
    """Result must be order-independent (min is commutative)."""
    idx = np.array([0, 1, 0, 1, 0])
    vals = np.array([5.0, 4.0, 3.0, 2.0, 1.0])
    a = np.full(2, 10.0)
    atomics.atomic_min(a, idx, vals)
    b = np.full(2, 10.0)
    perm = np.array([4, 2, 0, 3, 1])
    atomics.atomic_min(b, idx[perm], vals[perm])
    assert np.array_equal(a, b)


# -- conflict accounting: histogram and sort regimes against the sort oracle -------------

LIMIT = atomics._HISTOGRAM_CELLS_PER_LANE


@st.composite
def index_vectors(draw):
    """Address vectors on both sides of ``_charge``'s regime boundary:
    ``reach`` (max - min) is pinned exactly, from one hot cell through
    ``LIMIT * lanes`` either side to a 2**40 span."""
    lanes = draw(st.one_of(st.integers(0, 31), st.integers(32, 2000)))
    reach = draw(st.sampled_from([
        0, lanes // 4, lanes, max(0, LIMIT * lanes - 1), LIMIT * lanes,
        LIMIT * lanes + 1, 16 * lanes, 2**40]))
    base = draw(st.sampled_from([0, 3, 10_000, -17]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    idx = base + rng.integers(0, reach + 1, size=lanes)
    if lanes >= 2:
        idx[0], idx[-1] = base, base + reach
    if lanes and draw(st.booleans()):  # pile half the lanes on one cell
        idx[rng.integers(0, lanes, size=lanes // 2)] = idx[lanes // 2]
    if reach < 2**31 - 10_000 and draw(st.booleans()):
        idx = idx.astype(np.int32)
    return idx


def _sort_oracle(name, idx):
    """The counters a sort-based accounting leaves on a fresh machine."""
    ref = Machine()
    lanes, conflicts = atomics.conflict_stats(idx)
    if lanes:
        _, counts = np.unique(idx, return_counts=True)
        ref.counters.record_atomics(lanes, conflicts)
        ref.launch(name, items=lanes,
                   body_cycles=lanes * calib.C_ATOMIC_THROUGHPUT
                   + (int(counts.max()) - 1) * calib.C_ATOMIC_CONFLICT)
    return ref.counters


@given(index_vectors(), st.sampled_from(["atomic_add", "atomic_min"]))
@example(np.array([0, 2**40]), "atomic_add")
@example(np.array([5, 5, 5, 2**40, 2**40]), "atomic_cas")
@settings(max_examples=300, deadline=None)
def test_charge_matches_sort_oracle(idx, name):
    """Counters, cycles, kernel name and items are what sorting the index
    vector gives, whichever way ``_charge`` counted the cells."""
    m = Machine()
    atomics._charge(m, name, idx)
    assert m.counters == _sort_oracle(name, idx)


@given(index_vectors())
@settings(max_examples=100, deadline=None)
def test_atomic_cas_claim_first_lane_per_cell_wins(idx):
    idx = idx.astype(np.int64) % 5000  # cells of one flag array
    flags = np.zeros(5000, dtype=bool)
    flags[idx[::3]] = True  # some cells already claimed
    before = flags.copy()
    won = atomics.atomic_cas_claim(flags, idx)
    first = np.zeros(len(idx), dtype=bool)
    first[np.unique(idx, return_index=True)[1]] = True
    assert np.array_equal(won, first & ~before[idx])
    after = before.copy()
    after[idx] = True
    assert np.array_equal(flags, after)
