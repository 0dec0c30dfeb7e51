"""The shared dedup kernels against their ``np.unique`` oracles
(``tests/dedup_reference.py``): values, dtypes, charged counters and the
heuristics' persistent state, bitwise."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dedup_reference import (CullReference, first_occurrence_reference,
                             unique_reference)
from repro.core import IdempotenceHeuristics
from repro.core.engine import engine
from repro.simt import Machine
from repro.simt.primitives import first_occurrence, unique_by_sort


def _same(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)


# -- unique_by_sort ---------------------------------------------------------------

#: 32/33 straddle the bitmap branch's lane-count test; the rest are the
#: degenerate and the ordinary sizes
_LENGTHS = st.sampled_from([0, 1, 2, 31, 32, 33, 34, 64, 257])


@st.composite
def key_arrays(draw):
    n = draw(_LENGTHS)
    shape = draw(st.sampled_from(
        ["dense", "dense-edge", "sparse", "negative", "equal", "int32"]))
    if shape == "dense":
        hi, dtype = max(1, n // 2), np.int64
    elif shape == "dense-edge":
        # the largest key sits exactly on, or one past, ``hi <= 4 * len``
        top = 4 * n - draw(st.sampled_from([1, 0]))
        xs = draw(st.lists(st.integers(0, max(0, top)), min_size=n,
                           max_size=n))
        if n:
            xs[draw(st.integers(0, n - 1))] = max(0, top)
        return np.asarray(xs, dtype=np.int64)
    elif shape == "sparse":
        hi, dtype = 2 ** 40, np.int64
    elif shape == "negative":
        xs = draw(st.lists(st.integers(-50, 50), min_size=n, max_size=n))
        return np.asarray(xs, dtype=np.int64)
    elif shape == "equal":
        return np.full(n, draw(st.integers(0, 2 ** 40)), dtype=np.int64)
    else:
        hi, dtype = 40, np.int32
    xs = draw(st.lists(st.integers(0, hi), min_size=n, max_size=n))
    return np.asarray(xs, dtype=dtype)


@given(key_arrays(), st.sampled_from(["pooled", "unpooled"]))
@settings(max_examples=300, deadline=None)
def test_unique_by_sort_matches_oracle(keys, mode):
    # pooled arms the bitmap branch for dense id sets; unpooled never does
    with engine(mode):
        got_machine, want_machine = Machine(), Machine()
        got = unique_by_sort(keys, got_machine)
        want = unique_reference(keys, want_machine)
    assert _same(got, want)
    assert got_machine.counters.as_dict() == want_machine.counters.as_dict()
    assert _same(unique_by_sort(keys), want)


def test_unique_by_sort_returns_a_new_array():
    keys = np.array([5], dtype=np.int64)
    out = unique_by_sort(keys)
    assert out is not keys and not np.shares_memory(out, keys)


# -- first_occurrence -------------------------------------------------------------

@given(st.lists(st.integers(-6, 6), max_size=70),
       st.sampled_from([np.int64, np.int32]))
@settings(max_examples=200, deadline=None)
def test_first_occurrence_matches_oracle(xs, dtype):
    keys = np.asarray(xs, dtype=dtype)
    assert _same(first_occurrence(keys), first_occurrence_reference(keys))


def test_first_occurrence_picks_the_first_lane_of_a_tie():
    keys = np.array([7, 3, 7, 3, 3, 9, 7], dtype=np.int64)
    assert first_occurrence(keys).tolist() == [1, 0, 5]


# -- the idempotence culls ----------------------------------------------------------

def _assert_cull_matches(h, ref, items, n):
    got, want = h.cull(items, n), ref.cull(items, n)
    assert _same(got, want)
    for name in ("_history", "_discovered"):
        a, b = getattr(h, name), getattr(ref, name)
        assert (a is None) == (b is None), name
        assert a is None or _same(a, b), name


def _pair(**kw):
    return IdempotenceHeuristics(**kw), CullReference(**kw)


_SMALL = dict(history_bits=3, warp_size=4, wave_size=10)


@given(st.lists(st.lists(st.integers(0, 13), max_size=45), min_size=2,
                max_size=2))
@settings(max_examples=300, deadline=None)
def test_cull_matches_oracle_across_two_calls(calls):
    h, ref = _pair(**_SMALL)
    for xs in calls:
        _assert_cull_matches(h, ref, np.asarray(xs, dtype=np.int64), 14)


@pytest.mark.parametrize("kw", [_SMALL, dict()], ids=["small", "default"])
@pytest.mark.parametrize("unit", ["warp_size", "wave_size"])
@pytest.mark.parametrize("off", [-1, 0, 1])
def test_cull_at_warp_and_wave_boundaries(kw, unit, off):
    h, ref = _pair(**kw)
    k = getattr(h, unit) + off
    n = 3 * k
    rng = np.random.default_rng(k)
    first = rng.integers(0, n, k)
    # the second call repeats half of the first: state carried between
    # calls decides those lanes
    second = np.concatenate([first[::2], rng.integers(0, n, k)])[:k]
    _assert_cull_matches(h, ref, first, n)
    _assert_cull_matches(h, ref, second, n)


def test_cull_duplicates_straddling_a_warp_and_a_wave_boundary():
    h, ref = _pair(**_SMALL)
    items = np.arange(100, 124, dtype=np.int64)
    items[[3, 4]] = 7        # lanes 3|4: last of warp 0, first of warp 1
    items[[9, 10]] = 8       # lanes 9|10: last of wave 0, first of wave 1
    items[[0, 2]] = 5        # inside one warp: only the first survives
    _assert_cull_matches(h, ref, items, 124)
    keep = IdempotenceHeuristics(**_SMALL).cull(items, 124)
    assert keep[[3, 4]].tolist() == [True, True]     # racing lanes both pass
    assert keep[[9, 10]].tolist() == [True, False]   # the next wave sees it
    assert keep[[0, 2]].tolist() == [True, False]


def test_cull_of_an_empty_frontier_allocates_no_history():
    h, ref = _pair()
    _assert_cull_matches(h, ref, np.zeros(0, dtype=np.int64), 5)
    assert h._history is None
