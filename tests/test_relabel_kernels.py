"""The bipartite relabel (``unique_inverse``) and the CSR transpose
(``Csr.reverse``) against the bodies they replaced
(``tests/relabel_reference.py``): values and dtypes, bitwise."""

import numpy as np
from hypothesis import given, settings, strategies as st

from relabel_reference import reverse_reference, unique_inverse_reference
from repro.graph.csr import Csr
from repro.simt.primitives import unique_inverse


def _same(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)


# -- unique_inverse ---------------------------------------------------------------

_LENGTHS = st.sampled_from([0, 1, 2, 3, 17, 64, 257])


@st.composite
def key_arrays(draw):
    n = draw(_LENGTHS)
    shape = draw(st.sampled_from(
        ["dense", "dense-edge", "sparse", "negative", "equal", "int32"]))
    if shape == "dense-edge":
        # the largest key sits on the last bitmap id (4·len − 1) or on the
        # first one the sort handles (4·len)
        top = 4 * n - draw(st.sampled_from([1, 0]))
        xs = draw(st.lists(st.integers(0, max(0, top)), min_size=n,
                           max_size=n))
        if n:
            xs[draw(st.integers(0, n - 1))] = max(0, top)
        return np.asarray(xs, dtype=np.int64)
    if shape == "negative":
        xs = draw(st.lists(st.integers(-50, 50), min_size=n, max_size=n))
        return np.asarray(xs, dtype=np.int64)
    if shape == "equal":
        return np.full(n, draw(st.integers(0, 2 ** 40)), dtype=np.int64)
    hi, dtype = {"dense": (max(1, n // 2), np.int64),
                 "sparse": (2 ** 40, np.int64),
                 "int32": (4 * n + 3, np.int32)}[shape]
    xs = draw(st.lists(st.integers(0, hi), min_size=n, max_size=n))
    return np.asarray(xs, dtype=dtype)


@given(key_arrays())
@settings(max_examples=300, deadline=None)
def test_unique_inverse_matches_np_unique(keys):
    uniq, inverse = unique_inverse(keys)
    want_uniq, want_inverse = np.unique(keys, return_inverse=True)
    assert _same(uniq, want_uniq)
    assert _same(inverse, want_inverse)
    ref_uniq, ref_inverse = unique_inverse_reference(keys)
    assert _same(uniq, ref_uniq)
    assert _same(inverse, ref_inverse)
    assert np.array_equal(uniq[inverse], keys)


def test_unique_inverse_at_the_regime_boundary():
    # len 4: 15 is the last id the bitmap takes, 16 the first it does not
    for top in (15, 16):
        keys = np.array([top, 3, 0, 3], dtype=np.int64)
        uniq, inverse = unique_inverse(keys)
        assert uniq.tolist() == [0, 3, top]
        assert inverse.tolist() == [2, 1, 0, 1]


def test_unique_inverse_does_not_write_its_input():
    keys = np.array([5, 1, 5, 2], dtype=np.int64)
    unique_inverse(keys)
    assert keys.tolist() == [5, 1, 5, 2]


# -- Csr.reverse: the 16-bit sort key up to 2**16 vertices, int64 above -----------

@st.composite
def graphs_near_the_key_width(draw):
    n = draw(st.sampled_from([65535, 65536, 65537]))
    m = draw(st.integers(0, 48))
    # ids at both ends of the range, where a narrowed key would wrap
    ends = st.sampled_from([0, 1, n - 2, n - 1])
    ids = st.one_of(ends, st.integers(0, n - 1))
    srcs = np.sort(np.asarray(draw(st.lists(ids, min_size=m, max_size=m)),
                              dtype=np.int64))
    dsts = np.asarray(draw(st.lists(ids, min_size=m, max_size=m)),
                      dtype=np.int64)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(srcs, minlength=n), out=indptr[1:])
    values = None
    if draw(st.booleans()):
        values = np.asarray(draw(st.lists(
            st.floats(-1e3, 1e3, allow_nan=False), min_size=m, max_size=m)),
            dtype=np.float64)
    return Csr(indptr, dsts, values, n=n)


@given(graphs_near_the_key_width())
@settings(max_examples=60, deadline=None)
def test_reverse_matches_int64_sort_reference(g):
    rev = g.reverse()
    indptr, indices, values, order = reverse_reference(g)
    assert _same(rev.indptr, indptr)
    assert _same(rev.indices, indices)
    assert _same(rev.edge_props["orig_edge"], order)
    if values is None:
        assert rev.edge_values is None
    else:
        assert _same(rev.edge_values, values)


def test_reverse_keeps_the_top_id_apart_from_zero_above_two_to_the_16():
    # 65536 wraps to 0 as a 16-bit key: the int64 path must take over
    n = 65537
    indptr = np.zeros(n + 1, dtype=np.int64)
    indptr[1:] = 2
    g = Csr(indptr, np.array([65536, 0], dtype=np.int64), n=n)
    rev = g.reverse()
    assert rev.edge_props["orig_edge"].tolist() == [1, 0]
    assert rev.indptr[1] == 1 and rev.indptr[-1] == 2
