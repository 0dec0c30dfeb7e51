"""Frontier data structure tests."""

import numpy as np
import pytest

from repro.core import Frontier, FrontierKind
from repro.simt import Machine


def test_from_vertex():
    f = Frontier.from_vertex(7)
    assert f.kind is FrontierKind.VERTEX
    assert f.items.tolist() == [7]
    assert len(f) == 1
    assert not f.is_empty


def test_all_vertices_and_edges():
    assert Frontier.all_vertices(4).items.tolist() == [0, 1, 2, 3]
    fe = Frontier.all_edges(3)
    assert fe.kind is FrontierKind.EDGE
    assert fe.items.tolist() == [0, 1, 2]


def test_empty():
    f = Frontier.empty("edge")
    assert f.is_empty
    assert f.kind is FrontierKind.EDGE


def test_kind_accepts_strings():
    f = Frontier(np.array([1]), "vertex")
    assert f.kind is FrontierKind.VERTEX


def test_rejects_2d_items():
    with pytest.raises(ValueError):
        Frontier(np.zeros((2, 2)))


def test_bitmap_roundtrip():
    f = Frontier(np.array([1, 4, 2]))
    bm = f.to_bitmap(6)
    assert bm.tolist() == [False, True, True, False, True, False]
    back = Frontier.from_bitmap(bm)
    assert sorted(back.items.tolist()) == [1, 2, 4]


def test_bitmap_rejects_overflow():
    f = Frontier(np.array([10]))
    with pytest.raises(ValueError):
        f.to_bitmap(5)


@pytest.mark.parametrize("counted", [True, False, None])
def test_bitmap_rejects_negative_ids(counted):
    # -1 must not wrap to the last vertex; ``size`` is one past the end.
    # ``counted``: None omits the machine, False passes machine=None,
    # True passes a Machine, which a rejected call must not charge.
    m = Machine() if counted else None
    for bad in (-1, 5):
        f = Frontier.from_vertices([bad, 2])
        with pytest.raises(ValueError, match="exceeds bitmap size"):
            if counted is None:
                f.to_bitmap(5)
            else:
                f.to_bitmap(5, m)
    if m is not None:
        assert m.counters.kernel_launches == 0


def test_bitmap_costs_kernel():
    m = Machine()
    Frontier(np.array([1, 2])).to_bitmap(10, m)
    assert m.counters.kernel_launches == 1


def test_deduplicated():
    f = Frontier(np.array([3, 1, 3, 3, 2]))
    d = f.deduplicated()
    assert sorted(d.items.tolist()) == [1, 2, 3]
    assert d.kind is f.kind


def test_copy_independent():
    f = Frontier(np.array([1, 2]))
    c = f.copy()
    c.items[0] = 99
    assert f.items[0] == 1


def test_size_property():
    assert Frontier(np.arange(5)).size == 5


# the constructor skips conversion only for what conversion would return
# unchanged; everything else still becomes an owned contiguous int64 queue

_F_ORDERED = np.asfortranarray(np.arange(6, dtype=np.int64).reshape(2, 3))


@pytest.mark.parametrize("items", [
    [4, 1, 3],
    np.array([4, 1, 3], dtype=np.int32),
    np.arange(12, dtype=np.int64)[::3],
    _F_ORDERED[1, :],                      # strided row of an F-ordered array
    np.arange(3, dtype=">i8"),
], ids=["list", "int32", "strided-slice", "fortran-row", "byteswapped"])
def test_converts_every_other_input(items):
    f = Frontier(items)
    assert type(f.items) is np.ndarray
    assert f.items.dtype == np.int64 and f.items.dtype.isnative
    assert f.items.ndim == 1 and f.items.flags.c_contiguous
    assert f.items.flags.owndata and f.items.flags.writeable
    assert f.items.tolist() == np.asarray(items).tolist()


def test_contiguous_int64_queue_is_taken_as_is():
    items = np.array([4, 1, 3], dtype=np.int64)
    assert Frontier(items).items is items
    assert Frontier(items, FrontierKind.EDGE).kind is FrontierKind.EDGE
    assert Frontier(items, "edge").kind is FrontierKind.EDGE
    with pytest.raises(ValueError):
        Frontier(items, "hyperedge")


@pytest.mark.parametrize("items", [np.zeros((2, 2), dtype=np.int64),
                                   np.zeros((1, 3), dtype=np.int32),
                                   [[1, 2], [3, 4]]])
def test_rejects_every_2d_input(items):
    with pytest.raises(ValueError, match="1-D"):
        Frontier(items)


def test_empty_frontiers_share_no_writeable_buffer():
    a, b = Frontier.empty(), Frontier.empty("edge")
    assert a.items.dtype == np.int64 and a.items.shape == (0,)
    assert not a.items.flags.writeable and not b.items.flags.writeable
    assert a.copy().items is not a.items and a.copy().items.flags.writeable
