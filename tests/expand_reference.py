"""Textbook row-range → edge-lane expansion: the oracle for
``repro.graph.csr.row_lanes``.

This is the ``concatenate([[0], cumsum])`` body the extension primitives,
``multi/`` and ``serve/shard.py`` each carried before the expansion got
one home.  It allocates every intermediate and is obviously right;
``tests/test_row_lanes.py`` holds the kernel to it — values and dtype.
"""

import numpy as np


def row_lanes_reference(indptr, rows, degs, total):
    """``(excl, eids)``: ``excl`` has one entry per row even when no row
    has an edge (the kernel returns two empty arrays then)."""
    offsets = np.concatenate([[0], np.cumsum(degs)])
    excl = offsets[:-1]
    eids = np.repeat(indptr[rows] - excl, degs) + np.arange(total)
    return excl, eids
