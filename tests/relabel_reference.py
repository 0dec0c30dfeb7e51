"""Reference bodies of the bipartite relabel and the CSR transpose: the
oracle for ``repro.simt.primitives.unique_inverse`` and ``Csr.reverse``.

These are the bodies ``primitives/bipartite.induced_bipartite`` and
``graph/csr.Csr.reverse`` shipped before the relabel became a bitmap
prefix sum (or a sort) and the transpose started sorting narrow keys.
They are slower (``np.unique`` hashes since numpy 2.3 and the
``searchsorted`` is a second pass; an int64 stable argsort is a merge
sort) and obviously right; ``tests/test_relabel_kernels.py`` holds the
production code to them bitwise.
"""

import numpy as np


def unique_inverse_reference(keys):
    """``(uniq, inverse)``: the sorted distinct keys and each key's
    position among them."""
    uniq = np.unique(keys)
    return uniq, np.searchsorted(uniq, keys)


def reverse_reference(g):
    """``(indptr, indices, edge_values, orig_edge)`` of ``g``'s
    transpose, by a counting sort on the int64 destination ids."""
    counts = np.bincount(g.indices, minlength=g.n).astype(np.int64)
    indptr = np.zeros(g.n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    order = np.argsort(g.indices, kind="stable")
    indices = g.edge_sources[order]
    values = None if g.edge_values is None else g.edge_values[order]
    return indptr, indices, values, order.astype(np.int64)
