"""``np.unique``-based reference dedup kernels: the oracle for
``repro.simt.primitives.unique_by_sort`` / ``first_occurrence`` and
``IdempotenceHeuristics.cull``.

These are the bodies ``simt/primitives.py`` and
``core/operators/filter.py`` shipped before exact dedup became a bare
sort and the three idempotence culls were composed into one ``cull``.
They are slower (``np.unique`` hashes since numpy 2.3; the culls allocate
per call) and obviously right, and ``tests/test_dedup_kernels.py`` holds
the production kernels to them bitwise — values, dtypes, charged counters
and the heuristics' persistent state.
"""

import numpy as np


def unique_reference(keys, machine=None):
    keys = np.asarray(keys)
    out = np.unique(keys)
    if machine is not None:
        machine.map_kernel("unique", len(keys), 14.0)
    return out


def first_occurrence_reference(keys):
    return np.unique(keys, return_index=True)[1]


class CullReference:
    """The three pre-composition cull bodies and their conjunction."""

    def __init__(self, history_bits=16, warp_size=32, wave_size=1024):
        self.history_bits = history_bits
        self.warp_size = warp_size
        self.wave_size = wave_size
        self._history = None
        self._discovered = None

    @property
    def history_size(self):
        return 1 << self.history_bits

    def bitmask_cull(self, items, n):
        if self._discovered is None or len(self._discovered) < n:
            self._discovered = np.zeros(n, dtype=bool)
        disc = self._discovered
        keep = np.ones(len(items), dtype=bool)
        for start in range(0, len(items), self.wave_size):
            chunk = items[start:start + self.wave_size]
            k = ~disc[chunk]
            keep[start:start + self.wave_size] = k
            disc[chunk[k]] = True
        return keep

    def warp_cull(self, items):
        n = len(items)
        if n == 0:
            return np.zeros(0, dtype=bool)
        warp_ids = np.arange(n, dtype=np.int64) // self.warp_size
        key = warp_ids * (items.max() + 1) + items
        keep = np.zeros(n, dtype=bool)
        _, first = np.unique(key, return_index=True)
        keep[first] = True
        return keep

    def history_cull(self, items):
        n = len(items)
        if n == 0:
            return np.zeros(0, dtype=bool)
        if self._history is None:
            self._history = np.full(self.history_size, -1, dtype=np.int64)
        history = self._history
        mask = self.history_size - 1
        keep = np.ones(n, dtype=bool)
        for start in range(0, n, self.wave_size):
            chunk = items[start:start + self.wave_size]
            slots = chunk & mask
            k = history[slots] != chunk
            keep[start:start + self.wave_size] = k
            history[slots[k]] = chunk[k]
        return keep

    def cull(self, items, n):
        keep = self.warp_cull(items)
        keep &= self.bitmask_cull(items, n)
        keep &= self.history_cull(items)
        return keep
