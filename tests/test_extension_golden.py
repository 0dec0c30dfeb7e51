"""Golden regression for the extension primitives that gather neighbours
themselves: output arrays and the ``(name, cycles, items, iteration)``
kernel stream, pinned.

``tests/data/extension_golden.json`` was recorded at the commit before
these primitives' private index arithmetic was routed through
``repro.graph.csr.row_lanes``; every value is simulated-clock or integer
output from fixed seeds.  Re-record
(``PYTHONPATH=src python tests/test_extension_golden.py``) only in a PR
that means to change what these primitives compute or charge.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro import primitives as P
from repro.graph import generators
from repro.primitives.bipartite import circle_of_trust, induced_bipartite
from repro.simt import Machine

DATA_PATH = Path(__file__).parent / "data" / "extension_golden.json"

GRAPHS = {
    "rmat8": lambda: generators.rmat(8, seed=1),
    "road12": lambda: generators.road_grid(12, 12, seed=1),
}


def _hub(g) -> int:
    return int(np.argmax(g.out_degrees))


def _bipartite(g, **kw):
    bg = induced_bipartite(g, circle_of_trust(g, _hub(g), size=32), **kw)
    return {"indptr": bg.graph.indptr, "indices": bg.graph.indices,
            "right_ids": bg.right_ids,
            "shape": np.array([bg.n_left, bg.n_right])}


#: name -> callable(graph, machine) -> {array name: ndarray}
PRIMITIVES = {
    "mis": lambda g, m: P.mis(g, machine=m, seed=3).arrays,
    "color": lambda g, m: P.color(g, machine=m, seed=3).arrays,
    "label_propagation":
        lambda g, m: P.label_propagation(g, machine=m, seed=3).arrays,
    "kcore": lambda g, m: P.kcore(g, machine=m).arrays,
    "triangle_count": lambda g, m: {
        k: np.asarray(v)
        for k, v in P.triangle_count(g, machine=m).arrays.items()},
    "circle_of_trust": lambda g, m: {
        "circle": circle_of_trust(g, _hub(g), size=32, machine=m)},
    "induced_bipartite": lambda g, m: _bipartite(g),
    # unsorted, with a repeated id: exercises the explicit-right branch
    "induced_bipartite_right": lambda g, m: _bipartite(
        g, right=np.concatenate([g.neighbors(_hub(g))[::-1],
                                 g.neighbors(_hub(g))[:2]])),
}

CELLS = [(gn, pn) for gn in GRAPHS for pn in PRIMITIVES]


def _observe(graph_name: str, primitive: str) -> dict:
    machine = Machine()
    arrays = PRIMITIVES[primitive](GRAPHS[graph_name](), machine)
    return {
        "arrays": {k: {"dtype": str(np.asarray(v).dtype),
                       "values": np.asarray(v).tolist()}
                   for k, v in sorted(arrays.items())},
        "kernels": [[r.name, r.cycles, r.items, r.iteration]
                    for r in machine.counters.kernels],
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(DATA_PATH.read_text())


@pytest.mark.parametrize("graph_name,primitive", CELLS)
def test_extension_primitive_matches_golden(golden, graph_name, primitive):
    want = golden[f"{graph_name}/{primitive}"]
    got = json.loads(json.dumps(_observe(graph_name, primitive)))
    assert got["arrays"] == want["arrays"]
    assert got["kernels"] == want["kernels"]


if __name__ == "__main__":
    DATA_PATH.write_text(json.dumps(
        {f"{gn}/{pn}": _observe(gn, pn) for gn, pn in CELLS},
        separators=(",", ":"), sort_keys=True) + "\n")
    print(f"recorded {len(CELLS)} cells -> {DATA_PATH}")
