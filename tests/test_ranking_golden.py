"""Golden regression for the who-to-follow rankers: output arrays and the
``(name, cycles, items, iteration)`` kernel stream of ``salsa``, ``hits``
and ``who_to_follow``, pinned — plus the two engines held to each other
and SALSA's expansion count.

``tests/data/ranking_golden.json`` was recorded at the commit before the
walk functors gained segmented bodies, the workspace's expansion memo
went per graph and the bipartite relabel and CSC stopped hashing and
sorting 64-bit keys; every value is simulated-clock, integer or float64
output from fixed seeds (floats as exact JSON reprs).  Re-record
(``PYTHONPATH=src python tests/test_ranking_golden.py``) only in a PR
that means to change what these primitives compute or charge.
"""

from __future__ import annotations

import importlib
import json
from pathlib import Path

import numpy as np
import pytest

from engines import counter_signature, run_engines
from repro import primitives as P
from repro.graph import generators
from repro.primitives.bipartite import circle_of_trust, induced_bipartite
from repro.simt import Machine

DATA_PATH = Path(__file__).parent / "data" / "ranking_golden.json"

GRAPHS = {
    "rmat8": lambda: generators.rmat(8, seed=1),
    "road12": lambda: generators.road_grid(12, 12, seed=1),
    "kron9": lambda: generators.kronecker(9, seed=11, undirected=False),
}


def _hub(g) -> int:
    return int(np.argmax(g.out_degrees))


def _bipartite(g):
    """The bipartite graph who-to-follow ranks for the graph's hub."""
    user = _hub(g)
    return induced_bipartite(g, np.concatenate(
        [[user], circle_of_trust(g, user, size=64)]).astype(np.int64))


def _wtf(g, m):
    r = P.who_to_follow(g, _hub(g), k=10, machine=m)
    return {"recommendations": r.recommendations,
            "similar_users": r.similar_users, "circle": r.circle}


#: name -> callable(graph, machine) -> {array name: ndarray}
PRIMITIVES = {
    "salsa": lambda g, m: P.salsa(_bipartite(g), machine=m).arrays,
    "hits": lambda g, m: P.hits(_bipartite(g), machine=m).arrays,
    "who_to_follow": _wtf,
}

CELLS = [(gn, pn) for gn in GRAPHS for pn in PRIMITIVES]


def _observe(graph_name: str, primitive: str) -> dict:
    machine = Machine()
    arrays = PRIMITIVES[primitive](GRAPHS[graph_name](), machine)
    return {
        "arrays": {k: {"dtype": str(np.asarray(v).dtype),
                       "values": np.asarray(v).tolist()}
                   for k, v in sorted(arrays.items())},
        "kernels": [list(k) for k in counter_signature(machine)],
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(DATA_PATH.read_text())


@pytest.mark.parametrize("graph_name,primitive", CELLS)
def test_ranking_primitive_matches_golden(golden, graph_name, primitive):
    want = golden[f"{graph_name}/{primitive}"]
    got = json.loads(json.dumps(_observe(graph_name, primitive)))
    assert got["arrays"] == want["arrays"]
    assert got["kernels"] == want["kernels"]


@pytest.mark.parametrize("graph_name,primitive", CELLS)
def test_ranking_pooled_equals_unpooled(graph_name, primitive):
    """The two scratch providers run the same walk bodies: arrays bitwise
    (values and dtype), kernel streams and total cycles equal."""
    g = GRAPHS[graph_name]()
    out = run_engines(lambda m: PRIMITIVES[primitive](g, m),
                      engines=("unpooled", "pooled"))
    (got, mp), (want, mu) = out["pooled"], out["unpooled"]
    assert got.keys() == want.keys()
    for key in want:
        assert got[key].dtype == want[key].dtype, key
        assert np.array_equal(got[key], want[key]), key
    assert counter_signature(mp) == counter_signature(mu)
    assert mp.counters.cycles == mu.counters.cycles


@pytest.mark.parametrize("graph_name", GRAPHS)
def test_salsa_expands_each_direction_once(graph_name, monkeypatch):
    """Every SALSA iteration walks the same left frontier on the graph and
    the same right frontier on its reverse, each along every edge of its
    graph.  So the walks take the transpose product and build each
    direction's expansion at most once, and in fact never: with no
    machine attached, and with one (as serving always has), which prices
    the atomic from the cached in-degree statistics."""
    # the package re-exports the function `advance` over its module name
    advance_mod = importlib.import_module("repro.core.operators.advance")
    csr_mod = importlib.import_module("repro.graph.csr")
    calls = []
    kernel = csr_mod.row_lanes

    def counting(*args, **kw):
        calls.append(len(args[1]))
        return kernel(*args, **kw)

    bp = _bipartite(GRAPHS[graph_name]())
    monkeypatch.setattr(csr_mod, "row_lanes", counting)
    monkeypatch.setattr(advance_mod, "row_lanes", counting)
    r = P.salsa(bp)
    assert r.enactor_stats.iterations > 2
    assert calls == []
    r = P.salsa(bp, machine=Machine())
    assert r.enactor_stats.iterations > 2
    assert calls == []


if __name__ == "__main__":
    DATA_PATH.write_text(json.dumps(
        {f"{gn}/{pn}": _observe(gn, pn) for gn, pn in CELLS},
        separators=(",", ":"), sort_keys=True) + "\n")
    print(f"recorded {len(CELLS)} cells -> {DATA_PATH}")
