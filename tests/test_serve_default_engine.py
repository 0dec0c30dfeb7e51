"""Serving under the default engine: a laned batch names no engine, so it
runs fused wherever a runner exists (``batched_sssp``, ``batched_ppr``,
the coalesced ``pagerank``) and the library loop elsewhere
(``batched_bfs`` is non-idempotent; ``wtf``'s SALSA walk has no
runner).  Either way every lane must be bitwise what an explicit
``pooled`` run serves: arrays (values and dtype), the kernel-counter
signature and total cycles — on block-diagonal composite graphs, on
``delta=None`` SSSP and on PPR's per-lane re-initialisation, none of
which ``tests/engines.py`` covers.
"""

from contextlib import nullcontext

import numpy as np
import pytest

from engines import counter_signature
from repro.core.engine import clear_fallbacks, engine, fallback_log
from repro.graph import generators, with_random_weights
from repro.obs import observe
from repro.serve.batcher import (Batch, BatchedQuery, batched_bfs,
                                 batched_ppr, batched_sssp, execute_batch)
from repro.simt import Machine

GRAPHS = {"kron": lambda: generators.kronecker(8, seed=3),
          "road": lambda: generators.road_grid(16, 12, seed=2)}
LANES = [1, 2, 5]


def _sources(g, lanes):
    live = np.flatnonzero(g.out_degrees)
    return [int(live[(7 * i) % len(live)]) for i in range(lanes)]


def _batched(kind, g, lanes):
    """``run(machine) -> [{name: array}]``, one dict per lane."""
    srcs = _sources(g, lanes)
    if kind == "bfs":
        return lambda m: [r.arrays for r in batched_bfs(g, srcs, machine=m)]
    if kind == "sssp":
        gw = with_random_weights(g, seed=5)
        return lambda m: [r.arrays for r in batched_sssp(gw, srcs, machine=m)]
    if kind == "ppr":
        seeds = [srcs[: i + 1] for i in range(lanes)]
        return lambda m: [r.arrays for r in batched_ppr(g, seeds, machine=m)]
    if kind == "pagerank":
        queries = [BatchedQuery("pagerank", {"max_iterations": 10 + 5 * i})
                   for i in range(lanes)]
    else:
        queries = [BatchedQuery("wtf", {"user": s, "k": 10}) for s in srcs]
    batch = Batch(kind, queries)
    return lambda m: [r.arrays for r in
                      execute_batch(g, batch, machine=m).values()]


def _run(run, mode):
    m = Machine()
    with engine(mode) if mode else nullcontext():
        lanes = run(m)
    return lanes, counter_signature(m), m.counters.cycles


#: what the default dispatches for each kind (``engine=`` label)
TAKES = {"bfs": "pooled", "sssp": "fused", "ppr": "fused",
         "pagerank": "fused", "wtf": "pooled"}


@pytest.mark.parametrize("lanes", LANES)
@pytest.mark.parametrize("graph", list(GRAPHS))
@pytest.mark.parametrize("kind", list(TAKES))
def test_default_serves_what_pooled_serves(kind, graph, lanes,
                                          no_engine_chosen):
    run = _batched(kind, GRAPHS[graph](), lanes)
    clear_fallbacks()
    with observe() as ob:
        got, sig, cycles = _run(run, None)
    assert fallback_log() == []
    taken = {k for k in ob.metrics.as_dict()
             if k.startswith("repro_fused_dispatch_total")}
    assert any(f'engine="{TAKES[kind]}"' in k for k in taken), taken
    want, want_sig, want_cycles = _run(run, "pooled")
    assert len(got) == len(want) == lanes
    for a, b in zip(got, want):
        assert set(a) == set(b)
        for name in b:
            assert a[name].dtype == b[name].dtype, name
            assert np.array_equal(a[name], b[name]), name
    assert sig == want_sig
    assert cycles == want_cycles
