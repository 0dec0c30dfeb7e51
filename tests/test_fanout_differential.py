"""The serving tier's fan-out PageRank against the multi-GPU driver, on
one partition: the two share ``repro.multi.pagerank.push_step``, and this
is the test that says so — ranks bitwise, iteration counts, and every
device's kernel stream (names modulo the ``shard_pr_`` / ``mgpu_pr_``
prefix)."""

import numpy as np
import pytest

from repro.graph import generators
from repro.multi import MultiMachine, multi_gpu_pagerank, partition_1d
from repro.serve import fanout_pagerank
from repro.simt import Machine

GRAPHS = {
    "kron8": lambda: generators.kronecker(8, seed=3),
    "road": lambda: generators.road_grid(14, 11, seed=2),
}


def _stream(machine, prefix):
    out = []
    for r in machine.counters.kernels:
        assert r.name.startswith(prefix), r.name
        out.append((r.name[len(prefix):], r.cycles, r.items, r.iteration))
    return out


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
@pytest.mark.parametrize("method", ["contiguous", "hash"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_fanout_is_multi_gpu_pagerank_when_every_shard_is_live(
        graph_name, method, k):
    g = GRAPHS[graph_name]()
    mm = MultiMachine(k=k)
    multi = multi_gpu_pagerank(g, k, method=method, machine=mm)
    machines = {sid: Machine() for sid in range(k)}
    fan = fanout_pagerank(g, partition_1d(g, k, method=method), machines)

    assert fan.rank.tobytes() == multi.rank.tobytes()
    assert fan.iterations == multi.iterations
    assert not fan.partial and fan.dead_vertices == 0
    assert fan.elapsed_ms == multi.elapsed_ms
    for d in range(k):
        ours = _stream(machines[d], "shard_pr_")
        theirs = _stream(mm.devices[d], "mgpu_pr_")
        assert ours and ours == theirs
        assert machines[d].counters.edges_visited \
            == mm.devices[d].counters.edges_visited


@pytest.mark.parametrize("method", ["contiguous", "hash"])
def test_fanout_with_one_shard_down_is_nan_exactly_there(method):
    g = GRAPHS["kron8"]()
    k, down = 3, 1
    pg = partition_1d(g, k, method=method)
    machines = {sid: Machine() for sid in range(k) if sid != down}
    fan = fanout_pagerank(g, pg, machines)

    dead = np.zeros(g.n, dtype=bool)
    dead[pg.parts[down].vertices] = True
    assert fan.partial
    assert fan.dead_vertices == int(dead.sum()) > 0
    assert np.array_equal(np.isnan(fan.rank), dead)
    assert all(m.counters.kernels for m in machines.values())
