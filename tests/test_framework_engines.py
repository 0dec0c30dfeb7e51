"""Unit tests for the comparator *engines* (the abstractions themselves,
below the primitive level): Ligra's edgeMap, PowerGraph's GAS loop with
vertex-cut accounting, Medusa's message supersteps, MapGraph's unfused
stages, and the CPU cost accumulator."""

import numpy as np
import pytest

from repro.frameworks.base import CpuCost, expand_frontier
from repro.frameworks.ligra import LigraEngine, DENSE_THRESHOLD_FRACTION
from repro.frameworks.powergraph import GasProgram, PowerGraphEngine
from repro.frameworks.medusa import MedusaEngine
from repro.frameworks.mapgraph import MapGraphEngine
from repro.graph import from_edges, generators
from repro.simt import calib


@pytest.fixture()
def diamond():
    return from_edges([(0, 1), (0, 2), (1, 3), (2, 3)], n=4)


# -- shared helpers ---------------------------------------------------------------


def test_expand_frontier(diamond):
    srcs, dsts, eids = expand_frontier(diamond, np.array([0, 1]))
    assert srcs.tolist() == [0, 0, 1]
    assert dsts.tolist() == [1, 2, 3]


def test_expand_frontier_empty(diamond):
    srcs, dsts, eids = expand_frontier(diamond, np.array([3]))
    assert len(srcs) == 0


def test_cpu_cost_accounting():
    c = CpuCost(seq_edges=100, rand_edges=50, vertices=10, heap_ops=20)
    expected = (100 * calib.CPU_EDGE + 50 * calib.CPU_EDGE_RANDOM
                + 10 * calib.CPU_VERTEX + 20 * calib.CPU_HEAP_OP)
    assert c.cycles() == pytest.approx(expected)
    assert c.serial_ms() == pytest.approx(calib.cpu_cycles_to_ms(expected))


def test_cpu_cost_parallel_divides_work():
    c = CpuCost(seq_edges=1_000_000)
    assert c.parallel_ms() < c.serial_ms()


def test_cpu_cost_parallel_span():
    quiet = CpuCost(seq_edges=100, supersteps=1)
    chatty = CpuCost(seq_edges=100, supersteps=100)
    assert chatty.parallel_ms(per_step_overhead_cycles=10_000) > \
        quiet.parallel_ms(per_step_overhead_cycles=10_000)


# -- Ligra engine -------------------------------------------------------------------


def test_ligra_edge_map_semantics(diamond):
    eng = LigraEngine(diamond)
    labels = np.full(4, -1)
    labels[0] = 0

    def update(s, t, e):
        labels[t] = 1
        return np.ones(len(t), dtype=bool)

    out = eng.edge_map(np.array([0]), update, cond=lambda t: labels[t] < 0)
    assert sorted(out.tolist()) == [1, 2]
    assert labels.tolist() == [0, 1, 1, -1]


def test_ligra_vertex_map(diamond):
    eng = LigraEngine(diamond)
    out = eng.vertex_map(np.arange(4), lambda v: v % 2 == 0)
    assert out.tolist() == [0, 2]


def test_ligra_dense_mode_cheaper_per_edge():
    """A huge frontier should flip edgeMap into dense mode, which charges
    sequential scans instead of random scatters."""
    g = generators.kronecker(10, seed=1)
    sparse_eng = LigraEngine(g)
    sparse_eng.edge_map(np.array([0]),
                        lambda s, t, e: np.zeros(len(t), dtype=bool),
                        cond=lambda t: np.ones(len(t), dtype=bool))
    assert sparse_eng.cost.rand_edges > 0

    dense_eng = LigraEngine(g)
    dense_eng.edge_map(np.arange(g.n),
                       lambda s, t, e: np.zeros(len(t), dtype=bool),
                       cond=lambda t: np.ones(len(t), dtype=bool))
    assert dense_eng.cost.rand_edges == 0  # dense: no random scatter charge


def test_ligra_supersteps_counted(diamond):
    eng = LigraEngine(diamond)
    for _ in range(3):
        eng.edge_map(np.array([0]),
                     lambda s, t, e: np.zeros(len(t), dtype=bool),
                     cond=lambda t: np.ones(len(t), dtype=bool))
    assert eng.cost.supersteps == 3


# -- PowerGraph engine ------------------------------------------------------------------


def test_powergraph_mirror_counting():
    g = generators.kronecker(9, seed=1)
    eng = PowerGraphEngine(g, workers=8, seed=3)
    # every vertex with edges on k>1 workers contributes k-1 mirrors
    assert 0 < eng.total_mirrors


def test_powergraph_single_worker_no_mirrors(diamond):
    eng = PowerGraphEngine(diamond, workers=1)
    assert eng.total_mirrors == 0


def test_powergraph_gas_program_runs(diamond):
    """The generic GAS loop computes in-degree-based max depth."""
    labels = np.full(4, np.inf)
    labels[0] = 0.0

    def gather(nbr, me, eid, st):
        return np.where(np.isfinite(st["labels"][nbr]),
                        st["labels"][nbr] + 1.0, 0.0)

    def apply(v, gathered, st):
        better = (gathered > 0) & (gathered < st["labels"][v])
        st["labels"][v] = np.where(better, gathered, st["labels"][v])
        return better

    eng = PowerGraphEngine(diamond, workers=2)
    state = {"labels": labels}
    steps = eng.run(GasProgram(gather=gather, apply=apply), state,
                    np.array([1, 2], dtype=np.int64), max_supersteps=10)
    assert steps >= 1
    assert eng.supersteps == steps


def test_powergraph_barrier_cost_scales_with_supersteps(diamond):
    a = PowerGraphEngine(diamond)
    a._barrier()
    b = PowerGraphEngine(diamond)
    for _ in range(10):
        b._barrier()
    assert b.elapsed_ms() > a.elapsed_ms()


def test_powergraph_makespan_over_workers():
    g = generators.kronecker(9, seed=1)
    eng = PowerGraphEngine(g, workers=4, seed=1)
    eng._charge_edges(np.arange(g.m))
    assert eng.worker_edge_work.max() > 0
    # roughly balanced hash partition: max within 2x of mean
    assert eng.worker_edge_work.max() < 2.0 * eng.worker_edge_work.mean()


# -- Medusa engine -----------------------------------------------------------------------


def test_medusa_superstep_min_combiner(diamond):
    eng = MedusaEngine(diamond)
    out = eng.superstep(np.array([0]),
                        lambda s, t, e: t.astype(float) * 10,
                        "min",
                        lambda v, msg: msg < 100)
    assert sorted(out.tolist()) == [1, 2]
    assert eng.machine.counters.kernel_launches == 4  # unfused stages


def test_medusa_superstep_sum_combiner(diamond):
    eng = MedusaEngine(diamond)
    seen = {}

    def vertex(v, msg):
        seen.update(dict(zip(v.tolist(), msg.tolist())))
        return np.zeros(len(v), dtype=bool)

    eng.superstep(np.array([1, 2]), lambda s, t, e: np.ones(len(s)),
                  "sum", vertex)
    assert seen[3] == 2.0  # two messages summed at the shared destination


def test_medusa_rejects_unknown_combiner(diamond):
    eng = MedusaEngine(diamond)
    with pytest.raises(ValueError):
        eng.superstep(np.array([0]), lambda s, t, e: np.ones(len(s)),
                      "mul", lambda v, m: np.zeros(len(v), dtype=bool))


def test_medusa_message_cost_charged(diamond):
    eng = MedusaEngine(diamond)
    eng.superstep(np.array([0]), lambda s, t, e: np.ones(len(s)),
                  "min", lambda v, m: np.zeros(len(v), dtype=bool))
    assert eng.machine.counters.edges_visited == 2


# -- MapGraph engine ----------------------------------------------------------------------


def test_mapgraph_superstep_stages(diamond):
    eng = MapGraphEngine(diamond)
    out = eng.superstep(np.array([0]),
                        lambda s, t, e: np.ones(len(s)), "min",
                        lambda v, msg: np.ones(len(v), dtype=bool))
    assert sorted(out.tolist()) == [1, 2]
    assert eng.machine.counters.kernel_launches == 4
    assert eng.machine.counters.bytes_moved > 0


def test_mapgraph_more_expensive_than_fused_equivalent(diamond):
    """The §4.3 claim in miniature: the same logical work costs more
    through unfused GAS stages than through one fused Gunrock advance."""
    from repro.core import Frontier, Functor, ProblemBase
    from repro.core.operators.advance import advance
    from repro.simt import Machine

    class P(ProblemBase):
        pass

    g = generators.kronecker(10, seed=1)
    m = Machine()
    advance(P(g, m), Frontier(np.arange(g.n, dtype=np.int64)), Functor())
    fused_ms = m.elapsed_ms()

    eng = MapGraphEngine(g)
    eng.superstep(np.arange(g.n, dtype=np.int64),
                  lambda s, t, e: np.ones(len(s)), "sum",
                  lambda v, msg: np.zeros(len(v), dtype=bool))
    assert eng.elapsed_ms() > fused_ms
