"""SIMT substrate tests: machine makespan model, counters, fusion,
device primitives."""

import numpy as np
import pytest

from repro.simt import GPUSpec, Machine, calib, primitives


# -- machine -------------------------------------------------------------------


def test_spec_lanes():
    spec = GPUSpec()
    assert spec.lanes == 15 * 192
    assert spec.warps_per_cta == 8


def test_cycles_to_ms():
    spec = GPUSpec()
    assert spec.cycles_to_ms(spec.clock_ghz * 1e9) == pytest.approx(1000.0)


def test_makespan_balanced():
    m = Machine()
    costs = np.full(150, 10.0)
    # 150 CTAs over 15 SMs: average bound dominates
    assert m.makespan_cycles(costs) == pytest.approx(100.0)


def test_makespan_imbalanced():
    m = Machine()
    costs = np.array([1000.0] + [1.0] * 14)
    # one huge CTA dominates
    assert m.makespan_cycles(costs) == pytest.approx(1000.0)


def test_makespan_empty():
    assert Machine().makespan_cycles(np.zeros(0)) == 0.0


def test_launch_records_kernel():
    m = Machine()
    m.launch("k", body_cycles=100.0, items=5)
    assert m.counters.kernel_launches == 1
    rec = m.counters.kernels[0]
    assert rec.name == "k"
    assert rec.items == 5
    assert rec.cycles > 100.0  # launch overhead added


def test_hardwired_skips_dispatch_overhead():
    soft = Machine()
    hard = Machine(hardwired=True)
    soft.launch("k", body_cycles=0.0)
    hard.launch("k", body_cycles=0.0)
    assert hard.counters.cycles < soft.counters.cycles
    assert soft.counters.cycles - hard.counters.cycles == pytest.approx(
        calib.FRAMEWORK_DISPATCH_CYCLES)


def test_fusion_single_launch():
    m = Machine()
    with m.fused("fused"):
        m.launch("a", body_cycles=10.0, items=1)
        m.launch("b", body_cycles=20.0, items=2)
    assert m.counters.kernel_launches == 1
    rec = m.counters.kernels[0]
    assert rec.name == "fused"
    assert rec.items == 3
    assert rec.cycles == pytest.approx(30.0 + m.spec.launch_overhead_cycles
                                       + calib.FRAMEWORK_DISPATCH_CYCLES)


def test_fusion_nested():
    m = Machine()
    with m.fused("outer"):
        with m.fused("inner"):
            m.launch("a", body_cycles=5.0)
        m.launch("b", body_cycles=7.0)
    assert m.counters.kernel_launches == 1
    assert m.counters.kernels[0].name == "outer"


def test_fusion_saves_cycles_vs_separate():
    fused, split = Machine(), Machine()
    with fused.fused("f"):
        for _ in range(10):
            fused.launch("k", body_cycles=1.0)
    for _ in range(10):
        split.launch("k", body_cycles=1.0)
    assert fused.counters.cycles < split.counters.cycles / 5


def test_map_kernel_scaling():
    m = Machine()
    c_small = m.launch("probe", body_cycles=0.0)
    m.reset()
    m.map_kernel("k", 10 * m.spec.lanes, 2.0)
    body = m.counters.cycles - c_small
    assert body == pytest.approx(20.0)


def test_map_kernel_empty():
    m = Machine()
    m.map_kernel("k", 0, 2.0)
    assert m.counters.kernel_launches == 1  # launch still happens


def test_machine_reset():
    m = Machine()
    m.launch("k", body_cycles=1.0)
    m.reset()
    assert m.counters.cycles == 0.0
    assert m.counters.kernel_launches == 0


def test_elapsed_ms_monotone():
    m = Machine()
    t0 = m.elapsed_ms()
    m.launch("k", body_cycles=1e6)
    assert m.elapsed_ms() > t0


# -- counters -------------------------------------------------------------------


def test_counters_merge():
    a, b = Machine(), Machine()
    a.launch("x", body_cycles=1.0)
    b.launch("y", body_cycles=2.0)
    b.counters.record_edges(7)
    a.counters.merge(b.counters)
    assert a.counters.kernel_launches == 2
    assert a.counters.edges_visited == 7
    assert len(a.counters.kernels) == 2


def test_counters_breakdown():
    m = Machine()
    m.launch("x", body_cycles=1.0)
    m.launch("x", body_cycles=2.0)
    m.launch("y", body_cycles=3.0)
    bd = m.counters.kernel_breakdown()
    assert bd["x"][0] == 2
    assert bd["y"][0] == 1


def test_counters_as_dict():
    m = Machine()
    m.launch("x", body_cycles=1.0, items=3)
    d = m.counters.as_dict()
    assert d["kernel_launches"] == 1
    assert "kernels" not in d


# -- device primitives ---------------------------------------------------------------


def test_segmented_reduce_sum():
    vals = np.array([1.0, 2.0, 3.0, 4.0])
    offsets = np.array([0, 2, 2, 4])  # segments: [1,2], [], [3,4]
    out = primitives.segmented_reduce_sum(vals, offsets)
    assert out.tolist() == [3.0, 0.0, 7.0]


def test_segmented_reduce_rejects_empty_offsets():
    with pytest.raises(ValueError):
        primitives.segmented_reduce_sum(np.zeros(3), np.zeros(0))


def test_charge_compact():
    m = Machine()
    primitives.charge_compact(m, 100)
    assert m.counters.compact_elements == 100
    assert [k.name for k in m.counters.kernels] == ["compact"]


def test_unique_by_sort():
    out = primitives.unique_by_sort(np.array([3, 1, 3, 2, 1]))
    assert out.tolist() == [1, 2, 3]
