"""Multi-GPU substrate tests (Section 7 future work): partitioning,
interconnect model, result equivalence with single-GPU primitives, and
device-loss recovery in the one partitioned loop."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph import generators
from repro.graph.build import from_edges
from repro.multi import (InterconnectSpec, MultiMachine, multi_gpu_bfs,
                         multi_gpu_pagerank, partition_1d)
from repro.primitives import bfs, pagerank
from repro.resilience import (DeviceLost, FaultInjector, FaultKind,
                              FaultPlan, FaultSpec)
from repro.simt import Machine


@pytest.fixture(scope="module")
def g():
    return generators.kronecker(11, seed=5)


@pytest.fixture(scope="module")
def road():
    return generators.road_grid(48, 32, seed=3)


# -- partitioning -----------------------------------------------------------------


@pytest.mark.parametrize("method", ["contiguous", "hash"])
def test_partition_covers_everything(g, method):
    pg = partition_1d(g, 4, method=method)
    all_verts = np.concatenate([p.vertices for p in pg.parts])
    assert sorted(all_verts.tolist()) == list(range(g.n))
    assert sum(p.m_local for p in pg.parts) == g.m


def test_partition_owner_consistency(g):
    pg = partition_1d(g, 3)
    for p in pg.parts:
        assert np.all(pg.owner[p.vertices] == p.device)


def test_partition_k1_is_whole_graph(g):
    pg = partition_1d(g, 1)
    assert pg.remote_edge_fraction() == 0.0
    assert pg.parts[0].m_local == g.m


def test_partition_rejects_bad_args(g):
    with pytest.raises(ValueError):
        partition_1d(g, 0)
    with pytest.raises(ValueError):
        partition_1d(g, 2, method="quantum")


def test_contiguous_partition_fewer_remote_edges_on_road(road):
    """Road grids are id-clustered: contiguous ranges cut far fewer edges
    than hashing — the locality/balance trade."""
    cont = partition_1d(road, 4, method="contiguous")
    hsh = partition_1d(road, 4, method="hash")
    assert cont.remote_edge_fraction() < hsh.remote_edge_fraction()


def test_hash_partition_balances_edges_on_skew(g):
    cont = partition_1d(g, 8, method="contiguous")
    hsh = partition_1d(g, 8, method="hash")
    assert hsh.edge_balance() <= cont.edge_balance() + 0.5


# -- interconnect / machine ----------------------------------------------------------


def test_interconnect_transfer_model():
    link = InterconnectSpec(bandwidth_gbps=10.0, latency_us=5.0)
    # pure latency
    assert link.transfer_ms(0, 2) == pytest.approx(0.01)
    # bandwidth term: 10 MB at 10 GB/s = 1 ms
    assert link.transfer_ms(10e6, 0) == pytest.approx(1.0)


def test_multimachine_step_is_max_over_devices():
    mm = MultiMachine(k=2)
    with mm.step():
        mm.devices[0].launch("a", body_cycles=mm.spec.clock_ghz * 1e9)  # 1000 ms
        mm.devices[1].launch("b", body_cycles=mm.spec.clock_ghz * 1e6)  # 1 ms
    assert mm.compute_ms() == pytest.approx(
        mm.devices[0].elapsed_ms(), rel=1e-6)


def test_step_scope_accrues_compute_when_a_device_loss_unwinds_it():
    """The compute charged before a fault is real elapsed time."""
    mm = MultiMachine(k=2)
    with pytest.raises(DeviceLost):
        with mm.step():
            mm.devices[1].map_kernel("work", 1000, 1.0)
            raise DeviceLost(step=1, device=0)
    assert mm.compute_ms() == mm.devices[1].elapsed_ms() > 0.0


def test_multimachine_no_comm_single_device():
    mm = MultiMachine(k=1)
    mm.exchange(1e9)
    assert mm.comm_ms == 0.0


def test_multimachine_rejects_zero_devices():
    with pytest.raises(ValueError):
        MultiMachine(k=0)


# -- multi-GPU BFS --------------------------------------------------------------------


@pytest.mark.parametrize("k", [1, 2, 4, 8])
@pytest.mark.parametrize("method", ["contiguous", "hash"])
def test_multi_bfs_matches_single(g, k, method):
    ref = bfs(g, 0).labels
    r = multi_gpu_bfs(g, 0, k=k, method=method)
    assert np.array_equal(r.labels, ref)


def test_multi_bfs_road(road):
    ref = bfs(road, 0).labels
    r = multi_gpu_bfs(road, 0, k=4)
    assert np.array_equal(r.labels, ref)


def test_multi_bfs_source_validation(g):
    with pytest.raises(ValueError):
        multi_gpu_bfs(g, -1, k=2)


def test_multi_bfs_compute_scales_down(g):
    """Per-step compute (max over devices) shrinks with more devices,
    even when communication eats the end-to-end win — the honest multi-GPU
    story for graphs this small."""
    one = multi_gpu_bfs(g, 0, k=1)
    four = multi_gpu_bfs(g, 0, k=4, method="hash")
    assert four.compute_ms < one.compute_ms
    assert one.comm_ms == 0.0
    assert four.comm_ms > 0.0


def test_multi_bfs_remote_fraction_reported(g):
    r = multi_gpu_bfs(g, 0, k=4)
    assert 0.0 < r.remote_fraction < 1.0


def test_multi_bfs_machine_mismatch(g):
    with pytest.raises(ValueError):
        multi_gpu_bfs(g, 0, k=2, machine=MultiMachine(k=4))


# -- multi-GPU PageRank ------------------------------------------------------------------


@pytest.mark.parametrize("k", [1, 2, 4])
def test_multi_pagerank_matches_single(g, k):
    ref = pagerank(g, tolerance=1e-9).rank
    r = multi_gpu_pagerank(g, k=k, tolerance=1e-9)
    assert np.allclose(r.rank, ref, atol=1e-12)


def test_multi_pagerank_iterations_match_single(g):
    ref = pagerank(g, tolerance=1e-8)
    r = multi_gpu_pagerank(g, k=4, tolerance=1e-8)
    assert r.iterations == ref.iterations


def test_multi_pagerank_comm_volume_bounded_by_boundary(g):
    """Boundary aggregation: wire volume per iteration is at most one
    entry per (device, remote vertex) pair, never per edge."""
    mm = MultiMachine(k=4)
    r = multi_gpu_pagerank(g, k=4, machine=mm, tolerance=1e-8)
    max_per_iter = 4 * g.n * 16.0
    assert mm.comm_bytes <= max_per_iter * r.iterations


# -- device-loss recovery ------------------------------------------------------------------


def test_device_loss_on_shared_devices_fails_the_slot_not_the_id(g):
    """Regression: on shared devices a fault names a device id (here 5)
    that is not its slot (1); recovery indexed slots by the id."""
    ref = multi_gpu_pagerank(g, k=3)
    mm = MultiMachine(shared_devices=[Machine(device_index=i)
                                      for i in (4, 5, 7)])
    r = multi_gpu_pagerank(g, k=3, machine=mm, faults=[
        FaultSpec(FaultKind.DEVICE_LOSS, step=2, device=5)])
    assert r.rank.tobytes() == ref.rank.tobytes()
    assert r.recovery["devices_failed"] == [1]


def test_faults_need_distinct_device_ids():
    mm = MultiMachine(shared_devices=[Machine(), Machine()])
    with pytest.raises(ValueError, match="distinct device ids"):
        mm.attach([FaultSpec(FaultKind.DEVICE_LOSS, step=1, device=0)])


@st.composite
def small_graphs(draw):
    n = draw(st.integers(2, 24))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1)),
                          min_size=1, max_size=60))
    return from_edges(np.asarray(edges, dtype=np.int64), n=n)


@st.composite
def device_losses(draw, k):
    """One or two losses at distinct devices, always leaving a survivor."""
    n_losses = draw(st.integers(1, min(2, k - 1)))
    devices = draw(st.lists(st.integers(0, k - 1), min_size=n_losses,
                            max_size=n_losses, unique=True))
    return [FaultSpec(FaultKind.DEVICE_LOSS, step=draw(st.integers(1, 4)),
                      device=d) for d in devices]


@given(st.data(), small_graphs(), st.integers(2, 4),
       st.sampled_from(["contiguous", "hash"]))
@settings(max_examples=60, deadline=None)
def test_device_losses_never_change_the_answer(data, g, k, method):
    src = data.draw(st.integers(0, g.n - 1))
    losses = data.draw(device_losses(k))
    for prim in ("bfs", "pagerank"):
        injector = FaultInjector(FaultPlan(list(losses)))
        if prim == "bfs":
            r = multi_gpu_bfs(g, src, k=k, method=method, faults=injector)
            assert np.array_equal(r.labels, bfs(g, src).labels)
        else:
            r = multi_gpu_pagerank(g, k=k, method=method, faults=injector)
            ref = multi_gpu_pagerank(g, k=k, method=method)
            assert r.rank.tobytes() == ref.rank.tobytes()
        fired = sorted(e.device for e in injector.events)
        assert r.recovery["devices_failed"] == fired
        assert r.recovery["replayed_supersteps"] == len(fired)
