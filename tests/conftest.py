"""Shared fixtures: small deterministic graphs of every topology class."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph import from_edges, generators, with_random_weights


@pytest.fixture(scope="session")
def tiny_graph():
    """A hand-checkable 6-vertex undirected graph.

        0 - 1 - 2
        |   |
        3 - 4   5 (isolated)
    """
    return from_edges([(0, 1), (1, 2), (0, 3), (1, 4), (3, 4)], n=6,
                      undirected=True)


@pytest.fixture(scope="session")
def kron_graph():
    """Small scale-free R-MAT graph (the irregular-workload case)."""
    return generators.kronecker(9, seed=3)


@pytest.fixture(scope="session")
def kron_weighted(kron_graph):
    return with_random_weights(kron_graph, seed=5)


@pytest.fixture(scope="session")
def road_graph():
    """Small road grid (the large-diameter, even-degree case)."""
    return generators.road_grid(24, 18, seed=2)


@pytest.fixture(scope="session")
def road_weighted(road_graph):
    return with_random_weights(road_graph, seed=7)


@pytest.fixture(scope="session")
def hub_graph():
    """Small bitcoin-like hub graph (the extreme-skew case)."""
    return generators.hub_graph(2000, seed=4)


@pytest.fixture(scope="session")
def star_graph():
    return generators.star(64)


@pytest.fixture(scope="session")
def path_graph():
    return generators.path(50)


@pytest.fixture
def no_engine_chosen(monkeypatch):
    """No ``REPRO_ENGINE``, no ``set_engine``, no ``engine()`` scope: the
    engine is the default, ``fused``."""
    import repro.core.engine as E

    monkeypatch.setattr(E, "_ENGINE", None)
    monkeypatch.setattr(E, "_ENV_ENGINE", "")
    assert E.engine_mode() == "fused"


def nx_of(g, directed=True):
    from repro.graph.build import to_networkx

    return to_networkx(g, directed=directed)
