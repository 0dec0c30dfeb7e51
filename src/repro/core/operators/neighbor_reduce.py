"""Neighborhood gather-reduce — the paper's Section 7 future-work operator.

"We believe a new gather-reduce operator on neighborhoods associated with
vertices in the current frontier both fits nicely into Gunrock's
abstraction and will significantly improve performance on this
operation."  We implement it: a segmented reduction over each frontier
vertex's neighbor list, avoiding the atomic scatter that a plain advance
would need.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from ...obs.spans import CAT_OPERATOR, span as obs_span
from ...simt import calib
from ...simt.primitives import segmented_reduce_sum
from ..frontier import Frontier, FrontierKind
from ..loadbalance import LoadBalancer, default_load_balancer
from ..problem import ProblemBase
from ..workspace import workspace_of
from .advance import expand_push

#: value accessor: (problem, srcs, dsts, eids) -> per-edge values
EdgeValueFn = Callable[[ProblemBase, np.ndarray, np.ndarray, np.ndarray], np.ndarray]


def neighbor_reduce(problem: ProblemBase, frontier: Frontier,
                    value_fn: EdgeValueFn, op: str = "sum",
                    *, lb: Optional[LoadBalancer] = None,
                    iteration: int = -1) -> np.ndarray:
    """Reduce ``value_fn`` over each frontier vertex's neighborhood.

    Returns one value per frontier element (0 / +inf / -inf identity for
    empty neighborhoods under sum / min / max).  Cost: one fused
    advance-shaped kernel with a segmented reduction instead of atomics.
    """
    if frontier.kind is not FrontierKind.VERTEX:
        raise ValueError("neighbor_reduce expects a vertex frontier")
    lb = lb if lb is not None else default_load_balancer()
    machine = problem.machine
    with obs_span("neighbor_reduce", CAT_OPERATOR, machine, op=op,
                  lb=lb.name, iteration=iteration,
                  frontier=len(frontier)) as sp:
        out = _neighbor_reduce_body(problem, frontier, value_fn, op, lb,
                                    iteration, machine, sp)
    return out


def _neighbor_reduce_body(problem, frontier, value_fn, op, lb, iteration,
                          machine, sp):
    srcs, dsts, eids, degs = expand_push(problem, frontier.items)
    if sp.enabled:
        sp.set(edges=len(eids))
    if machine is not None:
        per_edge = calib.C_EDGE + calib.C_SCAN_PER_ELEM  # gather + tree reduce
        est = lb.estimate(degs, machine.spec, per_edge, calib.C_VERTEX)
        machine.launch(f"neighbor_reduce[{lb.name}]", est.cta_costs,
                       body_cycles=est.setup_cycles, items=len(eids),
                       iteration=iteration)
        machine.counters.record_edges(len(eids))

    ws = workspace_of(problem)
    n_seg = len(frontier.items)
    offsets = np.empty(n_seg + 1, dtype=np.int64)
    offsets[0] = 0
    np.cumsum(degs, out=offsets[1:])
    if len(eids) == 0:
        values = np.zeros(0, dtype=np.float64)
    else:
        values = np.asarray(value_fn(problem, srcs, dsts, eids), dtype=np.float64)
        if len(values) != len(eids):
            raise ValueError("value_fn must return one value per edge")

    if op == "sum":
        return segmented_reduce_sum(values, offsets)
    if op in ("min", "max"):
        ufunc = np.minimum if op == "min" else np.maximum
        identity = np.inf if op == "min" else -np.inf
        out = np.full(n_seg, identity, dtype=np.float64)
        if len(values):
            seg = np.repeat(ws.iota(n_seg), degs)
            ufunc.at(out, seg, values)
        return out
    raise ValueError(f"unsupported reduction op {op!r}; use sum/min/max")
