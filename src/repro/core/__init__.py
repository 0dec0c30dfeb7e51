"""Gunrock core: frontier, functors, problem/enactor, operators, policies."""

from .frontier import Frontier, FrontierKind
from .functor import AllPassFunctor, Functor
from .problem import ProblemBase
from .workspace import Workspace, workspace_of
from .enactor import EnactorBase, EnactorStats, TraceEvent
from .direction import DirectionOptimizer, FixedDirection
from . import atomics, loadbalance, operators
from .operators import (advance, compute, filter_frontier, neighbor_reduce,
                        sample, IdempotenceHeuristics, NearFarPile,
                        split_near_far)

__all__ = [
    "Frontier", "FrontierKind", "Functor", "AllPassFunctor", "ProblemBase",
    "Workspace", "workspace_of",
    "EnactorBase", "EnactorStats", "TraceEvent",
    "DirectionOptimizer", "FixedDirection",
    "atomics", "loadbalance", "operators",
    "advance", "compute", "filter_frontier", "neighbor_reduce", "sample",
    "IdempotenceHeuristics", "NearFarPile", "split_near_far",
]
