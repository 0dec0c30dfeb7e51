"""Personalized PageRank (Section 5.5's third who-to-follow ranker).

Identical operator skeleton to :mod:`repro.primitives.pagerank`, but the
teleport vector concentrates on a seed set (the user's circle of trust)
instead of being uniform — the residual push starts at the seeds and
converges to the personalized stationary distribution.  The
implementation shares PageRank's functors and lives beside it.
"""

from .pagerank import PprEnactor, PprProblem, PprResult, ppr

__all__ = ["PprEnactor", "PprProblem", "PprResult", "ppr"]
