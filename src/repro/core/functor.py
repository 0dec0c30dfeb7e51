"""Functor protocol — the user-computation half of Gunrock's API (Fig. 1).

Gunrock exposes computation as ``cond``/``apply`` functors over edges and
vertices, compiled into advance/filter kernels ("kernel fusion",
Section 4.3).  Our vectorized equivalent: each method receives *arrays* of
element ids (one entry per CUDA lane) plus the problem object, and returns
a boolean mask (``cond``) or performs in-place updates (``apply``).

Conventions
-----------
* ``cond_edge(problem, src, dst, edge_id)`` -> bool mask over lanes.
  Lanes whose bit is True have ``apply_edge`` run and their destination
  (or edge) admitted to advance's output frontier.
* ``apply_edge(problem, src, dst, edge_id)`` -> optional bool mask.  When
  a mask is returned it further narrows admission — this is how functors
  express "return new_label < atomicMin(...)" in one fused step.
* ``cond_vertex(problem, v)`` / ``apply_vertex(problem, v)`` — the filter
  and compute counterparts.

The default implementations pass everything through, so a functor only
overrides what it needs (BFS's depth-setting apply is four lines).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..graph.csr import true_mask


class Functor:
    """Base functor: all-pass cond, no-op apply.

    Subclasses hold no per-run state of their own; algorithm state lives
    in the problem object, mirroring Gunrock's Problem/Functor split.
    """

    #: advisory: whether repeating apply_edge on the same destination is
    #: harmless (enables the cheap-dedup filter heuristics, Section 4.1.1)
    idempotent: bool = False

    # -- edge-centric (advance) ---------------------------------------------

    def cond_edge(self, problem, src: np.ndarray, dst: np.ndarray,
                  edge_id: np.ndarray) -> Optional[np.ndarray]:
        """Per-edge admission test; None means all lanes pass."""
        return None

    def apply_edge(self, problem, src: np.ndarray, dst: np.ndarray,
                   edge_id: np.ndarray) -> Optional[np.ndarray]:
        """Per-edge computation on passing lanes; an optional returned mask
        narrows which lanes' destinations enter the output frontier."""
        return None

    #: Optional declaration of a source scatter: a functor whose whole
    #: ``apply_edge`` is "atomicAdd a per-source value along every
    #: out-edge into one accumulator, admit nothing" (PageRank's and
    #: SALSA's walks) says so as ``scatter_source(problem, frontier) ->
    #: (accumulator, values)``, one value per frontier vertex, computed
    #: with the same float ops ``apply_edge`` runs per lane.  The push
    #: advance (with no ``cond_edge``) then owns the scatter and has one
    #: lowering for it: ``graph.csr.transpose_product`` where that is
    #: bitwise safe and no sanitizer watches, with a machine attached or
    #: not (a machine prices the atomic from the product's per-cell lane
    #: counts), else ``atomic_add(accumulator, dst,
    #: np.repeat(values, degrees))`` over the expanded lanes.
    #: ``apply_edge`` stays the per-lane spelling the analyzer and the
    #: sanitizer read.
    scatter_source = None

    # -- vertex-centric (filter / compute) -----------------------------------

    def cond_vertex(self, problem, v: np.ndarray) -> Optional[np.ndarray]:
        """Per-vertex admission test for filter; None means all pass."""
        return None

    def apply_vertex(self, problem, v: np.ndarray) -> Optional[np.ndarray]:
        """Per-vertex computation for filter/compute steps."""
        return None

    # -- static effect summary ----------------------------------------------

    @classmethod
    def effect_summary(cls):
        """Static effect summary of this functor's kernel methods.

        Lazily runs :func:`repro.analysis.effects.summarize_functor_class`
        on the defining module and caches the result on the class — the
        registration hook the fusion specializer (ROADMAP item 3) queries
        before inlining a functor into a fused kernel.
        """
        cached = cls.__dict__.get("_effect_summary_cache")
        if cached is None:
            from ..analysis.effects import summarize_functor_class

            cached = summarize_functor_class(cls)
            cls._effect_summary_cache = cached
        return cached


class AllPassFunctor(Functor):
    """Pure traversal: no computation, everything admitted."""


def _validate_mask(mask: np.ndarray, n_lanes: int, where: str) -> np.ndarray:
    mask = np.asarray(mask)
    if mask.dtype != np.bool_:
        raise TypeError(
            f"{where} returned a {mask.dtype} mask; cond/apply "
            "lane masks must be boolean (use a comparison, not "
            "raw values)")
    if len(mask) != n_lanes:
        raise ValueError(
            f"{where} returned mask of length {len(mask)}, "
            f"expected {n_lanes}")
    return mask


def resolve_masks(n_lanes: int, *masks: Optional[np.ndarray],
                  where: str = "functor") -> np.ndarray:
    """AND together optional lane masks (None == all-True).

    ``where`` names the functor method that produced the mask, so the
    errors point at the offending user code.  Non-boolean masks are
    rejected: an int mask would silently reinterpret arbitrary values as
    lane admission bits.

    The no-mask case returns the shared read-only
    :func:`~repro.graph.csr.true_mask` and the single-mask case passes
    the functor's mask straight through, so callers treat the result as
    read-only; only the multi-mask case builds a new array.
    """
    live = [_validate_mask(m, n_lanes, where)
            for m in masks if m is not None]
    if not live:
        return true_mask(n_lanes)
    if len(live) == 1:
        return live[0]
    out = np.logical_and(live[0], live[1])
    for mask in live[2:]:
        np.logical_and(out, mask, out=out)
    return out
